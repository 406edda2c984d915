"""Regularity deciders: absolute, relative to a subgroup, and relative to (k,H).

A "regular" answer is only ever produced by a certificate rule (the condition
quantifies over infinite sets, so search alone cannot prove it); searches can
refute with an exact witness or report the exhausted radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain

from .cocycles import (
    BitstreamCocycle,
    BSInflationCocycle,
    Cocycle,
    FreeTimesZCharCocycle,
    LiftCocycle,
    ProductCocycle,
    SanovCocycle,
    SkewFormCocycle,
    ThetaCocycle,
    TrivialCocycle,
    nth_prime,
)
from .errors import SpecError
from .groups import (
    DEFAULT_NODE_BUDGET,
    Element,
    Subgroup,
    SumZ,
    WreathZ,
    Zn,
    ZnSemidirectZ,
    _index_key,
    commuting_ball,
    resolve_subgroup,
    sanov_word_matrix,
)
from .phase import ZERO, Phase


@dataclass
class RegularityReport:
    subject: Element
    status: str  # "regular" | "not_regular" | "no_witness_up_to"
    rule: str = ""
    witness: Element | None = None
    radius: int | None = None
    detail: str = ""

    @property
    def is_regular_certified(self) -> bool:
        return self.status == "regular"

    def to_json(self) -> dict:
        out: dict = {"subject": self.subject.group.element_to_json(self.subject), "status": self.status}
        if self.rule:
            out["rule"] = self.rule
        if self.witness is not None:
            out["witness"] = self.witness.group.element_to_json(self.witness)
        if self.radius is not None:
            out["radius"] = self.radius
        if self.detail:
            out["detail"] = self.detail
        return out


# ---------------------------------------------------------------------------
# row images for the bilinear families
# ---------------------------------------------------------------------------


@dataclass
class RowImage:
    rows: list[tuple[int, Phase]]
    certified: bool
    note: str = ""

    def all_zero(self) -> bool:
        return all(p.is_zero() for _, p in self.rows)

    def first_nonzero(self) -> tuple[int, Phase] | None:
        for k, p in self.rows:
            if not p.is_zero():
                return (k, p)
        return None


def certified_row_range(sigma: ThetaCocycle | BitstreamCocycle, support: list[int]) -> range | None:
    """Row indices that provably cover every regularity constraint.

    Finite-bandwidth matrices only constrain rows near the support; for
    diagonal data that is eventually periodic with period p the constraints
    repeat with period p once the support is out of reach of the preperiod, so
    one extra period on each side covers everything.
    """
    lo = min(support) if support else 0
    hi = max(support) if support else 0
    if isinstance(sigma, ThetaCocycle):
        if sigma.rule is not None:
            return None
        if sigma.window is not None:
            span = max((k - j for (j, k) in sigma.window), default=0)
            return range(lo - span, hi + span + 1)
        w = sigma.finite_bandwidth
        if w is not None:
            return range(lo - w, hi + w + 1)
        pre, per = len(sigma.diagonals), len(sigma.period or ())
        return range(lo - pre - per, hi + pre + per + 1)
    pre, per = len(sigma.pre), len(sigma.period)
    if per == 0 or not any(sigma.period):
        w = 0
        for m in range(1, pre + 1):
            if sigma.epsilon(m):
                w = m
        return range(lo - w, hi + w + 1)
    return range(lo - pre - per, hi + pre + per + 1)


def _theta_row(sigma: ThetaCocycle, data, k: int) -> Phase:
    """Row k of the antisymmetrized matrix applied to a sparse vector."""
    out = ZERO
    for j, xj in data:
        if j > k:
            out = out * sigma.entry(k, j).scale(xj)
        elif j < k:
            out = out * sigma.entry(j, k).scale(-xj)
    return out


def _bitstream_row(sigma: BitstreamCocycle, data, k: int) -> Phase:
    count = sum(sigma.epsilon(abs(j - k)) for j in data if j != k)
    return Phase(Fraction(1, 2)) if count % 2 else ZERO


def t_theta_image(sigma: Cocycle, x: Element, window: range | None = None) -> RowImage:
    """Phases of the antisymmetrized form against basis elements.

    x is regular iff every row vanishes; the result is certified when the
    parameters admit a finite covering row set, otherwise the caller must
    supply an explicit window and only those rows are evaluated.
    """
    base = sigma.structural()
    if isinstance(base, ThetaCocycle):
        support = [j for j, _ in x.data]
        rows = certified_row_range(base, support)
        rower = lambda k: _theta_row(base, x.data, k)
    elif isinstance(base, BitstreamCocycle):
        support = list(x.data)
        rows = certified_row_range(base, support)
        rower = lambda k: _bitstream_row(base, x.data, k)
    else:
        raise SpecError("row images are defined for the bilinear sum-family cocycles")
    certified = rows is not None
    if rows is None:
        if window is None:
            raise SpecError(
                "this cocycle has unbounded bandwidth; an explicit row window is required"
            )
        rows = window
    return RowImage([(k, rower(k)) for k in rows], certified)


def _prime_rule_witness(sigma: ThetaCocycle, x: Element) -> tuple[Element, Phase]:
    """Nonzero row for the prime-reciprocal matrix: pick a row beyond the
    support whose prime denominators exceed the coefficient mass."""
    G = sigma.group
    total = sum(abs(v) for _, v in x.data)
    kmax = max(j for j, _ in x.data)
    m = 1
    while nth_prime(m) <= total:
        m += 1
    while True:
        k = kmax + m
        val = _theta_row(sigma, x.data, k)
        if not val.is_zero():
            return G.basis_element(k), val
        m += 1  # unreachable for nonzero x; kept as a safety net


# ---------------------------------------------------------------------------
# free-group roots (centralizers in free products of the word families)
# ---------------------------------------------------------------------------


def free_root(word: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Primitive root: the reduced word r and d >= 1 with word = r^d."""
    if not word:
        return (), 1
    # cyclically reduce: word = c * v * c^{-1}
    c: list[int] = []
    v = list(word)
    while len(v) >= 2 and v[0] == -v[-1]:
        c.append(v[0])
        v = v[1:-1]
    n = len(v)
    for d in range(n, 0, -1):
        if n % d:
            continue
        plen = n // d
        if all(v[i] == v[i % plen] for i in range(n)):
            root = v[:plen]
            full = tuple(c) + tuple(root) + tuple(-t for t in reversed(c))
            return full, d
    return tuple(word), 1


def _gcd_pair(x1: int, x2: int) -> tuple[int, int, int]:
    """g = gcd and a vector y with x1*y2 - x2*y1 = g."""
    g = math.gcd(x1, x2)
    if g == 0:
        return 0, 0, 0
    # u*x1 + w*x2 = g  ->  y = (-w, u)
    u, w = _ext_gcd(x1, x2)
    return g, -w, u


def _ext_gcd(a: int, b: int) -> tuple[int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_s, old_t


# ---------------------------------------------------------------------------
# absolute regularity
# ---------------------------------------------------------------------------


def is_sigma_regular(
    sigma: Cocycle,
    g: Element,
    radius: int = 6,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> RegularityReport:
    """Decide whether sigma(g,h) = sigma(h,g) for every h commuting with g.

    Certificate rules cover the bilinear abelian families, the inflated BS
    cocycles on central elements, and the character cocycles; otherwise a
    witness search over the commuting part of a ball runs, which can only
    refute.
    """
    G = sigma.group
    G.check(g)
    if g.is_identity():
        return RegularityReport(g, "regular", rule="identity")
    base = sigma.structural()

    if isinstance(base, TrivialCocycle):
        return RegularityReport(g, "regular", rule="symmetric_cocycle")

    if isinstance(base, ThetaCocycle):
        if base.rule == "prime_reciprocal":
            witness, val = _prime_rule_witness(base, g)
            return RegularityReport(
                g, "not_regular", witness=witness, detail=f"row phase {val!r}"
            )
        img = t_theta_image(sigma, g)
        bad = img.first_nonzero()
        if bad is None:
            return RegularityReport(g, "regular", rule="t_kernel_rows_vanish")
        return RegularityReport(
            g, "not_regular", witness=G.basis_element(bad[0]), detail=f"row phase {bad[1]!r}"
        )

    if isinstance(base, BitstreamCocycle):
        img = t_theta_image(sigma, g)
        bad = img.first_nonzero()
        if bad is None:
            return RegularityReport(g, "regular", rule="t_kernel_rows_vanish")
        return RegularityReport(g, "not_regular", witness=G.basis_element(bad[0]))

    if isinstance(base, SkewFormCocycle):
        x1, x2 = g.data
        content = math.gcd(x1, x2)
        if base.skew_angle().scale(content).is_zero():
            return RegularityReport(g, "regular", rule="skew_form_kernel")
        _, y1, y2 = _gcd_pair(x1, x2)
        return RegularityReport(g, "not_regular", witness=G.vector(y1, y2))

    if isinstance(base, BSInflationCocycle) and G.is_central(g):
        m = g.data[0] * G.n  # exponent of b
        if base.lam.scale(m).is_zero():
            return RegularityReport(g, "regular", rule="central_power_kills_twist")
        return RegularityReport(g, "not_regular", witness=G.word("a"))

    if isinstance(base, FreeTimesZCharCocycle):
        x, m = g.data
        if x == ():
            if base.mu.scale(m).is_zero() and base.nu.scale(m).is_zero():
                return RegularityReport(g, "regular", rule="characters_trivial_on_power")
            bad = G.pair("a", 0) if not base.mu.scale(m).is_zero() else G.pair("b", 0)
            return RegularityReport(g, "not_regular", witness=bad)
        root, d = free_root(x)
        oa = sum(1 if t == 1 else -1 if t == -1 else 0 for t in root)
        ob = sum(1 if t == 2 else -1 if t == -2 else 0 for t in root)
        w = base.mu.scale(oa) * base.nu.scale(ob)
        step = math.gcd(m, d)
        if w.scale(step).is_zero():
            return RegularityReport(g, "regular", rule="character_on_centralizer_vanishes")
        # commuting elements are (root^j, l); pick (j, l) with m*j - l*d = step
        u, v = _ext_gcd(m, d)  # u*m + v*d = step
        wit = _free_times_z_witness(G, root, u, -v)
        return RegularityReport(g, "not_regular", witness=wit)

    if isinstance(base, ProductCocycle):
        if isinstance(base.left, TrivialCocycle) and isinstance(base.right, TrivialCocycle):
            return RegularityReport(g, "regular", rule="symmetric_cocycle")

    # search fallback: can refute, never certify
    for h in commuting_ball(g, radius, node_budget):
        if sigma.eval(g, h) != sigma.eval(h, g):
            return RegularityReport(g, "not_regular", witness=h)
    return RegularityReport(g, "no_witness_up_to", radius=radius)


def _free_times_z_witness(G, root, j: int, l: int) -> Element:
    word: tuple[int, ...] = ()
    r = tuple(root)
    if j < 0:
        r = tuple(-t for t in reversed(r))
        j = -j
    for _ in range(j):
        word = word + r
    return G.pair(word, l)


# ---------------------------------------------------------------------------
# regular vectors in a box (kernel of the row map)
# ---------------------------------------------------------------------------


def regular_vectors_box_raw(sigma: Cocycle, window: int, height: int):
    """Raw coordinate rows (array for the integer family, index tuples for
    the bit family) of the nonzero regular vectors in the box, plus the
    certification flag."""
    import numpy as np

    base = sigma.structural()
    positions = list(range(-window, window + 1))
    if isinstance(base, ThetaCocycle):
        if base.rule == "prime_reciprocal":
            return np.empty((0, len(positions)), dtype=np.int64), True
        rows = certified_row_range(base, positions)
        return box_solution_array(base, positions, height, rows), rows is not None
    if isinstance(base, BitstreamCocycle):
        rows = certified_row_range(base, positions)
        found = []
        for mask in range(1, 1 << len(positions)):
            data = tuple(p for i, p in enumerate(positions) if mask >> i & 1)
            if all(_bitstream_row(base, data, k).is_zero() for k in rows):
                found.append(data)
        return found, True
    raise SpecError("regular-vector scans apply to the bilinear sum families")


def regular_vectors_in_box(
    sigma: Cocycle, window: int, height: int
) -> tuple[list[Element], bool]:
    """All nonzero regular vectors with support in [-window, window] and
    entries bounded by height, in ``sort_key`` order, plus a certification
    flag."""
    base = sigma.structural()
    G = base.group
    positions = list(range(-window, window + 1))
    raw, certified = regular_vectors_box_raw(sigma, window, height)
    if isinstance(base, ThetaCocycle):
        return _sumz_elements(G, positions, height, raw), certified
    elems = [G.element(v) for v in raw]
    return sorted(elems, key=lambda e: G.sort_key(e.data)), certified


def _sumz_elements(G: SumZ, positions: list[int], height: int, raw) -> list[Element]:
    """The rows of a box array as elements, in ``SumZ.sort_key`` order.

    One lexsort orders the rows: the L1 norm first, then the positions in
    ``_index_key`` order.  A present entry v is coded 2|v| (+1 when
    negative); an absent entry is coded above every present code when a
    later position is nonzero and 0 otherwise, so that a support which is a
    prefix of another sorts first, as in the tuple comparison of the key.

    Payloads are built per support pattern: each live column is exported
    with one ``tolist()`` and mapped through a table of interned
    ``(position, value)`` pairs, and the columns are zipped together.
    """
    import numpy as np

    if len(raw) == 0:
        return []
    n = len(positions)
    small = np.min_scalar_type(-2 * height - 3)  # holds every code and every v + height
    vals = raw.astype(small)
    ordered = vals[:, sorted(range(n), key=lambda c: _index_key(positions[c]))]
    later = np.zeros(ordered.shape, dtype=bool)  # some later position is nonzero
    later[:, :-1] = np.logical_or.accumulate(ordered[:, :0:-1] != 0, axis=1)[:, ::-1]
    codes = 2 * np.abs(ordered) + (ordered < 0)
    codes[later & (ordered == 0)] = 2 * height + 2
    l1 = np.abs(vals).sum(axis=1)
    # small key types sort by radix
    vals = vals[np.lexsort([*codes.T[::-1], l1.astype(np.min_scalar_type(l1.max()))])]

    masks = (vals != 0) @ (1 << np.arange(n, dtype=np.int64))
    by_mask = np.argsort(masks.astype(np.min_scalar_type(masks.max())), kind="stable")
    starts = np.flatnonzero(np.diff(masks[by_mask])) + 1
    table = [[(p, v) for v in range(-height, height + 1)] for p in positions]
    make = partial(Element, G)
    grouped: list[Element] = []
    for rows in np.split(by_mask, starts):
        block = vals[rows] + height
        cols = np.flatnonzero(block[0] != height)
        parts = [map(table[c].__getitem__, block[:, c].tolist()) for c in cols.tolist()]
        grouped.extend(map(make, zip(*parts)))
    return list(map(grouped.__getitem__, np.argsort(by_mask).tolist()))


def regular_subgroup_generators(
    sigma: Cocycle, window: int, height: int
) -> tuple[list[Element], bool]:
    """Generators of the lattice spanned by the nonzero regular vectors
    supported in [-window, window] with entries bounded by height, plus a
    completeness flag.

    The flag is set when a certified row set covers all constraints (finite
    bandwidth, eventually periodic diagonals, or the prime-reciprocal rule).

    For the integer family with a certified row range the regular vectors
    supported in the window are exactly one lattice L, the kernel of the
    row constraints (``kernel_lattice_basis``).  When every entry of its
    Hermite basis is at most height in absolute value, the box span equals
    L: each basis vector is itself a box vector, so L lies in the box span,
    and every box vector lies in L.  The basis is then returned without
    scanning the box.  Otherwise the box span may be a proper sublattice of
    L (``theta_diag [[1,5]]`` at window 2, height 2 has kernel entries up
    to 5 and no box vectors at all), so the generators are derived from
    the box vectors themselves.
    """
    base = sigma.structural()
    G = base.group
    positions = list(range(-window, window + 1))

    def elements(vectors) -> list[Element]:
        elems = [G.element(tuple((p, v) for p, v in zip(positions, vec) if v)) for vec in vectors]
        return sorted(elems, key=lambda e: G.sort_key(e.data))

    if isinstance(base, ThetaCocycle) and base.rule is None:
        basis = kernel_lattice_basis(base, positions, certified_row_range(base, positions))
        if all(abs(v) <= height for vec in basis for v in vec):
            return elements(basis), True
    raw, certified = regular_vectors_box_raw(sigma, window, height)
    if isinstance(base, ThetaCocycle):
        return elements(_lattice_generators_np(raw, len(positions))), certified
    gens = _gf2_generators(raw, positions)
    elems = [G.element(v) for v in gens]
    return sorted(elems, key=lambda e: G.sort_key(e.data)), certified


def _grid(ncols: int, height: int):
    """All integer vectors with entries in [-height, height], as an array."""
    import numpy as np

    base = 2 * height + 1
    vals = np.arange(-height, height + 1, dtype=np.int64)
    idx = np.arange(base**ncols)
    out = np.empty((base**ncols, ncols), dtype=np.int64)
    for c in range(ncols):
        out[:, ncols - 1 - c] = vals[(idx // (base**c)) % base]
    return out


def _integer_constraints(sigma: ThetaCocycle, positions: list[int], rows):
    """The listed rows of the antisymmetrized matrix as integer constraints.

    A vector x (one entry per position) makes every listed row vanish iff
    ``rat_w x = 0 (mod D)`` and ``w x = 0`` for each ``w`` in ``sym_ws``:
    the rational parts are scaled to their common denominator D, and each
    symbol's coefficients to that symbol's common denominator.  All three
    are plain Python ints, one matrix row per listed row.
    """
    if rows is None:
        raise SpecError("explicit-window evaluation requires bounded bandwidth")
    row_list = list(rows)
    phases = {(j, k): _srow_entry(sigma, j, k) for k in row_list for j in positions}
    symbols = sorted({s for p in phases.values() for s, _ in p.irr})
    D = math.lcm(*(p.rational.denominator for p in phases.values()), 1)
    sym_den = {
        s: math.lcm(*(dict(p.irr).get(s, Fraction(0)).denominator for p in phases.values()), 1)
        for s in symbols
    }
    rat_w = [[int(phases[(j, k)].rational * D) for j in positions] for k in row_list]
    sym_ws = [
        [[int(dict(phases[(j, k)].irr).get(s, Fraction(0)) * sym_den[s]) for j in positions] for k in row_list]
        for s in symbols
    ]
    return D, rat_w, sym_ws


def kernel_lattice_basis(sigma: ThetaCocycle, positions: list[int], rows) -> list[tuple[int, ...]]:
    """Hermite normal form basis of the lattice of vectors supported on
    positions whose listed rows vanish.

    x lies in the lattice iff ``rat_w x + D y = 0`` and ``w x = 0`` for some
    integer vector y, so the lattice is the projection onto x of the integer
    kernel of the augmented matrix ``[rat_w | D I ; sym_w | 0]``.  The kernel
    comes from column elimination with a unimodular tracker (Cohen, GTM 138,
    section 2.4); the projection is injective because D y = 0 forces y = 0.
    Rows that vanish identically constrain nothing and are dropped.
    """
    D, rat_w, sym_ws = _integer_constraints(sigma, positions, rows)
    n = len(positions)
    rat_rows = [r for r in rat_w if any(r)]
    slack = len(rat_rows)
    matrix = [r + [D if t == i else 0 for t in range(slack)] for i, r in enumerate(rat_rows)]
    matrix += [r + [0] * slack for w in sym_ws for r in w if any(r)]
    m = len(matrix)
    # column c of the matrix, followed by the x part of the tracker's column c
    # (the y part is never read: the kernel is projected onto x)
    cols = [[row[c] for row in matrix] + [int(t == c) for t in range(n)] for c in range(n + slack)]
    for r in range(m):
        while True:
            live = [c for c in cols if c[r]]
            if len(live) <= 1:
                break
            p = min(live, key=lambda c: abs(c[r]))
            for c in live:
                q = c[r] // p[r]
                if c is not p and q:
                    for t in range(r, len(c)):
                        c[t] -= q * p[t]
        if live:
            cols = [c for c in cols if c is not live[0]]
    return _hermite_basis([c[m:] for c in cols], n)


def _hermite_basis(rows: list[list[int]], n: int) -> list[tuple[int, ...]]:
    """Hermite normal form: the echelon basis with every entry above a pivot
    reduced into [0, pivot)."""
    basis = [list(b) for b in _echelon(rows, n)]
    for i, b in enumerate(basis):
        col = next(t for t, v in enumerate(b) if v)
        for a in basis[:i]:
            q = a[col] // b[col]
            if q:
                for t in range(col, n):
                    a[t] -= q * b[t]
    return [tuple(b) for b in basis]


def box_solution_array(sigma: ThetaCocycle, positions: list[int], height: int, rows):
    """All nonzero vectors in the box whose listed rows vanish.

    Meet-in-the-middle with vectorized constraint evaluation over the
    integer constraints of ``_integer_constraints``: rational parts matched
    mod D, symbolic coefficients matched exactly.
    """
    import numpy as np

    D, rat_rows, sym_rows = _integer_constraints(sigma, positions, rows)
    rat_w = np.array(rat_rows, dtype=np.int64)
    sym_ws = [np.array(w, dtype=np.int64) for w in sym_rows]

    half = len(positions) // 2
    left = _grid(half, height)
    right = _grid(len(positions) - half, height)

    def keys(vals, cols, negate: bool):
        sign = -1 if negate else 1
        parts = [(sign * (vals @ rat_w[:, cols].T)) % D]
        parts += [sign * (vals @ w[:, cols].T) for w in sym_ws]
        return np.concatenate(parts, axis=1)

    lcols = slice(0, half)
    rcols = slice(half, len(positions))
    right_keys = keys(right, rcols, negate=False)
    left_keys = keys(left, lcols, negate=True)

    width = right_keys.shape[1] * right_keys.dtype.itemsize
    rbuf = np.ascontiguousarray(right_keys).tobytes()
    lbuf = np.ascontiguousarray(left_keys).tobytes()
    index: dict[bytes, list[int]] = {}
    for i, at in enumerate(range(0, len(rbuf), width)):
        index.setdefault(rbuf[at : at + width], []).append(i)

    lrows: list[int] = []
    rlists: list[list[int]] = []
    for i, at in enumerate(range(0, len(lbuf), width)):
        hits = index.get(lbuf[at : at + width])
        if hits:
            lrows.append(i)
            rlists.append(hits)
    lidx = np.repeat(np.array(lrows, dtype=np.intp), [len(h) for h in rlists])
    ridx = np.fromiter(chain.from_iterable(rlists), dtype=np.intp, count=len(lidx))
    nonzero = left.any(axis=1)[lidx] | right.any(axis=1)[ridx]
    lidx, ridx = lidx[nonzero], ridx[nonzero]
    # both grids are in lexicographic order and the hits are collected in
    # index order, so the solutions come out sorted lexicographically
    return np.concatenate([left[lidx], right[ridx]], axis=1)


def _srow_entry(sigma: ThetaCocycle, j: int, k: int) -> Phase:
    """Signed entry of the antisymmetrized matrix at row k, column j."""
    if j > k:
        return sigma.entry(k, j)
    if j < k:
        return sigma.entry(j, k).inverse()
    return ZERO


def _echelon(rows: list[list[int]], n: int) -> list[tuple[int, ...]]:
    """Echelon generating set (over the integers) of the lattice spanned by rows."""
    rows = [r for r in rows if any(r)]
    basis: list[tuple[int, ...]] = []
    for col in range(n):
        while True:
            work = [r for r in rows if r[col] != 0]
            if len(work) <= 1:
                break
            work.sort(key=lambda r: abs(r[col]))
            p = work[0]
            for r in work[1:]:
                q = r[col] // p[col]
                if q:
                    for t in range(n):
                        r[t] -= q * p[t]
            rows = [r for r in rows if any(r)]
        work = [r for r in rows if r[col] != 0]
        if work:
            p = work[0]
            if p[col] < 0:
                for t in range(n):
                    p[t] = -p[t]
            basis.append(tuple(p))
            rows.remove(p)
    return basis


def _lattice_generators_np(arr, n: int) -> list[tuple[int, ...]]:
    """Generating set of the lattice spanned by the rows of an array.

    Saturation loop: reduce every row by the current echelon basis at once
    (vectorized), adopt the first nonzero residual, repeat.  Each round
    strictly enlarges the lattice, so the loop ends after a handful of
    iterations regardless of how many input vectors there are.
    """
    import numpy as np

    arr = np.asarray(arr, dtype=np.int64)
    if arr.size == 0:
        return []

    def saturate(rows, basis):
        while True:
            V = rows.copy()
            for b in basis:
                col = next(i for i, v in enumerate(b) if v)
                q = V[:, col] // b[col]
                nz = np.flatnonzero(q)
                if nz.size:
                    V[nz] -= np.outer(q[nz], np.array(b, dtype=np.int64))
            residual = np.flatnonzero((V != 0).any(axis=1))
            if residual.size == 0:
                return basis
            vec = [int(x) for x in V[residual[0]]]
            basis = _echelon([list(b) for b in basis] + [vec], n)

    # seed from a prefix, then close over the full set (usually a no-op pass)
    basis = saturate(arr[: min(len(arr), 4096)], [])
    return saturate(arr, basis)


def lattice_contains(basis: list[tuple[int, ...]], target: tuple[int, ...]) -> bool:
    """Membership in the integer row span of an echelon basis."""
    r = list(target)
    for b in basis:
        col = next((i for i, v in enumerate(b) if v), None)
        if col is None:
            continue
        if r[col] % b[col] == 0:
            q = r[col] // b[col]
            for t in range(len(r)):
                r[t] -= q * b[t]
    return not any(r)


def _gf2_generators(vectors: list[tuple[int, ...]], positions: list[int]) -> list[tuple[int, ...]]:
    basis: dict[int, frozenset[int]] = {}
    for vec in vectors:
        cur = frozenset(vec)
        while cur:
            piv = min(cur)
            if piv in basis:
                cur = cur ^ basis[piv]
            else:
                basis[piv] = cur
                break
    return [tuple(sorted(b)) for _, b in sorted(basis.items())]


# ---------------------------------------------------------------------------
# relative regularity
# ---------------------------------------------------------------------------


def is_regular_wrt_subgroup(
    sigma: Cocycle,
    g: Element,
    subgroup: str | Subgroup,
    radius: int = 6,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> RegularityReport:
    """sigma-regularity of g with witnesses drawn from a subgroup."""
    G = sigma.group
    G.check(g)
    sub = subgroup if isinstance(subgroup, Subgroup) else resolve_subgroup(G, subgroup)
    if sub.inner is None:
        return RegularityReport(g, "regular", rule="trivial_subgroup")
    if sub.name == "full":
        return is_sigma_regular(sigma, g, radius, node_budget)
    base = sigma.structural()

    if isinstance(base, TrivialCocycle):
        return RegularityReport(g, "regular", rule="symmetric_cocycle")

    if isinstance(base, BSInflationCocycle) and sub.name == "center":
        a_exp, _ = G.exponents(g)
        if base.lam.scale(G.n * a_exp).is_zero():
            return RegularityReport(g, "regular", rule="central_twist_vanishes_on_power")
        return RegularityReport(g, "not_regular", witness=G.b_power(G.n))

    if isinstance(base, FreeTimesZCharCocycle) and sub.name == "z":
        oa, ob = G.word_exponents(g)
        v = base.mu.scale(oa) * base.nu.scale(ob)
        if v.is_zero():
            return RegularityReport(g, "regular", rule="character_vanishes_on_word")
        return RegularityReport(g, "not_regular", witness=G.pair((), 1))

    if isinstance(base, LiftCocycle) and sub.name == "base":
        x, k = g.data
        if k != 0 and _base_action_aperiodic(G):
            return RegularityReport(g, "regular", rule="no_nontrivial_commuting_base_elements")
        if k == 0:
            inner_report = is_sigma_regular(base.base, sub.inner.element(x), radius, node_budget)
            return _pullback_report(inner_report, g, sub)

    if isinstance(base, SanovCocycle) and sub.name in ("base", "z2"):
        return _sanov_base_regularity(base, g, sub)

    for s in sub.ball(radius, node_budget):
        if G.compose(g, s) == G.compose(s, g) and sigma.eval(g, s) != sigma.eval(s, g):
            return RegularityReport(g, "not_regular", witness=s)
    return RegularityReport(g, "no_witness_up_to", radius=radius)


def _base_action_aperiodic(G) -> bool:
    if isinstance(G, WreathZ):
        return G.m is None
    if isinstance(G, ZnSemidirectZ):
        return bool(G.icc)
    return False


def _pullback_report(inner: RegularityReport, g: Element, sub: Subgroup) -> RegularityReport:
    witness = sub.embed(inner.witness) if inner.witness is not None else None
    return RegularityReport(
        g, inner.status, rule=inner.rule, witness=witness, radius=inner.radius, detail=inner.detail
    )


def _sanov_base_regularity(base: SanovCocycle, g: Element, sub: Subgroup) -> RegularityReport:
    """Commuting lattice vectors are the fixed vectors of the word's matrix."""
    (u, x) = g.data
    G = base.group
    if x == ():
        inner = is_sigma_regular(base.restrict("base"), sub.inner.element(tuple(u)))
        return _pullback_report(inner, g, sub)
    M = sanov_word_matrix(x)
    a, b = M[0][0] - 1, M[0][1]
    c, d = M[1][0], M[1][1] - 1
    # integer kernel of M - I
    if a == b == c == d == 0:
        # whole lattice commutes; same test as the rank-2 case below with gens e1,e2
        gens = [(1, 0), (0, 1)]
    elif a * d - b * c != 0:
        return RegularityReport(g, "regular", rule="no_fixed_lattice_vectors")
    else:
        gens = [_kernel_generator(a, b, c, d)]
    for w in gens:
        val = base.mu0.scale(Fraction(u[0] * w[1] - u[1] * w[0])) * base.g(w, x)
        if not val.is_zero():
            return RegularityReport(g, "not_regular", witness=sub.embed(sub.inner.element(w)))
    return RegularityReport(g, "regular", rule="twist_vanishes_on_fixed_vectors")


def _kernel_generator(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """Primitive integer solution of a*x + b*y = 0 (and c*x + d*y = 0)."""
    if a == 0 and b == 0:
        a, b = c, d
    if a == 0:
        return (1, 0)
    if b == 0:
        return (0, 1)
    g = math.gcd(a, b)
    return (b // g, -a // g)


def relative_class_partial(
    k: Element,
    t: Element,
    subgroup: str | Subgroup,
    radius: int = 6,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[Element, ...]:
    """{(k.s) t s^{-1} : s in a subgroup ball} with k.s = k s k^{-1}."""
    G = k.group
    G.check(t)
    sub = subgroup if isinstance(subgroup, Subgroup) else resolve_subgroup(G, subgroup)
    out = set()
    for s in sub.ball(radius, node_budget):
        out.add(G.compose(G.compose(G.conjugate(k, s), t), G.invert(s)))
    return tuple(sorted(out, key=lambda e: G.sort_key(e.data)))


def is_regular_wrt_kH(
    sigma: Cocycle,
    k: Element,
    t: Element,
    subgroup: str | Subgroup,
    radius: int = 6,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> RegularityReport:
    """Regularity of t relative to (k, H), decided through the displayed
    equivalence with regularity of k^{-1} t relative to H."""
    G = sigma.group
    G.check(k)
    G.check(t)
    shifted = G.compose(G.invert(k), t)
    inner = is_regular_wrt_subgroup(sigma, shifted, subgroup, radius, node_budget)
    return RegularityReport(
        t,
        inner.status,
        rule=inner.rule,
        witness=inner.witness,
        radius=inner.radius,
        detail=f"via k^-1 t = {shifted!r}",
    )
