"""Regularity deciders: absolute, relative to a subgroup, and relative to (k,H).

A "regular" answer is only ever produced by a certificate rule (the condition
quantifies over infinite sets, so search alone cannot prove it); searches can
refute with an exact witness or report the exhausted radius.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import compress

from .cocycles import Cocycle, nth_prime
from .errors import BudgetExceededError, SpecError
from .groups import DEFAULT_NODE_BUDGET, Element, Subgroup, commuting_ball, resolve_subgroup
from .phase import Angle, Phase, add_angles, negate_angle, scale_angle


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

    def all_zero(self) -> bool:
        return all(p.is_zero() for _, p in self.rows)

    def first_nonzero(self) -> tuple[int, Phase] | None:
        for k, p in self.rows:
            if not p.is_zero():
                return (k, p)
        return None


def certified_row_range(sigma: Cocycle, support: list[int]) -> range | None:
    """Row indices that provably cover every regularity constraint.

    Finite-bandwidth matrices only constrain rows near the support; for
    diagonal data that is eventually periodic with period p the constraints
    repeat with period p once the support is out of reach of the preperiod, so
    one extra period on each side covers everything.
    """
    lo = min(support) if support else 0
    hi = max(support) if support else 0
    if sigma.kind == "theta":
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


def _theta_row(sigma: Cocycle, data, k: int) -> Phase:
    """Row k of the antisymmetrized matrix applied to a sparse vector."""
    out = (0, (0,) * len(sigma.symbols), 1)
    for j, xj in data:
        entry = _srow_entry(sigma, j, k)
        if entry is not None:
            out = add_angles(out, scale_angle(entry, xj))
    return sigma.phase(out)


def _bitstream_row(sigma: Cocycle, data, k: int) -> Phase:
    count = sum(sigma.epsilon(abs(j - k)) for j in data if j != k)
    return sigma.phase((count % 2, (), 2))


def t_theta_image(sigma: Cocycle, x: Element, window: range | None = None) -> RowImage:
    """Phases of the antisymmetrized form against basis elements.

    x is regular iff every row vanishes; the result is certified when the
    parameters admit a finite covering row set, otherwise the caller must
    supply an explicit window and only those rows are evaluated.
    """
    base = sigma.structural()
    if base.kind == "theta":
        support = [j for j, _ in x.data]
        rows = certified_row_range(base, support)
        rower = lambda k: _theta_row(base, x.data, k)
    elif base.kind == "bitstream":
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


def _prime_rule_witness(sigma: Cocycle, x: Element) -> tuple[Element, Phase]:
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

    if base.kind == "trivial":
        return RegularityReport(g, "regular", rule="symmetric_cocycle")

    if base.kind in ("theta", "bitstream"):
        theta = base.kind == "theta"
        if theta and base.rule == "prime_reciprocal":
            witness, val = _prime_rule_witness(base, g)
            return RegularityReport(g, "not_regular", witness=witness, detail=f"row phase {val!r}")
        bad = t_theta_image(sigma, g).first_nonzero()
        if bad is None:
            return RegularityReport(g, "regular", rule="t_kernel_rows_vanish")
        k, val = bad
        detail = f"row phase {val!r}" if theta else ""  # a bitstream row is always 1/2
        return RegularityReport(g, "not_regular", witness=G.basis_element(k), detail=detail)

    if base.kind in ("antisym_theta", "half_skew"):
        x1, x2 = g.data
        content = math.gcd(x1, x2)
        if base.skew_angle().scale(content).is_zero():
            return RegularityReport(g, "regular", rule="skew_form_kernel")
        u, w = _ext_gcd(x1, x2)  # y = (-w, u) has x1*y2 - x2*y1 = u*x1 + w*x2 = +-content
        return RegularityReport(g, "not_regular", witness=G.vector(-w, u))

    if base.kind == "bs" and G.center().contains(g):
        m = g.data[0] * G.n  # exponent of b
        if base.lam.scale(m).is_zero():
            return RegularityReport(g, "regular", rule="central_power_kills_twist")
        return RegularityReport(g, "not_regular", witness=G.word("a"))

    if base.kind == "f2xz":
        x, m = g.data
        if x == ():
            if base.mu.scale(m).is_zero() and base.nu.scale(m).is_zero():
                return RegularityReport(g, "regular", rule="characters_trivial_on_power")
            bad = G.pair("a", 0) if not base.mu.scale(m).is_zero() else G.pair("b", 0)
            return RegularityReport(g, "not_regular", witness=bad)
        root, d = free_root(x)
        w = base.character(root)
        step = math.gcd(m, d)
        if w.scale(step).is_zero():
            return RegularityReport(g, "regular", rule="character_on_centralizer_vanishes")
        # commuting elements are (root^j, l); pick (j, l) with m*j - l*d = step
        u, v = _ext_gcd(m, d)  # u*m + v*d = step
        wit = _free_times_z_witness(G, root, u, -v)
        return RegularityReport(g, "not_regular", witness=wit)

    if base.kind == "product":
        if base.left.kind == base.right.kind == "trivial":
            return RegularityReport(g, "regular", rule="symmetric_cocycle")

    # search fallback: can refute, never certify
    return _searched_report(sigma, g, commuting_ball(g, radius, node_budget), radius)


def asymmetric_partner(sigma: Cocycle, g: Element, pool: Iterable[Element]) -> Element | None:
    """The first h in pool with gh = hg and sigma(g,h) != sigma(h,g): a
    witness that g is not regular with respect to the pool."""
    G = g.group
    return next(
        (h for h in pool if G.compose(g, h) == G.compose(h, g) and sigma.eval(g, h) != sigma.eval(h, g)),
        None,
    )


def _searched_report(sigma: Cocycle, g: Element, pool: Iterable[Element], radius: int) -> RegularityReport:
    witness = asymmetric_partner(sigma, g, pool)
    if witness is None:
        return RegularityReport(g, "no_witness_up_to", radius=radius)
    return RegularityReport(g, "not_regular", witness=witness)


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
    if base.kind == "theta":
        if base.rule == "prime_reciprocal":
            return np.empty((0, len(positions)), dtype=np.int64), True
        rows = certified_row_range(base, positions)
        return box_solution_array(base, positions, height, rows), rows is not None
    if base.kind == "bitstream":
        rows = certified_row_range(base, positions)
        found = []
        for mask in range(1, 1 << len(positions)):
            data = tuple(p for i, p in enumerate(positions) if mask >> i & 1)
            if all(_bitstream_row(base, data, k).is_zero() for k in rows):
                found.append(data)
        return found, True
    raise SpecError("regular-vector scans apply to the bilinear sum families")


class BoxVectors(Sequence):
    """The regular vectors of a box as a read-only list of Elements, built
    only where they are read.

    `rows` holds the payload rows in scan order (the box array of the
    integer family, the index tuples of the bit family), `order` returns
    them in ``sort_key`` order, and `export` builds the Element of one
    ordered row.  `len` and truth read the scan and never order it; the
    first index, slice, iteration or comparison orders the rows once.  An
    index, a slice (returned as a list) and iteration map `export` over the
    ordered rows they read, and the sequence equals any list or tuple of
    the same Elements.
    """

    def __init__(self, rows, order, export):
        self._scan = rows
        self._order = order
        self._export = export

    @cached_property
    def _rows(self):
        return self._order(self._scan)

    def __len__(self) -> int:
        return len(self._scan)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self._export, self._rows[i]))
        i = range(len(self))[i]  # negative and out-of-range indices as a list has them
        return self._export(self._rows[i])

    def __iter__(self) -> Iterator[Element]:
        return map(self._export, self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, tuple, BoxVectors)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None


def regular_vectors_in_box(sigma: Cocycle, window: int, height: int) -> tuple[BoxVectors, bool]:
    """All nonzero regular vectors with support in [-window, window] and
    entries bounded by height, in ``sort_key`` order, plus a certification
    flag.

    The vectors come as a `BoxVectors` sequence over the scan's payload
    rows, so a caller that reads the count sorts nothing and one that reads
    the first vector builds no other Element."""
    base = sigma.structural()
    G = base.group
    raw, certified = regular_vectors_box_raw(sigma, window, height)
    if base.kind == "theta":
        positions = list(range(-window, window + 1))

        def export(row) -> Element:
            vals = row.tolist()
            return Element(G, tuple(compress(zip(positions, vals), vals)))  # the (position, value) pairs with v != 0

        return BoxVectors(raw, partial(_sumz_sorted, G.sort_key, positions, height), export), certified
    return BoxVectors(raw, partial(sorted, key=G.sort_key), partial(Element, G)), certified


def _sumz_sorted(sort_key, positions: list[int], height: int, vals):
    """The rows of a `box_solution_array` array in ``SumZ.sort_key`` order;
    its integer type holds every code below.

    One lexsort orders the rows: the L1 norm first, then the positions in
    the ``sort_key`` order of their basis vectors.  A present entry v is
    coded 2|v| (+1 when negative); an absent entry is coded above every
    present code when a later position is nonzero and 0 otherwise, so that
    a support which is a prefix of another sorts first, as in the tuple
    comparison of the key.
    The codes are built one row of the transposed array at a time from the
    last position in key order, carrying the "some later is nonzero" mask.
    """
    import numpy as np

    if len(vals) == 0:
        return vals
    keyed = vals.T[sorted(range(len(positions)), key=lambda c: sort_key(((positions[c], 1),)))]
    size = np.abs(keyed)
    codes = 2 * size + (keyed < 0)
    later = np.zeros(len(vals), dtype=bool)
    for code in codes[::-1]:
        absent = code == 0
        code[later & absent] = 2 * height + 2
        later |= ~absent
    l1 = size.sum(axis=0, dtype=np.min_scalar_type(-len(positions) * height))
    # small key types sort by radix; lexsort reads its last key first
    return np.take(vals, np.lexsort([*codes[::-1], l1]), axis=0)


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
    to 5 and no box vectors at all), so the generators are the Hermite
    basis of the box vectors, from the same Python-int echelon as the
    kernel basis.
    """
    base = sigma.structural()
    G = base.group
    positions = list(range(-window, window + 1))

    def elements(vectors) -> list[Element]:
        return G.sorted_elements(tuple((p, v) for p, v in zip(positions, vec) if v) for vec in vectors)

    if base.kind == "theta" and base.rule is None:
        basis = kernel_lattice_basis(base, positions, certified_row_range(base, positions))
        if all(abs(v) <= height for vec in basis for v in vec):
            return elements(basis), True
    raw, certified = regular_vectors_box_raw(sigma, window, height)
    if base.kind == "theta":
        return elements(_hermite_basis(raw.tolist(), len(positions))), certified
    return G.sorted_elements(_gf2_generators(raw, positions)), certified


def _grid(ncols: int, height: int):
    """All integer vectors with entries in [-height, height], in
    lexicographic order, as an array of `box_solution_array`'s type."""
    import numpy as np

    base = 2 * height + 1
    vals = np.arange(-height, height + 1, dtype=np.min_scalar_type(-2 * height - 3))
    out = np.empty((base,) * ncols + (ncols,), dtype=vals.dtype)
    for c in range(ncols):  # column c runs along axis c
        out[..., c] = vals.reshape((base,) + (1,) * (ncols - 1 - c))
    return out.reshape(base**ncols, ncols)


def _integer_rows(matrix: list[list[Angle]]):
    """A matrix of integer angles as integer constraints on integer vectors x.

    Every row angle ``row . x`` vanishes mod 1 iff ``rat_w x = 0 (mod D)``
    and ``w x = 0`` for each ``w`` in ``sym_ws``: the rational parts are
    scaled to their least common denominator D, and each symbol's
    coefficients to that symbol's least common denominator, so the ints
    stay as small as the entries allow.  All three are plain Python ints.

    Only the rows that carry information are kept (``_spanning_rows``): a
    rational row that enlarges the row module mod D (none when D = 1) and
    a symbol row that raises its symbol's rank.  They are a subset of the
    scaled rows, never combinations, so no entry grows, and the solutions
    are the same.  A repeated row never does, so each is read once.
    """
    matrix = list(dict.fromkeys(map(tuple, matrix)))
    entries = set().union(*matrix)
    n = len(matrix[0]) if matrix else 0

    def scaled(part):
        den = math.lcm(1, *{a[2] // math.gcd(part(a), a[2]) for a in entries})
        return den, [[part(a) * den // a[2] for a in row] for row in matrix]

    D, rat_w = scaled(lambda a: a[0])
    sym_ws = [
        _spanning_rows(scaled(lambda a, i=i: a[1][i])[1], n, None)
        for i in range(len(matrix[0][0][1]) if matrix else 0)
        if any(a[1][i] for a in entries)
    ]
    return D, _spanning_rows(rat_w, n, D), sym_ws


def _spanning_rows(rows: list[list[int]], n: int, modulus: int | None) -> list[list[int]]:
    """The rows, in order, that each enlarge the span of the rows kept
    before them: the integer module mod `modulus`, or the row space over
    the rationals when `modulus` is None.

    A row is reduced by an echelon basis of the span so far (with
    ``modulus * Z^n`` included, a full-rank triangular basis, whose
    residues are unique); it lies in the span iff nothing is left.
    """
    basis = [] if modulus is None else [(i, [modulus * (t == i) for t in range(n)]) for i in range(n)]
    kept = []  # basis holds (pivot column, echelon row) pairs
    for row in rows:
        r = list(row) if modulus is None else [x % modulus for x in row]
        for col, b in basis:
            if modulus is None:
                if r[col]:
                    r = [b[col] * x - r[col] * y for x, y in zip(r, b)]
            elif not 0 <= r[col] < b[col]:
                q = r[col] // b[col]
                r = [x - q * y for x, y in zip(r, b)]
        if any(r):
            kept.append(row)
            echelon = _echelon([list(b) for _, b in basis] + [list(row)], n)
            basis = [(next(t for t, v in enumerate(b) if v), b) for b in echelon]
    return kept


def _integer_constraints(sigma: Cocycle, positions: list[int], rows):
    """The listed rows of the antisymmetrized matrix as ``_integer_rows``."""
    if rows is None:
        raise SpecError("explicit-window evaluation requires bounded bandwidth")
    zero = (0, (0,) * len(sigma.symbols), 1)
    return _integer_rows([[_srow_entry(sigma, j, k) or zero for j in positions] for k in rows])


def integer_kernel(D: int, rat_rows, exact_rows, n: int) -> list[tuple[int, ...]]:
    """Hermite normal form basis of {x in Z^n : rat x = 0 mod D, exact x = 0}.

    x lies in the lattice iff ``(rat x + D y, exact x)`` vanishes for some
    integer vector y.  The rows ``(c_i, e_i)``, with c_i column i of the
    constraints, and ``(D e_t, 0)`` for each rational constraint t span the
    vectors ``(rat x + D y, exact x, x)``; the echelon basis rows whose
    constraint part is zero span those with vanishing constraints, and their
    tracker parts are the kernel (Cohen, GTM 138, section 2.4).  The
    projection onto x is injective, since D y = 0 forces y = 0.  Constraint
    rows that vanish identically are dropped.
    """
    rat = [r for r in rat_rows if any(r)]
    cons = rat + [r for r in exact_rows if any(r)]
    m = len(cons)
    rows = [[r[i] for r in cons] + [int(t == i) for t in range(n)] for i in range(n)]
    rows += [[D * (t == i) for t in range(m)] + [0] * n for i in range(len(rat))]
    echelon = _echelon(rows, m + n)
    return _hermite_basis([list(b[m:]) for b in echelon if not any(b[:m])], n)


def kernel_lattice_basis(sigma: Cocycle, positions: list[int], rows) -> list[tuple[int, ...]]:
    """Hermite normal form basis of the lattice of vectors supported on
    positions whose listed rows vanish."""
    D, rat_w, sym_ws = _integer_constraints(sigma, positions, rows)
    return integer_kernel(D, rat_w, [r for w in sym_ws for r in w], len(positions))


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


def box_solution_array(sigma: Cocycle, positions: list[int], height: int, rows):
    """All nonzero vectors in the box whose listed rows vanish, in
    lexicographic order, in the smallest type that holds -2 * height - 3.

    Meet-in-the-middle (Horowitz & Sahni, J. ACM 1974) on the constraints
    of ``_integer_constraints``: a vector solves them iff the int64 keys of
    its halves agree (rational parts mod D, symbolic parts exactly, the left
    half negated).  A stable lexsort of both halves' keys lists each key's
    left rows, then its right rows; the run number is the key's dense code,
    and a left row's matches are a range of the right rows sorted by code.
    No key wraps while height times each half's absolute row sum stays
    below 2**63; past that, or when D does not fit, `BudgetExceededError`.
    """
    import numpy as np

    D, rat_rows, sym_rows = _integer_constraints(sigma, positions, rows)
    n, half = len(positions), len(positions) // 2
    weights = rat_rows + [r for w in sym_rows for r in w] or [[0] * n]  # no rows: one zero key matches all
    limit, reach = 1 << 63, max(height, 1)  # an entry must fit even in a one-point box
    halves = (slice(half), slice(half, n))
    if D >= limit or any(reach * sum(map(abs, w[cut])) >= limit for w in weights for cut in halves):
        raise BudgetExceededError(f"the box scan's int64 keys would overflow at height {height}")
    W = np.array(weights, dtype=np.int64)
    left, right = _grid(half, height), _grid(n - half, height)
    keys = np.concatenate([-(left @ W[:, :half].T), right @ W[:, half:].T])
    keys[:, : len(rat_rows)] %= D

    order = np.lexsort(keys.T)
    ranked = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    run = new.cumsum()
    code = np.empty_like(run)
    code[order] = run
    on_right = order >= len(left)
    rorder, rcode, lcode = order[on_right] - len(left), run[on_right], code[: len(left)]
    lo, hi = rcode.searchsorted(lcode), rcode.searchsorted(lcode, side="right")
    counts = hi - lo
    ends = counts.cumsum()
    # left rows in index order, each with its matches in index order: the
    # pairs come out lexicographically.  They are written one contiguous row
    # per position (fast to gather), then transposed into the result.
    cols = np.empty((n, ends[-1]), dtype=left.dtype)
    cols[:half] = left.T.repeat(counts, axis=1)
    cols[half:] = np.take(right.T, rorder[np.arange(ends[-1]) + (lo - ends + counts).repeat(counts)], axis=1)
    # negation keeps the solutions and reverses their order: zero is the middle one
    z = ends[-1] // 2
    out = np.empty((ends[-1] - 1, n), dtype=left.dtype)
    out[:z], out[z:] = cols[:, :z].T, cols[:, z + 1 :].T
    return out


def _srow_entry(sigma: Cocycle, j: int, k: int) -> Angle | None:
    """Signed entry of the antisymmetrized matrix at row k, column j, as an
    angle; None when it is zero."""
    if j > k:
        return sigma.entry_angle(k, j)
    entry = sigma.entry_angle(j, k)
    return None if entry is None else negate_angle(entry)


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

    if base.kind == "trivial":
        return RegularityReport(g, "regular", rule="symmetric_cocycle")

    if base.kind == "bs" and sub.name == "center":
        a_exp, _ = G.exponents(g)
        if base.lam.scale(G.n * a_exp).is_zero():
            return RegularityReport(g, "regular", rule="central_twist_vanishes_on_power")
        return RegularityReport(g, "not_regular", witness=G.b_power(G.n))

    if base.kind == "f2xz" and sub.name == "z":
        if base.character(g.data[0]).is_zero():
            return RegularityReport(g, "regular", rule="character_vanishes_on_word")
        return RegularityReport(g, "not_regular", witness=G.pair((), 1))

    if base.kind == "lift" and sub.name == "base":
        x, k = g.data
        if k != 0 and G.icc:
            return RegularityReport(g, "regular", rule="no_nontrivial_commuting_base_elements")
        if k == 0:
            inner_report = is_sigma_regular(base.base, sub.inner.element(x), radius, node_budget)
            return _pullback_report(inner_report, g, sub)

    if base.kind == "sanov" and sub.name == "base":
        return _sanov_base_regularity(base, g, sub)

    return _searched_report(sigma, g, sub.ball(radius, node_budget), radius)


def _pullback_report(inner: RegularityReport, g: Element, sub: Subgroup) -> RegularityReport:
    witness = sub.embed(inner.witness) if inner.witness is not None else None
    return replace(inner, subject=g, witness=witness)


def _sanov_base_regularity(base: Cocycle, g: Element, sub: Subgroup) -> RegularityReport:
    """Commuting lattice vectors are the fixed vectors of the word's matrix,
    the integer kernel of M - I."""
    (u, x) = g.data
    if x == ():
        inner = is_sigma_regular(base.restrict("base"), sub.inner.element(tuple(u)))
        return _pullback_report(inner, g, sub)
    act = base.group.act
    (a, c), (b, d) = act(x, (1, 0)), act(x, (0, 1))  # the columns of the word's matrix
    gens = integer_kernel(1, [], [[a - 1, b], [c, d - 1]], 2)
    if not gens:
        return RegularityReport(g, "regular", rule="no_fixed_lattice_vectors")
    for w in gens:
        val = base.mu0.scale(u[0] * w[1] - u[1] * w[0]) * base.g(w, x)
        if not val.is_zero():
            return RegularityReport(g, "not_regular", witness=sub.embed(sub.inner.element(w)))
    return RegularityReport(g, "regular", rule="twist_vanishes_on_fixed_vectors")


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
    G.check(sub.ambient.identity())  # the payloads below are composed unchecked
    mul, inv, kd, td = G._mul, G._inv, k.data, t.data
    ki = inv(kd)
    out = {mul(mul(mul(mul(kd, s.data), ki), td), inv(s.data)) for s in sub.ball(radius, node_budget)}
    return tuple(G.sorted_elements(out))


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
    return replace(inner, subject=t, detail=f"via k^-1 t = {shifted!r}")
