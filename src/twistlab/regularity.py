"""Regularity deciders: absolute, relative to a subgroup, and relative to (k,H).

A "regular" answer is only ever produced by a certificate rule (the condition
quantifies over infinite sets, so search alone cannot prove it); searches can
refute with an exact witness or report the exhausted radius.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cached_property, partial
from itertools import accumulate, compress, repeat
from typing import NamedTuple

from .cocycles import Cocycle, nth_prime
from .errors import BudgetExceededError, SpecError
from .groups import DEFAULT_NODE_BUDGET, Element, Subgroup, commuting_ball, intern, resolve_subgroup
from .phase import Angle, Phase, negate_angle


class RegularityReport(NamedTuple):
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
# row tables for the bilinear families
# ---------------------------------------------------------------------------


def certified_row_range(sigma: Cocycle, support: list[int]) -> range | None:
    """Row indices that provably cover every regularity constraint: the
    rows within the bilinear cocycle's `row_reach` of the support, or None
    when its reach is unbounded."""
    w = sigma.row_reach
    if w is None:
        return None
    lo = min(support) if support else 0
    hi = max(support) if support else 0
    return range(lo - w, hi + w + 1)


class RowTable:
    """An n-column matrix of angles, and what regularity derives from it.

    `D` and `parts` are its entries as plain ints over their least common
    denominator D: the matrix's rational part and one part per symbol,
    each a list of rows.  `constraints` and `kernel` are derived on their
    first read.  For a sum-family cocycle the matrix is its antisymmetrized
    matrix at (positions, rows), and ``_row_table`` keeps the record on
    the cocycle, so a caller must not change what it reads.
    """

    def __init__(self, matrix: list[list[Angle | None]], nsym: int, n: int):
        D = math.lcm(1, *(a[2] for row in matrix for a in row if a is not None))
        zero = (0,) * (1 + nsym)
        scaled = [[zero if a is None else (a[0] * (m := D // a[2]), *(c * m for c in a[1])) for a in row] for row in matrix]
        self.D, self.n = D, n
        self.parts = [[tuple(e[i] for e in row) for row in scaled] for i in range(1 + nsym)]

    @cached_property
    def constraints(self) -> tuple[int, list[list[int]], list[list[list[int]]]]:
        """The rows as integer constraints on integer vectors x.

        Every row angle ``row . x`` vanishes mod 1 iff ``rat_w x = 0 (mod
        D')`` and ``w x = 0`` for each ``w`` in ``sym_ws``: the rational
        parts are scaled to their least common denominator D', and each
        symbol's coefficients to that symbol's least common denominator, so
        the ints stay as small as the entries allow.  The result is (D',
        rat_w, sym_ws), all plain Python ints.

        Only the rows that carry information are kept (``_spanning_rows``):
        a rational row that enlarges the row module mod D' (none when D' =
        1) and a symbol row that raises its symbol's rank.  They are a
        subset of the scaled rows, never combinations, so no entry grows,
        and the solutions are the same.  A repeated row never does, so each
        is read once.
        """
        D, parts = self.D, self.parts
        matrix = list(dict.fromkeys(zip(*parts)))  # the rows, each with all its parts

        def scaled(i):
            den = math.lcm(1, *{D // math.gcd(v, D) for row in matrix for v in row[i]})
            return den, [[v * den // D for v in row[i]] for row in matrix]

        D_rat, rat_w = scaled(0)
        sym_ws = [
            _spanning_rows(scaled(i)[1], self.n, None)
            for i in range(1, len(parts))
            if any(any(row[i]) for row in matrix)
        ]
        return D_rat, _spanning_rows(rat_w, self.n, D_rat), sym_ws

    @cached_property
    def kernel(self) -> list[tuple[int, ...]]:
        """Hermite normal form basis of the lattice of integer vectors at
        which every row angle vanishes (``integer_kernel``)."""
        D, rat_w, sym_ws = self.constraints
        return integer_kernel(D, rat_w, [r for w in sym_ws for r in w], self.n)


def _row_table(sigma: Cocycle, positions: tuple[int, ...], rows: tuple[int, ...]) -> RowTable:
    """The `RowTable` of the antisymmetrized matrix of a structural
    sum-family cocycle at the listed rows and position columns.

    It is kept on `sigma`, whose entry angles are fixed when it is built,
    so a warm session derives each of its fields once per (positions,
    rows)."""
    return intern(
        vars(sigma).setdefault("_tables", {}),
        (positions, rows),
        lambda: RowTable(
            [[_srow_entry(sigma, j, k) for j in positions] for k in rows], len(sigma.symbols), len(positions)
        ),
    )


def _window_table(sigma: Cocycle, window: int) -> RowTable:
    """The `RowTable` of a structural sum-family cocycle of finite reach at
    the positions [-window, window] and their certified rows."""
    positions = tuple(range(-window, window + 1))
    return _row_table(sigma, positions, tuple(certified_row_range(sigma, positions)))


def _row_sums(sigma: Cocycle, positions: tuple[int, ...], rows: Sequence[int], values: tuple[int, ...]):
    """The listed rows of the antisymmetrized form of a structural
    sum-family cocycle applied to the vector with `values` at `positions`,
    read from its ``_row_table``: D, then iterators over the rows of their
    rational numerators mod D and, per symbol, of their coefficients.  The
    iterators compute a row as it is read, so a search that stops at a
    nonzero row computes none after it."""
    table = _row_table(sigma, positions, tuple(rows))
    D = table.D
    rat, *syms = (map(sum, map(map, repeat(operator.mul), part, repeat(values))) for part in table.parts)
    return D, (r % D for r in rat), syms


def _support(sigma: Cocycle, x: Element) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The positions and values of an element of a sum family, for a
    structural cocycle of a bilinear kind."""
    if sigma.kind == "theta":
        return tuple(j for j, _ in x.data), tuple(v for _, v in x.data)
    if sigma.kind == "bitstream":
        return x.data, (1,) * len(x.data)
    raise SpecError("row images are defined for the bilinear sum-family cocycles")


def _prime_rule_witness(sigma: Cocycle, x: Element) -> tuple[Element, Phase]:
    """Nonzero row for the prime-reciprocal matrix: pick a row beyond the
    support whose prime denominators exceed the coefficient mass."""
    G = sigma.group
    positions, values = _support(sigma, x)
    total = sum(map(abs, values))
    m = 1
    while nth_prime(m) <= total:
        m += 1
    while True:
        k = positions[-1] + m
        D, rat, _ = _row_sums(sigma, positions, (k,), values)  # the rule's angles carry no symbol
        if r := next(rat):
            return G.basis_element(k), sigma.phase((r, (), D))
        m += 1  # unreachable for nonzero x; kept as a safety net


# ---------------------------------------------------------------------------
# free-group roots (centralizers in free products of the word families)
# ---------------------------------------------------------------------------


def free_root(word: bytes) -> tuple[bytes, int]:
    """Primitive root: the reduced code word r and d >= 1 with word = r^d."""
    # cyclically reduce: word = c * v * c^{-1} with c the first k letters
    n, k = len(word), 0
    while n - 2 * k >= 2 and word[k] == word[n - 1 - k] ^ 1:
        k += 1
    v = word[k : n - k]
    for d in range(len(v), 0, -1):
        if len(v) % d == 0 and v == v[: len(v) // d] * d:
            return word[:k] + v[: len(v) // d] + word[n - k :], d
    return word, 1


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
        positions, values = _support(base, g)
        # a finite quotient of the line has one row per index below its modulus
        rows = range(G.modulus) if G.finite else certified_row_range(base, positions)
        D, rat, syms = _row_sums(base, positions, rows, values)
        bad = next((row for row in zip(rows, rat, *syms) if any(row[1:])), None)
        if bad is None:
            return RegularityReport(g, "regular", rule="t_kernel_rows_vanish")
        k, r, *cs = bad
        detail = f"row phase {base.phase((r, tuple(cs), D))!r}" if theta else ""  # a bitstream row is always 1/2
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
        if not x:
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


def _free_times_z_witness(G, root: bytes, j: int, l: int) -> Element:
    """(root^j, l), multiplied out by the group law."""
    step = (root, 0) if j >= 0 else G._inv((root, 0))
    data = (b"", l)
    for _ in range(abs(j)):
        data = G._mul(data, step)
    return G.element(data)


# ---------------------------------------------------------------------------
# regular vectors in a box (kernel of the row map)
# ---------------------------------------------------------------------------


def regular_vectors_box_raw(sigma: Cocycle, window: int, height: int):
    """Raw coordinate rows (array for the integer family, index tuples for
    the bit family) of the nonzero regular vectors in the box, plus True.

    The flag is always set: every bilinear cocycle but the prime-reciprocal
    rule has a finite reach, so its certified rows cover every constraint,
    and that rule has no nonzero regular vector."""
    base = sigma.structural()
    positions = range(-window, window + 1)
    if base.kind == "theta":
        if base.rule == "prime_reciprocal":
            import numpy as np

            return np.empty((0, len(positions)), dtype=np.int64), True
        return _box_rows(*_box_match(_window_table(base, window), height)), True
    if base.kind == "bitstream":
        # the row parities of a support are the xor of its columns' parities,
        # each column held as one int with a bit per row
        (matrix,) = _window_table(base, window).parts
        columns = [sum(row[j] << i for i, row in enumerate(matrix)) for j in range(len(positions))]
        parity, found = [0] * (1 << len(positions)), []
        for mask in range(1, 1 << len(positions)):
            low = mask & -mask
            parity[mask] = parity[mask ^ low] ^ columns[low.bit_length() - 1]
            if not parity[mask]:
                found.append(tuple(p for i, p in enumerate(positions) if mask >> i & 1))
        return found, True
    raise SpecError("regular-vector scans apply to the bilinear sum families")


class BoxVectors(Sequence):
    """The regular vectors of a box as a read-only list of Elements, built
    only where they are read.

    `count` is their number, `rows` builds the payload rows in ``sort_key``
    order (the box array of the integer family, the index tuples of the bit
    family), and `export` builds the Element of one ordered row.  `len` and
    truth read the count and build no row; the first index, slice,
    iteration or comparison builds and orders the rows once.  An index, a
    slice (returned as a list) and iteration map `export` over the ordered
    rows they read, and the sequence equals any list or tuple of the same
    Elements.
    """

    def __init__(self, count: int, rows: Callable[[], Sequence], export: Callable[[object], Element]):
        self._count = count
        self._build = rows
        self._export = export

    @cached_property
    def _rows(self):
        return self._build()

    def __len__(self) -> int:
        return self._count

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
    entries bounded by height, in ``sort_key`` order, plus True (as
    ``regular_vectors_box_raw``).

    The vectors come as a `BoxVectors` sequence.  For the integer family it
    holds the scan's match, so a caller that reads the count builds no row
    and one that reads the first vector builds no other Element."""
    base = sigma.structural()
    G = base.group
    if base.kind == "theta" and base.rule != "prime_reciprocal":
        positions = list(range(-window, window + 1))
        match = _box_match(_window_table(base, window), height)

        def export(row) -> Element:
            vals = row.tolist()
            return Element(G, tuple(compress(zip(positions, vals), vals)))  # the (position, value) pairs with v != 0

        ordered = lambda: _sumz_sorted(G.sort_key, positions, height, _box_rows(*match))
        return BoxVectors(int(match[-1][-1]) - 1, ordered, export), True  # the zero vector is not counted
    raw, _ = regular_vectors_box_raw(sigma, window, height)
    return BoxVectors(len(raw), partial(sorted, raw, key=G.sort_key), partial(Element, G)), True


def _sumz_sorted(sort_key, positions: list[int], height: int, vals):
    """The rows of a ``_box_rows`` array in ``SumZ.sort_key`` order;
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
    supported in [-window, window] with entries bounded by height, plus True
    (as ``regular_vectors_box_raw``).

    For the integer family the regular vectors supported in the window are
    exactly one lattice L, the kernel of its certified rows
    (``RowTable.kernel``, derived once per window).  When every entry of its
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
        basis = _window_table(base, window).kernel
        if all(abs(v) <= height for vec in basis for v in vec):
            return elements(basis), True
    raw, _ = regular_vectors_box_raw(sigma, window, height)
    if base.kind == "theta":  # the first half of the rows is the second half negated
        return elements(_hermite_basis(raw[len(raw) // 2 :].tolist(), len(positions))), True
    return G.sorted_elements(_gf2_generators(raw, positions)), True


_GRIDS: dict = {}  # the read-only half grids of the box scan, by (ncols, height)


def _grid(ncols: int, height: int):
    """All integer vectors with entries in [-height, height], in
    lexicographic order, as a read-only array of ``_box_rows``'s type,
    built once per (ncols, height)."""
    import numpy as np

    def build():
        base = 2 * height + 1
        vals = np.arange(-height, height + 1, dtype=np.min_scalar_type(-2 * height - 3))
        out = np.empty((base,) * ncols + (ncols,), dtype=vals.dtype)
        for c in range(ncols):  # column c runs along axis c
            out[..., c] = vals.reshape((base,) + (1,) * (ncols - 1 - c))
        out.flags.writeable = False
        return out.reshape(base**ncols, ncols)

    return intern(_GRIDS, (ncols, height), build)


def _grid_dot(vals, w: list[int], const: int = 0):
    """``_grid(len(w), height) @ w + const`` as int64, for `vals` the int64
    range [-height, height]: one outer sum per column over the grid's
    product structure, without the grid."""
    import numpy as np

    out = vals * w[0] + const if w else np.array([const], dtype=np.int64)
    for c in w[1:]:
        out = (out[:, None] + vals * c).ravel()
    return out


def _spanning_rows(rows: list[list[int]], n: int, modulus: int | None) -> list[list[int]]:
    """The rows, in order, that each enlarge the span of the rows kept
    before them: the integer module mod `modulus`, or the row space over
    the rationals when `modulus` is None.

    Every row joins one echelon basis (``_insert``), which starts from
    ``modulus * Z^n`` when a modulus is given.  Mod `modulus` a row is kept
    when the lattice grows; over the rationals, when it gains a pivot.
    """
    basis = {} if modulus is None else {i: [modulus * (t == i) for t in range(n)] for i in range(n)}
    kept = []
    for row in rows:
        rank = len(basis)
        if _insert(basis, row) and (modulus is not None or len(basis) > rank):
            kept.append(row)
    return kept


def integer_kernel(D: int, rat_rows, exact_rows, n: int) -> list[tuple[int, ...]]:
    """Hermite normal form basis of {x in Z^n : rat x = 0 mod D, exact x = 0}.

    x lies in the lattice iff ``(rat x + D y, exact x)`` vanishes for some
    integer vector y.  The rows ``(c_i, e_i)``, with c_i column i of the
    constraints, and ``(D e_t, 0)`` for each rational constraint t span the
    vectors ``(rat x + D y, exact x, x)``; the Hermite basis rows whose
    constraint part is zero span those with vanishing constraints, and
    their tracker parts are the kernel's Hermite basis (Cohen, GTM 138,
    section 2.4).  The projection onto x is injective, since D y = 0
    forces y = 0.  Constraint rows that vanish identically are dropped.
    """
    rat = [r for r in rat_rows if any(r)]
    cons = rat + [r for r in exact_rows if any(r)]
    m = len(cons)
    rows = [[r[i] for r in cons] + [int(t == i) for t in range(n)] for i in range(n)]
    rows += [[D * (t == i) for t in range(m)] + [0] * n for i in range(len(rat))]
    return [b[m:] for b in _hermite_basis(rows, m + n) if not any(b[:m])]


def _insert(basis: dict[int, list[int]], row) -> bool:
    """Add an integer row, in place, to an echelon basis held as {pivot
    column: row}, and say whether the lattice grew (Cohen, GTM 138, §2.4).

    At a pivot p the row's entry x is cleared by a multiple of the basis
    row b when p divides x, else by one unimodular step: with s p + t x =
    g = gcd(p, x), b becomes s b + t r, of pivot g, and r becomes
    (p r - x b) / g.  The row goes on to its next nonzero column; a free
    column takes it, made positive, as a new pivot.
    """
    r, grew = list(row), False
    for col in range(len(r)):
        x = r[col]
        if not x:
            continue
        b = basis.get(col)
        if b is None:
            basis[col] = r if x > 0 else [-v for v in r]
            return True
        p = b[col]
        if x % p:
            t, s = _ext_gcd(x, p)  # p > 0 keeps every remainder, and so g, positive
            g = s * p + t * x
            basis[col] = [s * u + t * v for u, v in zip(b, r)]
            r, grew = [p // g * v - x // g * u for u, v in zip(b, r)], True
        else:
            q = x // p
            for j in range(col, len(r)):  # both rows vanish before col
                r[j] -= q * b[j]
    return grew


def _hermite_basis(rows: list[list[int]], n: int) -> list[tuple[int, ...]]:
    """Hermite normal form: the echelon basis of the rows (``_insert``) with
    every entry above a pivot reduced into [0, pivot)."""
    basis: dict[int, list[int]] = {}
    for row in rows:
        _insert(basis, row)
    pivots = sorted(basis)
    for i, col in enumerate(pivots):
        b = basis[col]
        for a in map(basis.get, pivots[:i]):
            q = a[col] // b[col]
            for t in range(col, n):
                a[t] -= q * b[t]
    return [tuple(basis[col]) for col in pivots]


def _box_match(table: RowTable, height: int) -> tuple:
    """Meet-in-the-middle (Horowitz & Sahni, J. ACM 1974) on the constraints
    of a ``RowTable``: a vector solves them iff the key columns of its
    halves agree (rational parts mod D, symbolic parts exactly, the left
    half negated).  The key columns give one int64 key per half-row; the
    right keys are sorted by one stable argsort, and a left row's matches
    are its `searchsorted` range there.

    A rational column has span D.  A symbolic column w is at most b =
    max(height, 1) * max(sum(|w|) over the left half, over the right half)
    in absolute value on either half, so it has span 2b + 1.  When the
    product of the spans, taken in Python ints, is below 2**63, the columns
    fold into one mixed-radix key, the last column most significant: the
    symbolic columns as one coefficient vector per half, so that their key
    is one product with the half's grid (``_grid_dot``), and each rational
    column reduced mod D, times its stride.  The folded coefficients, and
    every partial sum of the product, stay below the span product, since b
    bounds a column even in a one-point box.  Otherwise a half-row's key is
    the dense rank of its key columns over both halves, stacked last column
    first, so that the ranks keep the fold's order.  The keys are sorted in
    the smallest unsigned type that holds their span (numpy sorts keys of
    16 bits or less by radix).  No column entry wraps while b, taken for
    every row, rational ones included, stays below 2**63; past that, or
    when D does not fit, `BudgetExceededError`.

    The match is the two read-only half grids (``_grid``), the right rows
    in key order, and each left row's first match there (for a left row
    without one, the number of right keys below its key), number of
    matches and running total of matches.  The total counts the zero
    vector, which matches itself.
    """
    import numpy as np

    D, rat_rows, sym_rows = table.constraints
    n, half = table.n, table.n // 2
    W = rat_rows + ([r for w in sym_rows for r in w] or ([] if rat_rows else [[0] * n]))  # no rows: one zero key matches all
    nrat, limit, reach = len(rat_rows), 1 << 63, max(height, 1)  # an entry must fit even in a one-point box
    bounds = [reach * max(sum(map(abs, w[:half])), sum(map(abs, w[half:]))) for w in W]
    if D >= limit or max(bounds) >= limit:
        raise BudgetExceededError(f"the box scan's int64 keys would overflow at height {height}")
    spans = [D] * nrat + [2 * b + 1 for b in bounds[nrat:]]
    strides = list(accumulate(spans, operator.mul, initial=1))
    coeffs = [sum(map(operator.mul, strides[nrat:], col[nrat:])) for col in zip(*W)]  # the symbolic columns' fold
    offset = sum(map(operator.mul, strides[nrat:], bounds[nrat:]))  # b per column: no folded key is negative
    halves = ((slice(0, half), -1), (slice(half, n), 1))  # cut, sign
    vals = np.arange(-height, height + 1, dtype=np.int64)

    def column(c: int, cut: slice, sign: int):
        """Key column c over one half."""
        key = _grid_dot(vals, [sign * v for v in W[c][cut]])
        return key % D if c < nrat else key

    def fold(cut: slice, sign: int):
        """The mixed-radix key of one half."""
        key = _grid_dot(vals, [sign * v for v in coeffs[cut]], offset)
        for c in range(nrat):
            key += column(c, cut, sign) * strides[c]
        return key

    span = strides[-1]
    if span < limit:
        key = np.concatenate([fold(*h) for h in halves])
    else:
        columns = [np.concatenate([column(c, *h) for h in halves]) for c in reversed(range(len(W)))]
        distinct, key = np.unique(np.stack(columns, axis=1), axis=0, return_inverse=True)
        span = len(distinct)

    left, right = _grid(half, height), _grid(n - half, height)
    key = key.astype(np.min_scalar_type(span - 1))
    rkey = key[len(left) :]
    rorder = rkey.argsort(kind="stable")
    ranked = rkey[rorder]
    lo = ranked.searchsorted(key[: len(left)])
    counts = ranked.searchsorted(key[: len(left)], side="right") - lo
    return left, right, rorder, lo, counts, counts.cumsum()


def _box_rows(left, right, rorder, lo, counts, ends):
    """The nonzero solutions of a ``_box_match`` as one array, a row each,
    in the smallest type that holds -2 * height - 3.

    Left rows in index order, each with its matches in index order: the
    pairs come out lexicographically.  They are written one contiguous row
    per position (fast to gather), then transposed into the result."""
    import numpy as np

    half, total = left.shape[1], ends[-1]
    cols = np.empty((half + right.shape[1], total), dtype=left.dtype)
    cols[:half] = left.T.repeat(counts, axis=1)
    cols[half:] = np.take(right.T, rorder[np.arange(total) + (lo - ends + counts).repeat(counts)], axis=1)
    # negation keeps the solutions and reverses their order: zero is the middle one
    z = total // 2
    out = np.empty((total - 1, len(cols)), dtype=left.dtype)
    out[:z], out[z:] = cols[:, :z].T, cols[:, z + 1 :].T
    return out


def _srow_entry(sigma: Cocycle, j: int, k: int) -> Angle | None:
    """Signed entry of the antisymmetrized matrix at row k, column j, as an
    angle; None when it is zero."""
    if j > k:
        return sigma.entry_angle(k, j)
    entry = sigma.entry_angle(j, k)
    return None if entry is None else negate_angle(entry)


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
        return RegularityReport(g, "not_regular", witness=G.pair(b"", 1))

    if sub.name == "base" and (h := sub.project(g)) is not None:
        # g lies in the base subgroup: decide it there and pull the report back
        inner = is_sigma_regular(base.restrict("base"), h, radius, node_budget)
        witness = sub.embed(inner.witness) if inner.witness is not None else None
        return inner._replace(subject=g, witness=witness)

    if base.kind == "lift" and sub.name == "base" and G.icc:
        return RegularityReport(g, "regular", rule="no_nontrivial_commuting_base_elements")

    if base.kind == "sanov" and sub.name == "base":
        return _sanov_base_regularity(base, g, sub)

    return _searched_report(sigma, g, sub.ball(radius, node_budget), radius)


def _sanov_base_regularity(base: Cocycle, g: Element, sub: Subgroup) -> RegularityReport:
    """Commuting lattice vectors are the fixed vectors of the word's matrix,
    the integer kernel of M - I."""
    (u, x) = g.data
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
    return inner._replace(subject=t, detail=f"via k^-1 t = {shifted!r}")
