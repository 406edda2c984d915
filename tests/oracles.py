"""Independent oracles used by the tests.

These deliberately avoid the library's own decision paths: the regular-vector
scan below evaluates every candidate's row image by direct arithmetic
(vectorized), and the norm oracles are closed forms or dense linear algebra.
"""

from __future__ import annotations

import math
import random
import zlib
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from twistlab._kernels import bs_normalize
from twistlab.cocycles import CoboundaryFn, Cocycle
from twistlab.errors import BudgetExceededError, SpecError
from twistlab.families.bs_nn import BaumslagSolitarNN
from twistlab.families.free import FreeGroup
from twistlab.families.free_times_z import FreeTimesZ
from twistlab.families.sanov import Sanov, sanov_act
from twistlab.families.sum_z import SumZ, ThetaCocycle
from twistlab.families.sum_z2 import BitstreamCocycle, SumZ2
from twistlab.families.zn_semidirect import _mat_mul
from twistlab.groups import DEFAULT_NODE_BUDGET, Element, Subgroup, resolve_subgroup
from twistlab.growth import _phi1, _phi2
from twistlab.phase import Phase, phase_angles, quarter_turns
from twistlab.regularity import _row_sums, _support, certified_row_range
from twistlab.spectral import ExactnessLost, convolve_sigma
from twistlab.words import word_to_string


def srow_phase(sigma: ThetaCocycle, j: int, k: int) -> Phase:
    """Signed entry of the antisymmetrized matrix (row k, column j)."""
    if j > k:
        return sigma.entry(k, j)
    if j < k:
        return sigma.entry(j, k).inverse()
    return Phase(0)


def brute_force_regular_vectors(
    sigma: ThetaCocycle, window: int, height: int, rows: list[int]
) -> np.ndarray:
    """Scan every vector in the box and keep those whose listed rows vanish.

    Each candidate is evaluated directly: integerized rational parts tested
    modulo a per-row denominator, symbolic coefficients tested for exact zero.
    The scan is exhaustive over all (2*height+1)^(2*window+1) candidates,
    vectorized over one half of the coordinates with row-by-row early exit.
    Returns the surviving nonzero vectors, lexicographically sorted.
    """
    positions = list(range(-window, window + 1))
    ncols = len(positions)
    symbols = sorted(
        {s for k in rows for j in positions for s, _ in srow_phase(sigma, j, k).irr}
    )

    # per-row integer weight matrices
    row_data = []
    for k in rows:
        phases = [srow_phase(sigma, j, k) for j in positions]
        denom = math.lcm(*(p.rational.denominator for p in phases), 1)
        rat = np.array([int(p.rational * denom) for p in phases], dtype=np.int64)
        syms = []
        for s in symbols:
            sden = math.lcm(*(dict(p.irr).get(s, Fraction(0)).denominator for p in phases), 1)
            syms.append(
                np.array([int(dict(p.irr).get(s, Fraction(0)) * sden) for p in phases], dtype=np.int64)
            )
        row_data.append((denom, rat, syms))

    half = ncols // 2
    vals = np.arange(-height, height + 1, dtype=np.int64)
    base = len(vals)

    # enumerate the right half densely
    right_n = base ** (ncols - half)
    idx = np.arange(right_n)
    right = np.empty((right_n, ncols - half), dtype=np.int64)
    for c in range(ncols - half):
        right[:, ncols - half - 1 - c] = vals[(idx // (base**c)) % base]

    # drop rows that hold identically (denominator 1 with no symbol part)
    row_data = [rd for rd in row_data if rd[0] > 1 or rd[2]]

    # right-half contributions of every row, computed once up front
    right_parts = [
        (right @ rat[half:], [right @ sw[half:] for sw in syms])
        for _denom, rat, syms in row_data
    ]

    blocks = []
    acc = [0] * half

    def left_vectors(i):
        if i == half:
            yield tuple(acc)
            return
        for v in vals:
            acc[i] = int(v)
            yield from left_vectors(i + 1)

    for lvec in left_vectors(0):
        larr = np.array(lvec, dtype=np.int64)
        alive = None  # None means "all candidates"
        for (denom, rat, syms), (rpart, sparts) in zip(row_data, right_parts):
            lval = int(rat[:half] @ larr)
            if alive is None:
                ok = (rpart + lval) % denom == 0
                for sw, sp in zip(syms, sparts):
                    sl = int(sw[:half] @ larr)
                    ok &= sp + sl == 0
                alive = np.flatnonzero(ok)
            else:
                if alive.size == 0:
                    break
                ok = (rpart[alive] + lval) % denom == 0
                for sw, sp in zip(syms, sparts):
                    sl = int(sw[:half] @ larr)
                    ok &= sp[alive] + sl == 0
                alive = alive[ok]
        if alive is None:
            alive = np.arange(right_n)
        if alive.size:
            block = np.empty((alive.size, ncols), dtype=np.int64)
            block[:, :half] = larr
            block[:, half:] = right[alive]
            blocks.append(block)
    if not blocks:
        return np.empty((0, ncols), dtype=np.int64)
    out = np.concatenate(blocks, axis=0)
    out = out[(out != 0).any(axis=1)]
    return out[np.lexsort(out.T[::-1])]


def scaled_constraint_rows(sigma: ThetaCocycle, positions: list[int], rows: list[int]):
    """Every listed row of the antisymmetrized matrix as integer rows:
    ``(D, rational rows, {symbol: rows})``, the rational parts over their
    least common denominator D and each symbol's coefficients over that
    symbol's, one integer row per matrix row."""
    phases = [[srow_phase(sigma, j, k) for j in positions] for k in rows]
    flat = [p for row in phases for p in row]
    D = math.lcm(1, *(p.rational.denominator for p in flat))
    rat = [[int(p.rational * D) for p in row] for row in phases]
    syms = {}
    for s in sorted({s for p in flat for s, _ in p.irr}):
        den = math.lcm(1, *(dict(p.irr).get(s, Fraction(0)).denominator for p in flat))
        syms[s] = [[int(dict(p.irr).get(s, Fraction(0)) * den) for p in row] for row in phases]
    return D, rat, syms


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


def _gcdext(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and a x + b y = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _echelon_rows(rows: list[list[int]]) -> list[list[int]]:
    """Echelon basis (pivot columns increasing) of the integer span of a few
    rows, by extended-gcd row insertion into a basis keyed by pivot column.

    At a taken pivot the basis row b and the inserted row r become
    x b + y r, whose pivot is g = gcd(b_c, r_c), and (b_c r - r_c b) / g,
    which vanishes there and moves on to its next pivot: a unimodular
    change, so the span is kept.  This is also the library's algorithm
    (``regularity._insert``); the lattice tests stay independent of it
    through the brute-force enumerations they compare with and the
    vectorised saturation of ``integer_span_reduce``.
    """
    basis: dict[int, list[int]] = {}
    for row in rows:
        r = list(row)
        while any(r):
            col = next(i for i, v in enumerate(r) if v)
            b = basis.get(col)
            if b is None:
                basis[col] = r
                break
            g, x, y = _gcdext(b[col], r[col])
            u, v = b[col] // g, r[col] // g
            basis[col] = [x * p + y * q for p, q in zip(b, r)]
            r = [u * q - v * p for p, q in zip(b, r)]
    return [basis[col] for col in sorted(basis)]


def _reduce_rows(rows: np.ndarray, basis: list[list[int]]) -> np.ndarray:
    """Residuals of every row after floor-division reduction by an echelon
    basis, one pivot at a time; a row is in the span iff its residual is 0
    (at each pivot a member's entry is an exact multiple of the pivot)."""
    res = np.array(rows, dtype=np.int64)
    for b in basis:
        col = next(i for i, v in enumerate(b) if v)
        q = res[:, col] // b[col]
        for t, v in enumerate(b):
            if v:
                res[:, t] -= q * v
    return res


def integer_span_reduce(basis_rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Reduce target rows modulo the integer row span of basis_rows.

    The span of basis_rows is echelonized here by saturation: every row of
    basis_rows is reduced by the current echelon basis at once
    (vectorized), and the first nonzero residual joins the basis.  Each
    round strictly enlarges the spanned lattice, and the loop ends only
    when every row of basis_rows reduces to zero, so no row is skipped.
    The insertion (``_echelon_rows``) is the library's algorithm; the
    lattice tests stay independent through this saturation check, which
    tests every row against the finished basis rather than one row at a
    time, and through the brute-force enumerations they compare with.
    Returns the residual matrix of the targets: all-zero rows are members
    of the span.
    """
    n = targets.shape[1]
    rows = np.asarray(basis_rows, dtype=np.int64).reshape(-1, n)
    basis: list[list[int]] = []
    while True:
        res = _reduce_rows(rows, basis)
        left = np.flatnonzero(res.any(axis=1))
        if left.size == 0:
            break
        basis = _echelon_rows(basis + [[int(x) for x in res[left[0]]]])
    return _reduce_rows(targets, basis)


def brute_force_regular_bits(
    sigma: BitstreamCocycle, window: int, rows: list[int]
) -> set[tuple[int, ...]]:
    positions = list(range(-window, window + 1))
    out = set()
    for mask in range(1, 1 << len(positions)):
        data = tuple(p for i, p in enumerate(positions) if mask >> i & 1)
        good = True
        for k in rows:
            count = sum(sigma.epsilon(abs(j - k)) for j in data if j != k)
            if count % 2:
                good = False
                break
        if good:
            out.add(data)
    return out


def path_graph_norm(num_vertices: int) -> float:
    """Closed form for the adjacency norm of a path graph."""
    return 2.0 * math.cos(math.pi / (num_vertices + 1))


def tree_ball_adjacency_norm(rank: int, radius: int) -> float:
    """Adjacency norm of the radius-R Cayley ball of the free group of a rank.

    The ball's Perron vector is constant on spheres, so the norm is the top
    eigenvalue of the (R+1)x(R+1) radial matrix on normalized sphere
    indicators: off-diagonal sqrt(2*rank) between spheres 0 and 1, then
    sqrt(2*rank - 1).
    """
    off = [math.sqrt(2 * rank)] + [math.sqrt(2 * rank - 1)] * (radius - 1)
    radial = np.diag(off, 1)
    return float(np.linalg.eigvalsh(radial + radial.T)[-1])


def dense_matrix(op) -> np.ndarray:
    """Dense array of a truncated operator, filled from its COO arrays with
    `np.add.at` (scipy-free, and not through the code under test)."""
    dense = np.zeros((op.size, op.size), dtype=np.complex128)
    np.add.at(dense, (op.rows, op.cols), op.vals)
    return dense


def dense_operator_norm(op) -> float:
    """Dense two-norm oracle of a truncated operator (plain numpy svd)."""
    return float(np.linalg.norm(dense_matrix(op), 2))


def bfs_ball(G, radius: int) -> set:
    """Elements of word length at most radius: a breadth-first search with
    ``compose`` over the generators and their inverses.  The sum families
    use the basis elements of their index window, [-radius, radius] or
    every index below the modulus, with their inverses."""
    if isinstance(G, SumZ):
        gens = [G.basis_element(i, v) for i in range(-radius, radius + 1) for v in (1, -1)]
    elif isinstance(G, SumZ2):
        window = range(G.modulus) if G.modulus is not None else range(-radius, radius + 1)
        gens = [G.basis_element(i) for i in window]
    else:
        gens = G.generators()
    seen = {G.identity()}
    frontier = [G.identity()]
    for _ in range(radius):
        nxt = []
        for g in frontier:
            for s in gens:
                h = G.compose(g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# the circle group on Fractions: a reference for Phase's integer arithmetic
# ---------------------------------------------------------------------------


def fraction_combination(*terms) -> tuple[Fraction, tuple[tuple[str, Fraction], ...]]:
    """sum n * angle over (n, (rational, {symbol: coefficient})) pairs with n
    rational, in Fractions, as the canonical (rational mod 1, sorted nonzero
    (symbol, coefficient) pairs) that ``Phase.rational`` and ``Phase.irr``
    read.  Each angle enters at its rational part mod 1, the representative
    a Phase scales.  p * q, p.inverse() and p.scale(c) are its (1, p),
    (1, q); (-1, p); and (c, p)."""
    rat = Fraction(0)
    irr: dict[str, Fraction] = {}
    for n, (r, coeffs) in terms:
        rat += Fraction(n) * (Fraction(r) % 1)
        for sym, c in coeffs.items():
            irr[sym] = irr.get(sym, Fraction(0)) + Fraction(n) * Fraction(c)
    return rat % 1, tuple(sorted((s, c) for s, c in irr.items() if c))


def crc_coboundary(group, basis=None) -> CoboundaryFn:
    """b(g) = crc32(repr(g.data)) mod 7 / 7 and b(e) = 0: a fixed, scattered
    function to twist a cocycle by.  With `basis`, b(g) is that number times
    the symbol "r" instead, a symbolic coboundary over that basis."""
    e = group.identity()

    def b(g):
        if g == e:
            return Phase(0)
        c = Fraction(zlib.crc32(repr(g.data).encode()) % 7, 7)
        return Phase(0, {"r": c}, basis) if basis else Phase(c)

    return CoboundaryFn(group, b, basis)


# ---------------------------------------------------------------------------
# cocycle reference evaluators: the defining formulas in Fraction arithmetic
# ---------------------------------------------------------------------------


def _terms(*terms) -> Phase:
    """The phase sum of n * p over (n, p) pairs, with n rational, computed
    on the Fractions of each p's rational part and symbol coefficients."""
    rat = Fraction(0)
    irr: dict[str, Fraction] = {}
    for n, p in terms:
        rat += Fraction(n) * p.rational
        for sym, c in p.irr:
            irr[sym] = irr.get(sym, Fraction(0)) + Fraction(n) * c
    return Phase(rat % 1, {s: c for s, c in irr.items() if c})


_SANOV_MATS = {
    1: ((1, 2), (0, 1)),
    -1: ((1, -2), (0, 1)),
    2: ((1, 0), (2, 1)),
    -2: ((1, 0), (-2, 1)),
}


def sanov_word_matrix(word) -> tuple:
    """The Sanov matrix of a word: the product of its letters' matrices."""
    M = ((1, 0), (0, 1))
    for x in letters(word):
        M = _mat_mul(M, _SANOV_MATS[x])
    return M


def sanov_reference(mu0: Phase, mu1: Phase, mu2: Phase, a, b) -> Phase:
    """sigma((u,x),(v,y)) = mu0 * det(u, x.v)/2 + g(v, x), where g adds
    mu1 * a_1 for each letter v1 and mu2 * a_2 for each letter v2 of the
    word, at the vector a moved by the letters after it, and subtracts them
    for inverse letters at the vector moved by that letter too."""
    (u, x), (v, _y) = a, b
    w = sanov_act(x, v)
    terms = [(Fraction(u[0] * w[1] - u[1] * w[0], 2), mu0)]
    vec = tuple(v)
    for letter in reversed(letters(x)):
        if letter < 0:
            vec = sanov_act(code_word((letter,)), vec)
        mu, coord = (mu1, 0) if abs(letter) == 1 else (mu2, 1)
        terms.append((vec[coord] if letter > 0 else -vec[coord], mu))
        if letter > 0:
            vec = sanov_act(code_word((letter,)), vec)
    return _terms(*terms)


def bs_reference(G, lam: Phase, g, h) -> Phase:
    """lam to the power (b-exponent of g) * (a-exponent of h), read from
    the abelianization."""
    return _terms((G.exponents(g)[1] * G.exponents(h)[0], lam))


def f2xz_reference(G, mu: Phase, nu: Phase, g, h) -> Phase:
    """sigma((x,m),(y,n)) = m * (a-exponent of y * mu + b-exponent of y * nu)."""
    m = g.data[1]
    w = letters(h.data[0])  # counted letter by letter, apart from the library's count
    oa = sum((x == 1) - (x == -1) for x in w)
    ob = sum((x == 2) - (x == -2) for x in w)
    return _terms((m * oa, mu), (m * ob, nu))


def theta_diag_reference(diagonals, period, g, h) -> Phase:
    """The sum of x_j y_k theta_(k-j) over j < k, where theta_m is the m-th
    diagonal, then the period repeated."""
    def theta(m: int) -> Phase:
        if m <= len(diagonals):
            return diagonals[m - 1]
        return period[(m - 1 - len(diagonals)) % len(period)] if period else Phase(0)

    return _terms(*((xj * yk, theta(k - j)) for j, xj in g.data for k, yk in h.data if j < k))


# ---------------------------------------------------------------------------
# word groups: whole-word normal forms, tuple keys and Element-level loops
# ---------------------------------------------------------------------------


def letters(word: bytes) -> tuple[int, ...]:
    """The signed letters of a code word: byte 2k is +k, byte 2k + 1 is -k."""
    return tuple(-(c // 2) if c % 2 else c // 2 for c in word)


def code_word(signed) -> bytes:
    """The code word of a sequence of signed letters, as it stands."""
    return bytes(2 * x if x > 0 else 1 - 2 * x for x in signed)


def reduce_letters(signed) -> bytes:
    """Free reduction with a stack of signed letters, then encoded."""
    stack: list[int] = []
    for x in signed:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return code_word(stack)


def bs_concat_product(ca: int, wa: tuple, cb: int, wb: tuple, n: int) -> tuple:
    """The BS(n,n) product by renormalising the whole concatenated word."""
    c, w = bs_normalize(tuple(wa) + tuple(wb), n)
    return ca + cb + c, w


def letter_exponents(G: BaumslagSolitarNN, data) -> tuple[int, int]:
    """(a-exponent, b-exponent) of a BS(n,n) normal form, counted letter by
    letter in its word."""
    ls = letters(G.to_letters(data))
    return ls.count(1) - ls.count(-1), ls.count(2) - ls.count(-2)


def bs_letter_inverse(G: BaumslagSolitarNN, data) -> tuple:
    """The inverse normal form through letters: the reversed word with every
    letter inverted, parsed again."""
    inverse = code_word(-x for x in reversed(letters(G.to_letters(data))))
    return G.word(word_to_string(inverse)).data


def tuple_word_key(word: bytes) -> tuple:
    """Shortlex key of a code word as a tuple of (generator, inverse flag)
    pairs, read from its decoded letters."""
    ls = letters(word)
    return (len(ls), tuple((abs(x), 0 if x > 0 else 1) for x in ls))


def tuple_sort_key(G, data) -> tuple:
    """The canonical key of a word-family payload, built on tuple_word_key."""
    if isinstance(G, FreeGroup):
        return tuple_word_key(data)
    if isinstance(G, Sanov):
        u, x = data
        return (abs(u[0]) + abs(u[1]) + len(x), tuple_word_key(x), (abs(u[0]), abs(u[1]), u))
    if isinstance(G, FreeTimesZ):
        w, k = data
        return (len(w) + abs(k), abs(k), 0 if k >= 0 else 1, tuple_word_key(w))
    if isinstance(G, BaumslagSolitarNN):
        return tuple_word_key(G.to_letters(data))
    raise TypeError(f"{G.family} is not a word family")


_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _phase_exact(p: Phase) -> tuple:
    """A quarter-turn phase as its Gaussian unit; ExactnessLost otherwise."""
    q = quarter_turns(phase_angles([p])[2][0])
    if q is None:
        raise ExactnessLost
    return _UNITS[q]


def convolution_power(f, n: int, sigma, budget: int = DEFAULT_NODE_BUDGET):
    """f convolved with itself n times, one factor at a time."""
    out = f
    for _ in range(n - 1):
        out = convolve_sigma(f, out, sigma, budget)
    return out


def convolve_reference(f, xi, sigma, budget: int) -> dict | None:
    """Exact twisted convolution over Elements: compose, and sigma.eval read
    as a power of i.  A dict of element -> (re, im) without zero sums, or
    None when some phase is not a quarter turn.  The support is counted as
    it grows and raises BudgetExceededError past `budget`."""
    G = f.group
    out: dict = {}
    for g, (a, b) in f.coeffs.items():
        for u, (c, d) in xi.coeffs.items():
            p = sigma.eval(g, u)
            turns = 4 * p.rational
            if p.irr or turns.denominator != 1:
                return None
            ur, ui = _UNITS[int(turns)]
            re, im = a * c - b * d, a * d + b * c
            term = (re * ur - im * ui, re * ui + im * ur)
            h = G.compose(g, u)
            old = out.get(h, (0, 0))
            out[h] = (old[0] + term[0], old[1] + term[1])
            if len(out) > budget:
                raise BudgetExceededError("reference support exceeded budget", nodes=len(out))
    return {h: v for h, v in out.items() if v != (0, 0)}


def float_convolve_reference(f, xi, sigma) -> dict:
    """Twisted convolution in floats over Elements: f(g) xi(u) times the
    complex value of sigma.eval(g, u), summed at g u."""
    G = f.group
    out: dict = {}
    for g, cf in f.coeffs.items():
        for u, cx in xi.coeffs.items():
            h = G.compose(g, u)
            out[h] = out.get(h, 0j) + complex(*cf) * complex(*cx) * sigma.eval(g, u).to_complex()
    return out


def class_by_compose(g, radius: int, ball: set | None = None) -> tuple:
    """{h g h^-1 : h in the radius ball}, by ``conjugate`` on Elements, in
    canonical order.  `ball` is ``bfs_ball(g.group, radius)`` if given."""
    G = g.group
    found = {G.conjugate(h, g) for h in ball or bfs_ball(G, radius)}
    return tuple(sorted(found, key=lambda e: G.sort_key(e.data)))


def commuting_by_compose(g, radius: int, ball: set | None = None) -> tuple:
    """The elements of the radius ball that commute with g, by ``compose``
    on Elements, in canonical order.  `ball` is ``bfs_ball(g.group,
    radius)`` if given."""
    G = g.group
    found = [h for h in ball or bfs_ball(G, radius) if G.compose(g, h) == G.compose(h, g)]
    return tuple(sorted(found, key=lambda e: G.sort_key(e.data)))


def relative_class_partial(k, t, subgroup, radius: int = 6, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple:
    """{(k.s) t s^{-1} : s in a subgroup ball} with k.s = k s k^{-1}."""
    G = k.group
    G.check(t)
    sub = subgroup if isinstance(subgroup, Subgroup) else resolve_subgroup(G, subgroup)
    G.check(sub.ambient.identity())  # the payloads below are composed unchecked
    mul, inv, kd, td = G._mul, G._inv, k.data, t.data
    ki = inv(kd)
    out = {mul(mul(mul(mul(kd, s.data), ki), td), inv(s.data)) for s in sub.ball(radius, node_budget)}
    return tuple(G.sorted_elements(out))


class RowImage(NamedTuple):
    rows: list[tuple[int, Phase]]
    certified: bool


def t_theta_image(sigma: Cocycle, x: Element, window: range | None = None) -> RowImage:
    """Phases of the antisymmetrized form of a bilinear sum-family cocycle
    against basis elements, read off the decider's row sums.

    x is regular iff every row vanishes; the result is certified when the
    cocycle's reach is finite, otherwise the caller must supply an explicit
    window and only those rows are evaluated.
    """
    base = sigma.structural()
    positions, values = _support(base, x)
    rows = certified_row_range(base, positions)
    certified = rows is not None
    if rows is None:
        if window is None:
            raise SpecError("this cocycle has unbounded bandwidth; an explicit row window is required")
        rows = window
    D, rat, syms = _row_sums(base, positions, rows, values)
    return RowImage([(k, base.phase((r, tuple(cs), D))) for k, r, *cs in zip(rows, rat, *syms)], certified)


def row_image_all_zero(image: RowImage) -> bool:
    """Every row of a `t_theta_image` vanishes."""
    return all(p.is_zero() for _, p in image.rows)


def phase_to_json(p: Phase) -> dict:
    """The phase literal that ``phase_from_json`` reads back as p."""
    out: dict = {"rat": [p.rational.numerator, p.rational.denominator]}
    if p.irr:
        out["irr"] = {s: [c.numerator, c.denominator] for s, c in p.irr}
    return out


def bitstream_parity(sigma_mu) -> CoboundaryFn:
    """b(x) = sigma_mu(x_even, x_odd) for a bitstream cocycle: splits x by index parity."""

    def fn(g) -> Phase:
        x0 = tuple(i for i in g.data if i % 2 == 0)
        x1 = tuple(i for i in g.data if i % 2 != 0)
        return sigma_mu.phase(sigma_mu._angle(x0, x1))

    return CoboundaryFn(sigma_mu.group, fn, sigma_mu.basis)


def finite_bandwidth_reference(sigma: ThetaCocycle) -> int | None:
    """The largest nonzero diagonal of a diagonal-constant theta cocycle
    whose period is zero; None for a window, a rule or a nonzero period."""
    if sigma.window is not None or sigma.rule is not None:
        return None
    if sigma.period and any(not p.is_zero() for p in sigma.period):
        return None
    w = 0
    for m, p in enumerate(sigma.diagonals, start=1):
        if not p.is_zero():
            w = m
    return w


def certified_row_range_reference(sigma, support: list[int]) -> range | None:
    """The rows that cover every regularity constraint of a theta or
    bitstream cocycle, read off its family fields kind by kind."""
    lo = min(support) if support else 0
    hi = max(support) if support else 0
    if sigma.kind == "theta":
        if sigma.rule is not None:
            return None
        if sigma.window is not None:
            span = max((k - j for (j, k) in sigma.window), default=0)
            return range(lo - span, hi + span + 1)
        w = finite_bandwidth_reference(sigma)
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


# ---------------------------------------------------------------------------
# sampled checks of the cocycle axioms
# ---------------------------------------------------------------------------


class CheckReport(NamedTuple):
    passed: bool
    checked: int
    counterexample: tuple | None = None
    certified: bool = False
    note: str = ""


def verify_cocycle_identity(
    sigma: Cocycle, samples: int = 1000, seed: int = 0, radius: int = 3
) -> CheckReport:
    """Exact check of sigma(g,h) sigma(gh,k) = sigma(h,k) sigma(g,hk) on
    pseudo-random triples from a ball."""
    G = sigma.group
    pool = G.ball(radius)
    rng = random.Random(seed)
    for i in range(samples):
        g, h, k = (rng.choice(pool) for _ in range(3))
        gh = G.compose(g, h)
        hk = G.compose(h, k)
        lhs = sigma.eval(g, h) * sigma.eval(gh, k)
        rhs = sigma.eval(h, k) * sigma.eval(g, hk)
        if lhs != rhs:
            return CheckReport(False, i + 1, (g, h, k))
    return CheckReport(True, samples)


def verify_normalization(sigma: Cocycle, samples: int = 200, seed: int = 0, radius: int = 3) -> CheckReport:
    G = sigma.group
    pool = G.ball(radius)
    rng = random.Random(seed)
    e = G.identity()
    for i in range(samples):
        g = rng.choice(pool)
        if not sigma.eval(g, e).is_zero() or not sigma.eval(e, g).is_zero():
            return CheckReport(False, i + 1, (g,))
    return CheckReport(True, samples)


def verify_invariance(sigma: Cocycle, samples: int = 200, seed: int = 0, window: int = 4) -> CheckReport:
    """Shift-invariance of a cocycle on one of the sum families.

    Diagonal-constant parameterizations are certified exactly on the
    integer index line (not around a modulus, where the shift wraps);
    otherwise the pairs of basis elements are checked (a window's declared
    entries first, as the natural witnesses) and then random pairs.
    """
    G = sigma.group
    if isinstance(sigma, (ThetaCocycle, BitstreamCocycle)) and sigma.invariant and not G.finite:
        return CheckReport(True, 0, certified=True, note="diagonal-constant parameters")
    if not isinstance(G, (SumZ, SumZ2)):
        raise SpecError("invariance checks apply to the sum families only")

    def shifted(g: Element) -> Element:
        return G.element(G.shift(g.data, 1))

    checked = 0
    pairs: list[tuple[Element, Element]] = []
    if isinstance(sigma, ThetaCocycle) and sigma.window is not None:
        pairs += [(G.basis_element(j), G.basis_element(k)) for j, k in sorted(sigma.window)]
    basis = [G.basis_element(i) for i in range(-window, window + 1)]
    pairs += [(x, y) for x in basis for y in basis]
    for x, y in pairs:
        checked += 1
        if sigma.eval(shifted(x), shifted(y)) != sigma.eval(x, y):
            return CheckReport(False, checked, (x, y))
    rng = random.Random(seed)
    pool = G.ball(3)
    for _ in range(samples):
        x, y = rng.choice(pool), rng.choice(pool)
        checked += 1
        if sigma.eval(shifted(x), shifted(y)) != sigma.eval(x, y):
            return CheckReport(False, checked, (x, y))
    return CheckReport(True, checked)


def check_cycle_invariance_all_pairs(G, base: Cocycle) -> None:
    """Refuse, as `WreathZ.check_lift_base` does, a base cocycle on the lamps
    of the finite wreath product G that changes under the cyclic shift:
    every one of the m² basis pairs is compared with its shift, in
    lexicographic order."""
    for j in range(G.m):
        for k in range(G.m):
            if base._angle((j,), (k,)) != base._angle(G.act(1, (j,)), G.act(1, (k,))):
                raise SpecError(
                    f"lift base is not invariant under the cyclic shift of {G.base_group().key}: "
                    f"it changes on the basis pair (e{j}, e{k})",
                    path="cocycle.base",
                )


# ---------------------------------------------------------------------------
# torus orbits, walked both ways
# ---------------------------------------------------------------------------


def _phi1_inv(a: tuple[Phase, Phase], nu1: Phase) -> tuple[Phase, Phase]:
    z1 = a[0] * nu1.inverse()
    return (z1, a[1] * z1.scale(2).inverse())


def _phi2_inv(a: tuple[Phase, Phase], nu2: Phase) -> tuple[Phase, Phase]:
    z2 = a[1] * nu2.inverse()
    return (a[0] * z2.scale(2).inverse(), z2)


def two_way_orbit_size(
    nu1: Phase, nu2: Phase | None, start: tuple[Phase, Phase], which: str, cap: int
) -> int | None:
    """The size of the orbit of `start` under the selected torus maps and
    their inverses, or None once it passes `cap`: a breadth-first walk
    that applies each map and its inverse to every point reached."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for a in frontier:
            images = []
            if which in ("phi1", "both"):
                images += [_phi1(a, nu1), _phi1_inv(a, nu1)]
            if which in ("phi2", "both") and nu2 is not None:
                images += [_phi2(a, nu2), _phi2_inv(a, nu2)]
            for b in images:
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
                    if len(seen) > cap:
                        return None
        frontier = nxt
    return len(seen)
