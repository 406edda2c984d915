"""Numerics for the twisted convolution algebra on a Cayley ball.

Exact arithmetic (Gaussian rationals) is used whenever the coefficients allow
it and all phases encountered are quarter-turn torsion; everything else runs
in double precision.  Truncated operators are compressions to a ball, so
their norms are certified lower bounds for the true operator norms.
"""

from __future__ import annotations

import cmath
import math
import random
from collections.abc import Iterator, Mapping
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from .cocycles import Cocycle, sigma_tilde
from .errors import BudgetExceededError, ConfigurationError
from .groups import DEFAULT_NODE_BUDGET, Element, Group
from .phase import quarter_turns

if TYPE_CHECKING:
    import numpy as np  # for annotations only

ExactC = tuple  # (re, im) with int or Fraction components

UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^k for the quarter turn k/4
DOMINATION_TOL = 1e-9  # slack of check_domination's float comparison when a side is not rational


def _num(v):
    """Exact scalar: ints stay ints, everything else becomes a Fraction."""
    return v if isinstance(v, int) else Fraction(v)


class ExactnessLost(Exception):
    """A phase outside the Gaussian units appeared on the exact path."""


def _cmul(a: ExactC, b: ExactC) -> ExactC:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


class Coeffs(Mapping):
    """Read-only view of a `FiniteFunction`'s coefficients keyed by Element.

    A lookup reads the payload of its key, iteration wraps each payload in
    the function's insertion order, and `len` builds nothing.  A key of
    another group is missing, as in a dict keyed by Element.
    """

    __slots__ = ("group", "_by_payload")

    def __init__(self, group: Group, by_payload: dict):
        self.group = group
        self._by_payload = by_payload

    def __len__(self) -> int:
        return len(self._by_payload)

    def __iter__(self) -> Iterator[Element]:
        return map(partial(Element, self.group), self._by_payload)

    def __getitem__(self, g: Element):
        if not (isinstance(g, Element) and g.group.key == self.group.key and g.data in self._by_payload):
            raise KeyError(g)
        return self._by_payload[g.data]


class FiniteFunction:
    """Finitely supported function on a group with complex or exact values.

    The coefficients are held by normal-form payload (`_coeffs`), so the
    convolution and the operator assembly read them without wrapping a
    group element; `coeffs` is their read-only view keyed by Element, and
    `support()` and `weighted_l2` build Elements as they return or weigh
    them.
    """

    def __init__(self, group: Group, coeffs: dict, exact: bool = False):
        self.group = group
        self.exact = exact
        clean = {}
        for g, c in coeffs.items():
            group.check(g)
            if exact:
                c = (_num(c[0]), _num(c[1]))
                if c != (0, 0):
                    clean[g.data] = c
            else:
                c = complex(c)
                if c != 0:
                    clean[g.data] = c
        self._coeffs = clean

    @classmethod
    def _trusted(cls, group: Group, coeffs: dict, exact: bool) -> FiniteFunction:
        """A function from payloads of `group` to values that are already
        nonzero and normalised, taken without the per-key checks."""
        out = cls.__new__(cls)
        out.group, out.exact, out._coeffs = group, exact, coeffs
        return out

    @property
    def coeffs(self) -> Coeffs:
        return Coeffs(self.group, self._coeffs)

    @classmethod
    def delta(cls, g: Element, coeff=1, exact: bool = True) -> FiniteFunction:
        if exact:
            if isinstance(coeff, tuple):
                return cls(g.group, {g: coeff}, exact=True)
            return cls(g.group, {g: (_num(coeff), 0)}, exact=True)
        return cls(g.group, {g: complex(coeff)}, exact=False)

    def support(self) -> list[Element]:
        return self.group.sorted_elements(self._coeffs)

    def to_float(self) -> FiniteFunction:
        if not self.exact:
            return self
        out = {}
        for d, (re, im) in self._coeffs.items():
            c = complex(float(re), float(im))
            if c != 0:  # a value below the float range rounds to zero
                out[d] = c
        return FiniteFunction._trusted(self.group, out, exact=False)

    def abs_function(self) -> FiniteFunction:
        """Pointwise absolute value; stays exact when each |c| is rational."""
        if self.exact:
            try:
                out = {}
                for d, (re, im) in self._coeffs.items():
                    if im == 0:
                        out[d] = (abs(re), 0)
                    elif re == 0:
                        out[d] = (abs(im), 0)
                    else:
                        raise ExactnessLost
                return FiniteFunction._trusted(self.group, out, exact=True)
            except ExactnessLost:
                pass
        f = self.to_float()
        return FiniteFunction._trusted(f.group, {d: complex(abs(c)) for d, c in f._coeffs.items()}, exact=False)

    def l2_squared(self):
        if self.exact:
            total = 0
            for re, im in self._coeffs.values():
                total += re * re + im * im
            return total
        # products, not ** 2, so that a square past the float range is inf, not OverflowError
        return float(sum(c.real * c.real + c.imag * c.imag for c in self._coeffs.values()))

    def l2(self) -> float:
        return math.sqrt(float(self.l2_squared()))

    def l1(self) -> float:
        if self.exact:
            return float(sum(math.hypot(float(a), float(b)) for a, b in self._coeffs.values()))
        return float(sum(abs(c) for c in self._coeffs.values()))

    def weighted_l2(self, weight) -> float:
        """sqrt(sum |c(g) * weight(g)|^2)."""
        total = 0.0
        for d, c in self._coeffs.items():
            w = weight(Element(self.group, d))
            mag = math.hypot(float(c[0]), float(c[1])) if self.exact else abs(c)
            term = mag * w  # a product, not ** 2, so that a huge weight gives inf, not OverflowError
            total += term * term
        return math.sqrt(total)


def convolve_sigma(
    f: FiniteFunction, xi: FiniteFunction, sigma: Cocycle, budget: int = DEFAULT_NODE_BUDGET
) -> FiniteFunction:
    """Twisted convolution: (f * xi)(gu) accumulates f(g) xi(u) sigma(g, u)."""
    G = f.group
    if xi.group.key != G.key or sigma.group.key != G.key:
        raise ConfigurationError("convolution operands live on different groups")
    angle, mul = sigma._angle, G._mul
    if f.exact and xi.exact:
        try:
            # out sums by payload; turned pairs g with f(g) * i^q for q = 0..3
            out: dict = {}
            turned = [(g, [_cmul(cf, unit) for unit in UNITS]) for g, cf in f._coeffs.items()]
            xs = xi._coeffs.items()
            for g, cfs in turned:
                for u, cx in xs:
                    q = quarter_turns(angle(g, u))
                    if q is None:
                        raise ExactnessLost
                    (a, b), (c, d) = cfs[q], cx
                    re, im = a * c - b * d, a * d + b * c
                    h = mul(g, u)
                    prev = out.get(h)
                    if prev is not None:
                        out[h] = (prev[0] + re, prev[1] + im)
                    else:
                        out[h] = (re, im)
                        if len(out) > budget:
                            raise BudgetExceededError("convolution support exceeded budget", nodes=len(out))
            for h in [h for h, c in out.items() if c == (0, 0)]:
                del out[h]
            return FiniteFunction._trusted(G, out, exact=True)
        except ExactnessLost:
            pass
    ff, xf = f.to_float(), xi.to_float()
    outf: dict = {}
    targets, coeffs, angles = [], [], []
    xs = list(xf._coeffs.items())
    for g, cf in ff._coeffs.items():
        for u, cx in xs:
            h = mul(g, u)
            if h not in outf:
                outf[h] = 0j
                if len(outf) > budget:
                    raise BudgetExceededError("convolution support exceeded budget", nodes=len(outf))
            targets.append(h)
            coeffs.append(cf * cx)
            angles.append(angle(g, u))
    for h, term in zip(targets, _times_phases(coeffs, sigma, angles)):
        outf[h] += term
    return FiniteFunction._trusted(G, {h: c for h, c in outf.items() if c != 0}, exact=False)


def _times_phases(coeffs: list[complex], sigma: Cocycle, angles: list) -> list[complex]:
    """coeffs[i] times the circle value of angles[i], each product taken in
    Python as ``coeff * Phase.to_complex()`` was."""
    return list(map(complex.__mul__, coeffs, sigma.complex_values(angles).tolist()))


def conjugation_bridge_check(sigma: Cocycle, g: Element, h: Element) -> bool:
    """Exact check that conjugating a point mass through the twisted
    translations produces the anti-symmetrized phase on the conjugated point."""
    G = sigma.group
    ginv = G.invert(g)
    # lambda(g)^{-1} delta_e = conj(sigma(g, g^{-1})) delta_{g^{-1}}
    coeff = sigma.eval(g, ginv).inverse()
    elem = ginv
    # apply lambda(h), then lambda(g): coefficient picks up sigma(a, x) at a.x
    coeff = coeff * sigma.eval(h, elem)
    elem = G.compose(h, elem)
    coeff = coeff * sigma.eval(g, elem)
    elem = G.compose(g, elem)
    return elem == G.conjugate(g, h) and coeff == sigma_tilde(sigma, g, h)


# ---------------------------------------------------------------------------
# truncated operators
# ---------------------------------------------------------------------------


class TruncatedOperator(NamedTuple):
    """Compression of a twisted convolution operator to a finite set of group
    elements, held as numpy COO arrays over their positions in `elements`:
    entry k is M[rows[k], cols[k]] = vals[k] (`intp`, `intp`, `complex128`),
    and no (row, col) pair repeats."""

    group: Group
    elements: tuple[Element, ...]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def restrict(self, positions: np.ndarray) -> TruncatedOperator:
        """Principal compression to the elements at `positions` (an integer
        array of distinct positions), in the order given."""
        import numpy as np

        pos = np.full(self.size, -1, dtype=np.intp)  # old position -> new one, -1 outside
        pos[positions] = np.arange(len(positions))
        rows, cols = pos[self.rows], pos[self.cols]
        keep = (rows >= 0) & (cols >= 0)
        elements = tuple(self.elements[i] for i in positions.tolist())
        return TruncatedOperator(self.group, elements, rows[keep], cols[keep], self.vals[keep])

    @property
    def matrix(self):
        """The operator as a `scipy.sparse.csr_matrix`, built on demand from
        the same arrays; the package's only use of scipy."""
        import scipy.sparse as sp

        return sp.csr_matrix((self.vals, (self.rows, self.cols)), shape=(self.size, self.size))


def build_truncated(
    f: FiniteFunction, sigma: Cocycle, radius: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> TruncatedOperator:
    """Compression of the twisted convolution operator of f to a Cayley ball.

    Columns are filled from the support of f when it is small; for wide
    supports (high convolution powers) the ball-pair sweep is cheaper.
    """
    import numpy as np

    G = f.group
    ball = G.ball(radius, node_budget)
    ff = f.to_float()
    if ff._coeffs:
        sigma.group.check(ball[0])
    # the sweep runs on payloads: `mul` is the group law on normal forms
    mul, angle = G._mul, sigma._angle
    at = {g.data: i for i, g in enumerate(ball)}
    support = list(ff._coeffs.items())
    rows, cols, coeffs, angles = [], [], [], []
    if len(support) <= len(ball):
        for col, u in enumerate(ball):
            ud = u.data
            for gd, cf in support:
                row = at.get(mul(gd, ud))
                if row is not None:
                    rows.append(row)
                    cols.append(col)
                    coeffs.append(cf)
                    angles.append(angle(gd, ud))
    else:
        coeff_of = dict(support)
        for col, u in enumerate(ball):
            ud, uinv = u.data, G._inv(u.data)
            for row, h in enumerate(ball):
                gd = mul(h.data, uinv)
                cf = coeff_of.get(gd)
                if cf is not None:
                    rows.append(row)
                    cols.append(col)
                    coeffs.append(cf)
                    angles.append(angle(gd, ud))
    return TruncatedOperator(
        G,
        ball,
        np.array(rows, dtype=np.intp),
        np.array(cols, dtype=np.intp),
        np.array(_times_phases(coeffs, sigma, angles), dtype=np.complex128),
    )


class NormReport:
    # `vector`, the unit x whose ||M x|| is `value`, warm-starts the next radius; == skips it
    __slots__ = ("value", "converged", "iterations", "size", "vector")

    def __init__(self, value: float, converged: bool, iterations: int, size: int, vector: np.ndarray | None = None):
        self.value, self.converged, self.iterations, self.size, self.vector = value, converged, iterations, size, vector

    def __eq__(self, other) -> bool:
        return type(other) is NormReport and self.to_json() == other.to_json()

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "converged": self.converged,
            "iterations": self.iterations,
            "ball_size": self.size,
        }


WARM_NOISE = 1e-3  # weight of the random start added to a warm start
BREAKDOWN = 1e-12  # a new Lanczos vector this small, relative to the Ritz value, ends the run
BLOCK = 32  # basis rows allocated at a time
REPASS = 0.7  # orthogonalise again when a pass leaves less than this share of the norm


def operator_norm(
    op: TruncatedOperator,
    tol: float = 1e-8,
    seed: int = 0,
    max_iter: int = 10**4,
    start: np.ndarray | None = None,
) -> NormReport:
    """Lower bound for the largest singular value of the operator, by
    Golub-Kahan-Lanczos bidiagonalisation with full reorthogonalisation
    (Golub & Kahan, SIAM J. Numer. Anal. B 1965).

    M and M* act through numpy alone (`_product`), on the entries as they
    are and with rows and columns swapped and values conjugated.  Step k costs
    one product with each and extends orthonormal bases with M V = U B,
    B upper bidiagonal; the Ritz value is the largest singular value of B.
    A run stops when two successive Ritz values differ by at most `tol`
    relative (`tol` bounds that step, not the distance to the norm), or at
    an exact breakdown, where the Krylov space is invariant; `converged`
    says only that it stopped so, and is false after `max_iter` steps.
    `iterations` counts the steps.  The value is ||M x|| for the unit Ritz
    vector x (kept as `vector`), one more product with M, not the Ritz
    value: so it stays a lower bound, up to rounding, even where the bases
    lose orthogonality.

    The start is a random complex vector drawn with `seed` by the standard
    library's generator; given `start`, the unit vector along `start` plus
    `WARM_NOISE` times that random vector.
    """
    import numpy as np

    n = op.size
    if op.nnz == 0:
        return NormReport(0.0, True, 0, n)
    # solve for 2^-shift M, whose largest part lies in [1/2, 1): the power of
    # two is exact, and the iterates can neither overflow nor underflow
    parts = op.vals.view(np.float64)  # real and imaginary parts side by side
    shift = math.frexp(np.abs(parts).max())[1]
    vals = np.ldexp(parts, -shift).view(np.complex128) if shift else op.vals
    apply = _product(op.rows, op.cols, vals, n)
    apply_h = _product(op.cols, op.rows, vals.conj(), n)
    v = np.frombuffer(random.Random(seed).randbytes(8 * n), dtype="<i4").astype(np.float64).view(np.complex128)
    v /= np.linalg.norm(v)
    if start is not None:
        v = start / np.linalg.norm(start) + WARM_NOISE * v
        v /= np.linalg.norm(v)
    value, converged, steps, x = _golub_kahan(apply, apply_h, v, tol, max_iter)
    try:
        value = math.ldexp(value, shift)
    except OverflowError:  # the norm itself exceeds the float range
        value = math.inf
    return NormReport(value, converged, steps, n, x)


def _product(rows, cols, vals, n: int):
    """x -> M x for the n x n matrix with entries (rows, cols, vals), in any
    order: one gather and one multiply over the entries, then one
    `bincount` that adds the real and imaginary part of each product into
    the two float slots of its row.  A row sums its entries in their order;
    rows without entries give zero.  The products are read as float pairs,
    which copies nothing: `bincount` would copy the strided `.real` and
    `.imag` views, and two calls took about 1.5 times as long (F2 radius 9,
    2-core machine)."""
    import numpy as np

    slots = np.stack((2 * rows, 2 * rows + 1), axis=1).ravel()

    def apply(x):
        return np.bincount(slots, (vals * x[cols]).view(np.float64), 2 * n).view(np.complex128)

    return apply


def _golub_kahan(apply, apply_h, v, tol: float, max_iter: int):
    """(||M x||, converged, steps, x) for the unit Ritz vector x of a
    Golub-Kahan-Lanczos run on M from the unit vector v.

    U and V hold the bases row by row and grow BLOCK rows at a time, up to
    n rows: after k steps they hold 2 k n complex numbers."""
    import numpy as np

    n = len(v)
    V = np.empty((min(n, BLOCK), n), dtype=np.complex128)
    U = np.empty_like(V)
    V[0] = v
    u = apply(v)
    alphas, betas = [], []
    sigma, k = 0.0, 0
    while True:
        u, alpha = _orthogonalise(u, U[:k])
        alphas.append(alpha)
        B = np.diag(alphas) + np.diag(betas, 1)
        prev, sigma = sigma, float(np.linalg.svd(B, compute_uv=False)[0])
        # alpha ~ 0 (exactly 0 at the first step): M v_k lies in the span of
        # U, so the Krylov space is invariant
        converged = alpha <= BREAKDOWN * prev or (prev > 0 and abs(sigma - prev) <= tol * prev)
        if converged or k + 1 >= max_iter:
            break
        U[k] = u / alpha
        w, beta = _orthogonalise(apply_h(U[k]) - alpha * V[k], V[: k + 1])
        if beta <= BREAKDOWN * sigma or k + 1 == n:  # M* u_k in the span of V, or V spans everything
            converged = True
            break
        if k + 1 == len(V):
            more = np.empty((min(n, len(V) + BLOCK) - len(V), n), dtype=np.complex128)
            V, U = np.concatenate((V, more)), np.concatenate((U, more))
        betas.append(beta)
        k += 1
        V[k] = w / beta
        u = apply(V[k]) - beta * U[k - 1]
    y = np.linalg.svd(B)[2][0]  # the top right singular vector of the real matrix B
    x = np.einsum("i,ij->j", y, V[: k + 1])
    x /= np.linalg.norm(x)
    return float(np.linalg.norm(apply(x))), converged, k + 1, x


def _orthogonalise(w, Q):
    """w minus its projection on the orthonormal rows of Q, and its norm.

    A second pass runs when the first removes most of w, where the first
    leaves rounding errors along Q (Daniel, Gragg, Kaufman & Stewart, Math.
    Comp. 1976).  The products are `vecdot` and a broadcast sum, which run
    on one thread: a BLAS matrix-vector product (`@`) spreads over OpenBLAS
    threads, and on a 2-core machine such a call took about 2.4 ms against
    0.13 ms on one thread.  The CLI runs OpenBLAS on one thread anyway; a
    library caller's process may not."""
    import numpy as np

    before = np.linalg.norm(w)
    for _ in range(2):
        w = w - (np.vecdot(Q, w)[:, None] * Q).sum(axis=0)
        after = float(np.linalg.norm(w))
        if after >= REPASS * before:
            break
        before = after
    return w, after


def truncated_norm(
    f: FiniteFunction,
    sigma: Cocycle,
    radius: int,
    tol: float = 1e-8,
    seed: int = 0,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> NormReport:
    """Certified lower bound for the twisted operator norm of f."""
    return operator_norm(build_truncated(f, sigma, radius, node_budget), tol=tol, seed=seed)


def truncated_norm_sequence(
    f: FiniteFunction,
    sigma: Cocycle,
    radius: int,
    tol: float = 1e-8,
    seed: int = 0,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[NormReport]:
    """`truncated_norm` at radii 1..radius from one operator.

    The compression to a smaller ball is the top-radius compression
    restricted to that ball's positions in the top ball: those whose entry
    radius (``Group.ball_entries``) is at most the smaller radius.  Each
    radius starts from the previous radius's Ritz vector, placed on the top
    ball by position and read back at the new ball's positions (the smaller
    ball need not be a prefix of the larger one).
    """
    import numpy as np

    op = build_truncated(f, sigma, radius, node_budget)
    entries = np.array(op.group.ball_entries(radius, node_budget)[1])
    reports, x = [], None  # x: the previous Ritz vector on the top ball's positions
    for r in range(1, radius):
        positions = np.flatnonzero(entries <= r)
        start = None if x is None else x[positions]
        reports.append(operator_norm(op.restrict(positions), tol=tol, seed=seed, start=start))
        if reports[-1].vector is not None:
            x = np.zeros(op.size, dtype=np.complex128)
            x[positions] = reports[-1].vector
    if radius > 0:  # radius 0 has no radii 1..radius
        reports.append(operator_norm(op, tol=tol, seed=seed, start=x))
    return reports


# ---------------------------------------------------------------------------
# growth of powers
# ---------------------------------------------------------------------------


class R2Report(NamedTuple):
    squared_norms: list
    roots: list[float]
    estimate: float
    exact: bool

    def to_json(self) -> dict:
        return {
            "squared_norms": [
                [v.numerator, v.denominator] if isinstance(v, Fraction) else v
                for v in self.squared_norms
            ],
            "roots": self.roots,
            "estimate": self.estimate,
            "exact": self.exact,
        }


def r2_estimate(
    f: FiniteFunction, sigma: Cocycle, n_max: int, budget: int = DEFAULT_NODE_BUDGET
) -> R2Report:
    """Norm growth of powers applied to the point mass at the identity:
    the sequence ||a^n delta||^(1/n) and its last value as the estimate.
    A root past the float range ends the sequence, as its last value, since
    every later power is past it too: so does a float squared norm past
    that range, while an exact one keeps a finite root."""
    sq = []
    roots = []
    cur = f
    exact = True
    for n in range(1, n_max + 1):
        s = cur.l2_squared()
        sq.append(s)
        exact = exact and isinstance(s, (int, Fraction))
        roots.append(_root(s, 2 * n))
        if not math.isfinite(roots[-1]):  # so is s
            break
        if n < n_max:
            cur = convolve_sigma(f, cur, sigma, budget)
    return R2Report(sq, roots, roots[-1] if roots else 0.0, exact)


def _root(s, k: int) -> float:
    """s^(1/k) as a float.  An exact s past the float range takes the root
    from the logarithms of its numerator and denominator; a root past that
    range too is infinite."""
    try:
        return float(s) ** (1.0 / k)
    except OverflowError:
        q = Fraction(s)
        try:
            return math.exp((math.log(q.numerator) - math.log(q.denominator)) / k)
        except OverflowError:
            return math.inf


class DominationRow(NamedTuple):
    n: int
    twisted_sq: object
    plain_sq: object
    ok: bool
    exact: bool


def check_domination(
    f: FiniteFunction,
    xi: FiniteFunction,
    sigma: Cocycle,
    n_max: int,
    budget: int = DEFAULT_NODE_BUDGET,
) -> list[DominationRow]:
    """Compare ||a^n xi|| (twisted) against ||b^n |xi||| (plain, with |f|).

    Exact comparison of squared norms when both sides stay rational,
    otherwise a floating comparison with slack `DOMINATION_TOL`.  A float
    squared norm past the float range ends the rows, as the last row.
    """
    from .cocycles import TrivialCocycle

    G = f.group
    plain = TrivialCocycle(G)
    af = f
    bf = f.abs_function()
    lhs = xi
    rhs = xi.abs_function()
    rows = []
    for n in range(1, n_max + 1):
        lhs = convolve_sigma(af, lhs, sigma, budget)
        rhs = convolve_sigma(bf, rhs, plain, budget)
        ls, rs = lhs.l2_squared(), rhs.l2_squared()
        exact = isinstance(ls, (int, Fraction)) and isinstance(rs, (int, Fraction))
        if exact:
            ok = ls <= rs
        else:
            ok = float(ls) <= float(rs) + DOMINATION_TOL
        rows.append(DominationRow(n, ls, rs, ok, exact))
        if not exact and not (math.isfinite(float(ls)) and math.isfinite(float(rs))):
            break
    return rows


# ---------------------------------------------------------------------------
# semifree sets and the stable-rank evidence pipeline
# ---------------------------------------------------------------------------


def semifree_check(
    S: list[Element], depth: int, budget: int = DEFAULT_NODE_BUDGET
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """True when formal products of at most `depth` factors from S are
    pairwise distinct; a failure returns two colliding factor sequences."""
    if not S:
        return True, None
    G = S[0].group
    for s in S:
        G.check(s)
    mul, factors = G._mul, [s.data for s in S]
    seen: dict = {}  # product payload -> its factor sequence
    frontier: list[tuple[object, tuple[int, ...]]] = [(G._identity_data(), ())]
    count = 0
    for _ in range(depth):
        nxt = []
        for prod, word in frontier:
            for i, s in enumerate(factors):
                p = mul(prod, s)
                w = word + (i,)
                if p in seen:
                    return False, (seen[p], w)
                seen[p] = w
                nxt.append((p, w))
                count += 1
                if count > budget:
                    raise BudgetExceededError("semifree check exceeded budget", nodes=count)
        frontier = nxt
    return True, None


def stable_rank_evidence(
    group: Group,
    sigma: Cocycle,
    F: list[Element],
    search_radius: int = 3,
    radius: int = 6,
    tol: float = 1e-2,
    seed: int = 0,
    samples: int = 3,
    depth: int = 5,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> dict:
    """Search for a translate gF that is semifree, then compare compressed
    spectral-radius proxies of functions supported on gF against their
    two-norms.  Evidence only; never a certified verdict.

    Each run squares its power up to f^16 and records `stopped`:
    "converged" (two proxies within `tol`), "max_power", "budget" (the
    power outgrew the node budget) or "outside_ball" (the compression of
    the power to the ball is zero, so it says nothing; no proxy is kept)."""
    for x in F:
        group.check(x)
    mul, payloads = group._mul, [x.data for x in F]
    translate = None
    for g in group.ball(search_radius, node_budget):
        # left translation is injective, so a repeated point of F fails the check at depth 1
        gF = [Element(group, mul(g.data, x)) for x in payloads]
        ok, _ = semifree_check(gF, depth, node_budget)
        if ok:
            translate = (g, gF)
            break
    if translate is None:
        return {
            "semifree_translate_found": False,
            "detail": f"no semifree translate of the {len(F)}-point set within radius {search_radius}",
        }
    g, gF = translate
    rng = random.Random(seed)
    runs = []
    for _ in range(samples):
        coeffs = {}
        for x in gF:
            angle = rng.random()
            coeffs[x] = cmath.exp(2j * cmath.pi * angle)
        f = FiniteFunction(group, coeffs)
        l2 = f.l2()
        proxies = []
        n = 1
        prev = None
        power = f
        stopped = "max_power"
        while n <= 16:
            if n > 1:  # f^n = f^(n/2) * f^(n/2)
                try:
                    power = convolve_sigma(power, power, sigma, node_budget)
                except BudgetExceededError:
                    stopped = "budget"
                    break
            op = build_truncated(power, sigma, radius, node_budget)
            if op.nnz == 0:
                stopped = "outside_ball"
                break
            proxy = operator_norm(op, seed=seed).value ** (1.0 / n)
            proxies.append({"n": n, "proxy": proxy})
            if prev is not None and abs(proxy - prev) <= tol * prev:
                stopped = "converged"
                break
            prev = proxy
            n *= 2
        runs.append(
            {
                "l2": l2,
                "proxies": proxies,
                "stopped": stopped,
                "final_proxy": proxies[-1]["proxy"] if proxies else None,
                "margin": (l2 - proxies[-1]["proxy"]) if proxies else None,
            }
        )
    return {
        "semifree_translate_found": True,
        "g": group.element_to_json(g),
        "translate": [group.element_to_json(x) for x in gF],
        "runs": runs,
    }
