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
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .cocycles import Cocycle, sigma_tilde
from .errors import BudgetExceededError, ConfigurationError
from .groups import DEFAULT_NODE_BUDGET, Element, Group
from .phase import Phase

if TYPE_CHECKING:
    import scipy.sparse as sp

ExactC = tuple  # (re, im) with int or Fraction components

UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^k for the quarter turn k/4


def _num(v):
    """Exact scalar: ints stay ints, everything else becomes a Fraction."""
    return v if isinstance(v, int) else Fraction(v)


class ExactnessLost(Exception):
    """A phase outside the Gaussian units appeared on the exact path."""


def _phase_exact(p: Phase) -> ExactC:
    d = p.rational.denominator
    if p.irr or 4 % d:
        raise ExactnessLost
    return UNITS[p.rational.numerator * (4 // d)]


def _cmul(a: ExactC, b: ExactC) -> ExactC:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cadd(a: ExactC, b: ExactC) -> ExactC:
    return (a[0] + b[0], a[1] + b[1])


class FiniteFunction:
    """Finitely supported function on a group with complex or exact values."""

    def __init__(self, group: Group, coeffs: dict, exact: bool = False):
        self.group = group
        self.exact = exact
        clean = {}
        for g, c in coeffs.items():
            group.check(g)
            if exact:
                c = (_num(c[0]), _num(c[1]))
                if c != (0, 0):
                    clean[g] = c
            else:
                c = complex(c)
                if c != 0:
                    clean[g] = c
        self.coeffs = clean

    @classmethod
    def delta(cls, g: Element, coeff=1, exact: bool = True) -> FiniteFunction:
        if exact:
            if isinstance(coeff, tuple):
                return cls(g.group, {g: coeff}, exact=True)
            return cls(g.group, {g: (_num(coeff), 0)}, exact=True)
        return cls(g.group, {g: complex(coeff)}, exact=False)

    def support(self) -> list[Element]:
        return sorted(self.coeffs, key=lambda e: self.group.sort_key(e.data))

    def to_float(self) -> FiniteFunction:
        if not self.exact:
            return self
        return FiniteFunction(
            self.group, {g: complex(float(c[0]), float(c[1])) for g, c in self.coeffs.items()}
        )

    def abs_function(self) -> FiniteFunction:
        """Pointwise absolute value; stays exact when each |c| is rational."""
        if self.exact:
            try:
                out = {}
                for g, (re, im) in self.coeffs.items():
                    if im == 0:
                        out[g] = (abs(re), 0)
                    elif re == 0:
                        out[g] = (abs(im), 0)
                    else:
                        raise ExactnessLost
                return FiniteFunction(self.group, out, exact=True)
            except ExactnessLost:
                pass
        f = self.to_float()
        return FiniteFunction(f.group, {g: abs(c) for g, c in f.coeffs.items()})

    def l2_squared(self):
        if self.exact:
            total = 0
            for re, im in self.coeffs.values():
                total += re * re + im * im
            return total
        # products, not ** 2, so that a square past the float range is inf, not OverflowError
        return float(sum(c.real * c.real + c.imag * c.imag for c in self.coeffs.values()))

    def l2(self) -> float:
        return math.sqrt(float(self.l2_squared()))

    def l1(self) -> float:
        if self.exact:
            return float(sum(math.hypot(float(a), float(b)) for a, b in self.coeffs.values()))
        return float(sum(abs(c) for c in self.coeffs.values()))

    def weighted_l2(self, weight) -> float:
        """sqrt(sum |c(g) * weight(g)|^2)."""
        total = 0.0
        for g, c in self.coeffs.items():
            w = weight(g)
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
    if f.exact and xi.exact:
        try:
            out: dict = {}
            for g, cf in f.coeffs.items():
                for u, cx in xi.coeffs.items():
                    h = G.compose(g, u)
                    term = _cmul(_cmul(cf, cx), _phase_exact(sigma.eval(g, u)))
                    out[h] = _cadd(out[h], term) if h in out else term
                    if len(out) > budget:
                        raise BudgetExceededError("convolution support exceeded budget", nodes=len(out))
            return FiniteFunction(G, out, exact=True)
        except ExactnessLost:
            pass
    ff, xf = f.to_float(), xi.to_float()
    outf: dict = {}
    for g, cf in ff.coeffs.items():
        for u, cx in xf.coeffs.items():
            h = G.compose(g, u)
            outf[h] = outf.get(h, 0j) + cf * cx * sigma.eval(g, u).to_complex()
            if len(outf) > budget:
                raise BudgetExceededError("convolution support exceeded budget", nodes=len(outf))
    return FiniteFunction(G, outf)


def convolution_power(
    f: FiniteFunction, n: int, sigma: Cocycle, budget: int = DEFAULT_NODE_BUDGET
) -> FiniteFunction:
    out = f
    for _ in range(n - 1):
        out = convolve_sigma(f, out, sigma, budget)
    return out


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


@dataclass
class TruncatedOperator:
    group: Group
    radius: int
    index: dict[Element, int]
    matrix: sp.csr_matrix

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def build_truncated(
    f: FiniteFunction, sigma: Cocycle, radius: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> TruncatedOperator:
    """Compression of the twisted convolution operator of f to a Cayley ball.

    Columns are filled from the support of f when it is small; for wide
    supports (high convolution powers) the ball-pair sweep is cheaper.
    """
    import numpy as np
    import scipy.sparse as sp

    G = f.group
    ball = G.ball(radius, node_budget)
    index = {g: i for i, g in enumerate(ball)}
    rows, cols, vals = [], [], []
    ff = f.to_float()
    n = len(ball)
    if len(ff.coeffs) <= n:
        for u, col in index.items():
            for g, cf in ff.coeffs.items():
                h = G.compose(g, u)
                row = index.get(h)
                if row is not None:
                    rows.append(row)
                    cols.append(col)
                    vals.append(cf * sigma.eval(g, u).to_complex())
    else:
        inverses = {u: G.invert(u) for u in ball}
        for u, col in index.items():
            uinv = inverses[u]
            for h, row in index.items():
                g = G.compose(h, uinv)
                cf = ff.coeffs.get(g)
                if cf is not None:
                    rows.append(row)
                    cols.append(col)
                    vals.append(cf * sigma.eval(g, u).to_complex())
    matrix = sp.csr_matrix(
        (np.array(vals, dtype=np.complex128), (rows, cols)), shape=(n, n)
    )
    return TruncatedOperator(G, radius, index, matrix)


@dataclass
class NormReport:
    value: float
    converged: bool
    iterations: int
    size: int

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "converged": self.converged,
            "iterations": self.iterations,
            "ball_size": self.size,
        }


def operator_norm(
    matrix: sp.spmatrix,
    tol: float = 1e-8,
    seed: int = 0,
    restarts: int = 3,
    max_iter: int = 10**4,
) -> NormReport:
    """Largest singular value by power iteration on the normal operator,
    with random complex restarts.

    Each step carries y = M v forward, so it costs one product with M* and
    one with M; the estimate is ||M v|| for a unit vector v, a lower bound
    for the norm.  A run stops when two successive estimates differ by at
    most `tol` relative: `tol` bounds that step, not the distance to the
    norm, and `converged` says only that this test passed (a slowly
    converging run stops well short of the norm).  Further restarts run only
    while none has converged; `iterations` counts the steps taken.
    """
    import numpy as np

    n = matrix.shape[0]
    if n == 0 or matrix.nnz == 0:
        return NormReport(0.0, True, 0, n)
    # solve for 2^-shift M, whose largest part lies in [1/2, 1): the power of
    # two is exact, and the iterates can neither overflow nor underflow
    parts = matrix.data.view(np.float64)  # real and imaginary parts side by side
    shift = math.frexp(np.abs(parts).max())[1]
    if shift:
        matrix = matrix.copy()
        matrix.data = np.ldexp(parts, -shift).view(matrix.data.dtype)
    rep = _power_iteration(matrix, tol, seed, restarts, max_iter)
    try:
        rep.value = math.ldexp(rep.value, shift)
    except OverflowError:  # the norm itself exceeds the float range
        rep.value = math.inf
    return rep


def _power_iteration(matrix, tol: float, seed: int, restarts: int, max_iter: int) -> NormReport:
    import numpy as np

    n = matrix.shape[0]
    mh = matrix.getH().tocsr()
    rng = np.random.default_rng(seed)
    best = 0.0
    total_iters = 0
    for _ in range(restarts):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = matrix @ (v / np.linalg.norm(v))
        prev = 0.0
        for it in range(1, max_iter + 1):
            w = mh @ y
            nw = np.linalg.norm(w)
            if nw == 0.0:  # M v = 0: v lies in the kernel
                return NormReport(best, True, total_iters + it, n)
            y = matrix @ (w / nw)
            est = float(np.linalg.norm(y))
            if prev > 0 and abs(est - prev) <= tol * prev:
                return NormReport(max(best, est), True, total_iters + it, n)
            prev = est
        total_iters += max_iter
        best = max(best, prev)
    return NormReport(best, False, total_iters, n)


def truncated_norm(
    f: FiniteFunction,
    sigma: Cocycle,
    radius: int,
    tol: float = 1e-8,
    seed: int = 0,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> NormReport:
    """Certified lower bound for the twisted operator norm of f."""
    op = build_truncated(f, sigma, radius, node_budget)
    return operator_norm(op.matrix, tol=tol, seed=seed)


def truncated_norm_sequence(
    f: FiniteFunction,
    sigma: Cocycle,
    radius: int,
    tol: float = 1e-8,
    seed: int = 0,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[NormReport]:
    """`truncated_norm` at radii 1..radius from one operator.

    The compression to a smaller ball is the principal submatrix of the
    top-radius compression on that ball, taken in the ball's own order.
    """
    op = build_truncated(f, sigma, radius, node_budget)
    reports = []
    for r in range(1, radius):
        idx = [op.index[g] for g in op.group.ball(r, node_budget)]
        reports.append(operator_norm(op.matrix[idx][:, idx], tol=tol, seed=seed))
    reports.append(operator_norm(op.matrix, tol=tol, seed=seed))
    return reports


# ---------------------------------------------------------------------------
# growth of powers
# ---------------------------------------------------------------------------


@dataclass
class R2Report:
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
    the sequence ||a^n delta||^(1/n) and its last value as the estimate."""
    sq = []
    roots = []
    cur = f
    exact = True
    for n in range(1, n_max + 1):
        s = cur.l2_squared()
        sq.append(s)
        exact = exact and isinstance(s, (int, Fraction))
        roots.append(float(s) ** (1.0 / (2 * n)))
        if n < n_max:
            cur = convolve_sigma(f, cur, sigma, budget)
    return R2Report(sq, roots, roots[-1] if roots else 0.0, exact)


@dataclass
class DominationRow:
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
    float_tol: float = 1e-9,
) -> list[DominationRow]:
    """Compare ||a^n xi|| (twisted) against ||b^n |xi||| (plain, with |f|).

    Exact comparison of squared norms when both sides stay rational,
    otherwise a floating comparison with a small tolerance.
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
            ok = float(ls) <= float(rs) + float_tol
        rows.append(DominationRow(n, ls, rs, ok, exact))
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
    seen: dict[Element, tuple[int, ...]] = {}
    frontier: list[tuple[Element, tuple[int, ...]]] = [(G.identity(), ())]
    count = 0
    for _ in range(depth):
        nxt = []
        for prod, word in frontier:
            for i, s in enumerate(S):
                p = G.compose(prod, s)
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
    translate = None
    for g in group.ball(search_radius, node_budget):
        gF = [group.compose(g, x) for x in F]
        if len(set(gF)) < len(gF):
            continue
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
            if op.matrix.nnz == 0:
                stopped = "outside_ball"
                break
            proxy = operator_norm(op.matrix, seed=seed).value ** (1.0 / n)
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
