"""Construction and evaluation of the supported 2-cocycle families.

Each family evaluates on payloads in integer angles (``phase.Angle``): a
numerator mod D and one integer coefficient per symbol of the cocycle's
`symbols`, over a denominator D that the constructor fixes from the
parameters (`den`).  The prime-reciprocal rule and coboundaries have
unbounded denominators (`den` is None), so each of their values carries its
own D.  ``Cocycle.eval`` returns the exact Phase of an angle for reports and
deciders; ``Cocycle.complex_values`` exports a batch of angles to complex
numbers in one numpy pass.  Normalization (trivial on the identity) and the
cocycle identity are checkable through the verification helpers at the
bottom of the module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigurationError, SpecError
from .groups import (
    REQUIRED,
    BaumslagSolitarNN,
    Element,
    FreeGroup,
    FreeTimesZ,
    Group,
    Sanov,
    Subgroup,
    SumZ,
    SumZ2,
    WreathZ,
    Zn,
    ZnSemidirectZ,
    _as_is,
    _int,
    _list,
    bs_exponent_sum,
    free_exponents,
    get_group,
    read_spec,
    resolve_subgroup,
    sanov_act,
)
from .phase import (
    ZERO,
    Angle,
    IrrationalBasis,
    Phase,
    _merge_bases,
    add_angles,
    angles_to_complex,
    negate_angle,
    phase_angles,
    phase_from_json,
    scale_angle,
)

_PRIMES = [2, 3, 5, 7, 11, 13]


def nth_prime(m: int) -> int:
    """1-indexed prime sequence."""
    while len(_PRIMES) < m:
        c = _PRIMES[-1] + 2
        while any(c % p == 0 for p in _PRIMES if p * p <= c):
            c += 2
        _PRIMES.append(c)
    return _PRIMES[m - 1]


class Cocycle:
    kind = "abstract"
    # the angles of `_angle`: over `den` (None when each value carries its
    # own denominator), with one coefficient per symbol in `symbols`
    den: int | None = 1
    symbols: tuple[str, ...] = ()
    basis: IrrationalBasis | None = None
    # the earlier `symbols` of a cocycle that `_own_angle` widened, by length
    _earlier: dict[int, tuple[str, ...]] = {}

    def __init__(self, group: Group):
        self.group = group

    def _fix(self, params, factor: int = 1) -> list[Angle]:
        """Fix `symbols`, `basis` and `den` (the parameters' common
        denominator times `factor`) and return the parameters' angles."""
        params = list(params)
        for p in params:
            self.basis = _merge_bases(self.basis, p.basis)
        self.symbols, self.den, angles = phase_angles(params, factor)
        return angles

    def _share(self, other: Cocycle) -> None:
        """Evaluate over the angles of `other`."""
        self.den, self.symbols, self.basis = other.den, other.symbols, other.basis

    def eval(self, g: Element, h: Element) -> Phase:
        self.group.check(g)
        self.group.check(h)
        return self._eval(g.data, h.data)

    def _eval(self, a, b) -> Phase:
        return self.phase(self._angle(a, b))

    def _angle(self, a, b) -> Angle:
        """sigma on two payloads, as an integer angle."""
        raise NotImplementedError("Cocycle._angle")

    def phase(self, angle: Angle) -> Phase:
        return Phase.of_angle(angle, self._earlier.get(len(angle[1]), self.symbols), self.basis)

    def _own_angle(self, p: Phase) -> Angle:
        """A Phase as an angle over its own denominator, first taking in its
        basis and symbols; `phase` and `complex_values` read angles over the
        earlier symbols by name."""
        if p.basis is not None and p.basis is not self.basis:
            self.basis = _merge_bases(self.basis, p.basis)
        if p.syms != self.symbols and not set(p.syms).issubset(self.symbols):
            self._earlier = {**self._earlier, len(self.symbols): self.symbols}
            self.symbols = tuple(sorted({*self.symbols, *p.syms}))
        return p.angle(p.den, self.symbols)

    def complex_values(self, angles):
        """The circle values of a batch of angles, as a numpy complex128
        array equal to their Phases' ``to_complex``."""
        if self._earlier:
            angles = [self.phase(a).angle(a[2], self.symbols) for a in angles]
        return angles_to_complex(angles, self.symbols, self.basis)

    def structural(self) -> Cocycle:
        """Unwrap similarity twists; verdict rules are similarity-invariant."""
        return self

    def restrict(self, subgroup_name: str) -> Cocycle:
        """sigma on one of the group's recognized subgroups, presented on
        the subgroup's own family."""
        sub = resolve_subgroup(self.group, subgroup_name)
        if sub.inner is None:
            raise SpecError("cannot restrict to the trivial subgroup")
        return self._restriction(sub) or RestrictedCocycle(self, sub)

    def _restriction(self, sub: Subgroup) -> Cocycle | None:
        """A family's closed form of its restriction to `sub`, or None."""
        return None


class TrivialCocycle(Cocycle):
    kind = "trivial"

    def _angle(self, a, b) -> Angle:
        return 0, (), 1

    def _restriction(self, sub: Subgroup) -> Cocycle:
        return TrivialCocycle(sub.inner)


# ---------------------------------------------------------------------------
# bilinear cocycles on the abelian sum families
# ---------------------------------------------------------------------------


class ThetaCocycle(Cocycle):
    """Upper-triangular bilinear cocycle on the countable free abelian group.

    Three parameterizations: an explicit finite window of entries, a
    diagonal-constant sequence (finitely many nonzero diagonals, optionally
    followed by a repeating block), or the named prime-reciprocal rule.
    Diagonal-constant parameterizations are shift-invariant by construction.
    """

    kind = "theta"

    def __init__(
        self,
        group: SumZ,
        diagonals: tuple[Phase, ...] = (),
        period: tuple[Phase, ...] | None = None,
        rule: str | None = None,
        window: dict[tuple[int, int], Phase] | None = None,
    ):
        super().__init__(group)
        if rule is not None and rule != "prime_reciprocal":
            raise SpecError(f"unknown theta rule {rule!r}", path="cocycle.rule")
        self.diagonals = tuple(diagonals)
        self.period = tuple(period) if period else None
        self.rule = rule
        self.window = dict(window) if window else None
        if self.window:
            for (j, k) in self.window:
                if j >= k:
                    raise SpecError(
                        f"theta entry ({j},{k}) lies on or below the diagonal",
                        path="cocycle.entries",
                    )
        if rule is not None:
            self.den = None
            return
        window = self.window or {}
        angles = iter(
            a if a[0] or any(a[1]) else None  # zero entries are skipped
            for a in self._fix([*self.diagonals, *(self.period or ()), *window.values()])
        )
        self._diag_angles = [next(angles) for _ in self.diagonals]
        self._period_angles = [next(angles) for _ in self.period or ()]
        self._window_angles = {jk: next(angles) for jk in window}

    def diagonal_value(self, m: int) -> Phase:
        """Value on the m-th superdiagonal (diagonal-constant modes; ZERO for a window)."""
        return ZERO if self.window is not None else self.entry(0, m)

    def entry(self, j: int, k: int) -> Phase:
        angle = self.entry_angle(j, k)
        return ZERO if angle is None else self.phase(angle)

    def entry_angle(self, j: int, k: int) -> Angle | None:
        """``entry(j, k)`` as an angle, None when it is zero."""
        if j >= k:
            return None
        if self.window is not None:
            return self._window_angles.get((j, k))
        m = k - j
        if self.rule is not None:
            return 1, (), nth_prime(m)
        if m <= len(self._diag_angles):
            return self._diag_angles[m - 1]
        if self._period_angles:
            return self._period_angles[(m - 1 - len(self._diag_angles)) % len(self._period_angles)]
        return None

    @property
    def invariant(self) -> bool:
        return self.window is None

    @property
    def finite_bandwidth(self) -> int | None:
        """Largest nonzero diagonal when that is finite, else None."""
        if self.window is not None or self.rule is not None:
            return None
        if self.period and any(not p.is_zero() for p in self.period):
            return None
        w = 0
        for m, p in enumerate(self.diagonals, start=1):
            if not p.is_zero():
                w = m
        return w

    def _angle(self, a, b) -> Angle:
        if self.rule is not None:
            return self._prime_angle(a, b)
        D = self.den
        k = 0
        cs = (0,) * len(self.symbols)
        for j, xj in a:
            for l, yl in b:
                if j < l:
                    t = self.entry_angle(j, l)
                    if t is not None:
                        n = xj * yl
                        k += t[0] * n
                        if cs:
                            cs = tuple(c + n * tc for c, tc in zip(cs, t[1]))
        return k % D, cs, D

    @staticmethod
    def _prime_angle(a, b) -> Angle:
        """The sum of x_j y_l / p_(l-j) over the product D of its primes."""
        k, D = 0, 1
        for j, xj in a:
            for l, yl in b:
                if j < l:
                    p = nth_prime(l - j)
                    if D % p:
                        k, D = k * p, D * p
                    k += xj * yl * (D // p)
        return k % D, (), D


def stream_bit(pre: tuple[int, ...], period: tuple[int, ...], m: int) -> int:
    """Bit m >= 1 of the stream of preperiod bits followed by the repeated
    period; 0 past the preperiod when there is no period."""
    if m <= len(pre):
        return pre[m - 1]
    if period:
        return period[(m - 1 - len(pre)) % len(period)]
    return 0


class BitstreamCocycle(Cocycle):
    """Plus/minus-one valued bilinear cocycle on the sum of order-two groups.

    The defining data is the support bitstream (preperiod bits followed by a
    repeating block); bit m gives the sign on the m-th superdiagonal.
    """

    kind = "bitstream"
    invariant = True  # diagonal-constant by construction
    den = 2

    def __init__(self, group: SumZ2, pre: tuple[int, ...] = (), period: tuple[int, ...] = ()):
        super().__init__(group)
        for name, bits in (("pre", pre), ("period", period)):
            if any(bit not in (0, 1) for bit in bits):
                raise SpecError("bitstream entries must be 0 or 1", path=f"cocycle.{name}")
        self.pre = tuple(pre)
        self.period = tuple(period)

    def epsilon(self, m: int) -> int:
        return stream_bit(self.pre, self.period, m)

    def _angle(self, a, b) -> Angle:
        count = 0
        for j in a:
            for k in b:
                if j < k:
                    count += self.epsilon(k - j)
        return count % 2, (), 2


class SkewFormCocycle(Cocycle):
    """A cocycle on Z^2 whose value is a power of the skew form x1 y2 - x2 y1.

    Each subclass defines ``skew_angle()``, the angle of sigma(x,y)/sigma(y,x)
    per unit of x1 y2 - x2 y1.
    """

    def __init__(self, group: Group):
        if not (isinstance(group, Zn) and group.n == 2):
            raise SpecError(f"{self.kind} requires a rank-2 lattice", path="cocycle")
        super().__init__(group)


class AntisymThetaCocycle(SkewFormCocycle):
    """theta * (x1 y2 - x2 y1) on rank-two integer vectors."""

    kind = "antisym_theta"

    def __init__(self, group: Zn, theta: Phase):
        super().__init__(group)
        self.theta = theta
        [self._theta] = self._fix([theta])

    def _angle(self, a, b) -> Angle:
        return scale_angle(self._theta, a[0] * b[1] - a[1] * b[0])

    def skew_angle(self) -> Phase:
        return self.theta.scale(2)


def _halved(a: Angle) -> Angle:
    """Half of a parameter's angle over a denominator that doubles the
    parameter's own, so that every entry is even."""
    k, cs, D = a
    return k // 2, tuple(c // 2 for c in cs), D


class HalfSkewCocycle(SkewFormCocycle):
    """Half-integer skew power cocycle on rank-two vectors.

    The angle of the parameter is scaled by (x1 y2 - x2 y1)/2; half-integer
    exponents are handled by exact rational scaling of the angle.
    """

    kind = "half_skew"

    def __init__(self, group: Zn, mu0: Phase):
        super().__init__(group)
        self.mu0 = mu0
        self._half = _halved(*self._fix([mu0], factor=2))

    def _angle(self, a, b) -> Angle:
        return scale_angle(self._half, a[0] * b[1] - a[1] * b[0])

    def skew_angle(self) -> Phase:
        return self.mu0


# ---------------------------------------------------------------------------
# lifts to semidirect products
# ---------------------------------------------------------------------------


class LiftCocycle(Cocycle):
    """Lift of an invariant base cocycle to the semidirect product:
    sigma((x,k),(y,l)) = sigma'(x, k.y).
    """

    kind = "lift"

    def __init__(self, group: WreathZ | ZnSemidirectZ, base: Cocycle):
        super().__init__(group)
        if isinstance(group, WreathZ):
            expected = group.base_group()
            if base.group.key != expected.key:
                raise SpecError(
                    f"lift base must live on {expected.key}, got {base.group.key}",
                    path="cocycle.base",
                )
            if isinstance(base, (ThetaCocycle, BitstreamCocycle)) and not base.invariant:
                raise SpecError(
                    "lift base must be shift-invariant (diagonal-constant)",
                    path="cocycle.base",
                )
            # around the m-cycle a diagonal-constant base need not be invariant;
            # a bilinear base is invariant exactly when every basis pair is
            for j in range(group.m or 0):
                for k in range(group.m):
                    if base._angle((j,), (k,)) != base._angle(group.act(1, (j,)), group.act(1, (k,))):
                        raise SpecError(
                            f"lift base is not invariant under the cyclic shift of {expected.key}: "
                            f"it changes on the basis pair (e{j}, e{k})",
                            path="cocycle.base",
                        )
        elif isinstance(group, ZnSemidirectZ):
            if not isinstance(base.group, Zn) or base.group.n != group.n:
                raise SpecError("lift base must live on the translation lattice", path="cocycle.base")
            if isinstance(base, SkewFormCocycle):
                from .groups import _det

                if _det(group.A) != 1:
                    raise SpecError(
                        "skew base cocycles are invariant only for determinant +1",
                        path="cocycle.base",
                    )
        else:
            raise SpecError("lift target must be a wreath or semidirect family", path="cocycle")
        self.base = base
        self._share(base)

    def _angle(self, a, b) -> Angle:
        (x, k), (y, _l) = a, b
        return self.base._angle(x, self.group.act(k, y))

    def _restriction(self, sub: Subgroup) -> Cocycle | None:
        return self.base if sub.name == "base" else None


# ---------------------------------------------------------------------------
# the Sanov semidirect product
# ---------------------------------------------------------------------------


class SanovCocycle(Cocycle):
    """Cocycle on Z^2 x| F2 determined by three circle parameters.

    sigma((u,x),(v,y)) = sigma0(u, x.v) * g(v, x) where sigma0 is the
    half-skew cocycle with parameter mu0 and g is the bihomomorphism fixed by
    g(e1,v1)=mu1, g(e2,v2)=mu2, g(e1,v2)=g(e2,v1)=1 together with the
    recursion g(a, wl) = g(l.a, w) g(a, l).
    """

    kind = "sanov"

    def __init__(self, group: Sanov, mu0: Phase, mu1: Phase, mu2: Phase):
        super().__init__(group)
        self.mu0 = mu0
        self.mu1 = mu1
        self.mu2 = mu2
        # sigma0 takes half the mu0 angle per unit of the skew form
        half0, self._mu1, self._mu2 = self._fix([mu0, mu1, mu2], factor=2)
        self._half0 = _halved(half0)
        self._zero = (0, (0,) * len(self.symbols), self.den)
        self._memo: dict[tuple, Angle] = {}

    def g(self, a: tuple[int, int], word: tuple[int, ...]) -> Phase:
        """The twisting function, computed by right-fold recursion with memoization."""
        return self.phase(self._g(a, word))

    def _g(self, a: tuple[int, int], word: tuple[int, ...]) -> Angle:
        if not word or a == (0, 0):
            return self._zero
        key = (a, word)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        head, last = word[:-1], word[-1]
        if last == 1:
            val = scale_angle(self._mu1, a[0])
        elif last == 2:
            val = scale_angle(self._mu2, a[1])
        else:
            val = negate_angle(self._g(sanov_act((last,), a), (-last,)))
        if head:
            val = add_angles(self._g(sanov_act((last,), a), head), val)
        self._memo[key] = val
        return val

    def _angle(self, a, b) -> Angle:
        (u, x), (v, _y) = a, b
        w = sanov_act(x, v)
        skew = u[0] * w[1] - u[1] * w[0]
        hk, hc, D = self._half0
        gk, gc, _ = self._g(v, x)
        return (hk * skew + gk) % D, tuple(h * skew + c for h, c in zip(hc, gc)), D

    def _restriction(self, sub: Subgroup) -> Cocycle | None:
        return HalfSkewCocycle(sub.inner, self.mu0) if sub.name == "base" else None


# ---------------------------------------------------------------------------
# BS(n,n) inflation and F2 x Z
# ---------------------------------------------------------------------------


class BSInflationCocycle(Cocycle):
    """Inflation through the abelianization of BS(n,n): lambda^(b-exp(x) * a-exp(y))."""

    kind = "bs"

    def __init__(self, group: BaumslagSolitarNN, lam: Phase):
        super().__init__(group)
        self.lam = lam
        [self._lam] = self._fix([lam])

    def _angle(self, a, b) -> Angle:
        x2 = self.group.n * a[0] + bs_exponent_sum(a[1], 2)
        return scale_angle(self._lam, x2 * bs_exponent_sum(b[1], 1))

    def _restriction(self, sub: Subgroup) -> Cocycle | None:
        # lambda^(b-exp(x) a-exp(y)) vanishes where y is a power of b^n
        return TrivialCocycle(sub.inner) if sub is self.group.center() else None


class FreeTimesZCharCocycle(Cocycle):
    """Character-driven cocycle on F2 x Z: sigma((x,m),(y,n)) = gamma^m(y)
    with gamma(a)=mu, gamma(b)=nu.
    """

    kind = "f2xz"

    def __init__(self, group: FreeTimesZ, mu: Phase, nu: Phase):
        super().__init__(group)
        self.mu = mu
        self.nu = nu
        self.mu_angle, self.nu_angle = self._fix([mu, nu])

    def character(self, word) -> Phase:
        """gamma on a free word: mu^(a-exponent) nu^(b-exponent)."""
        oa, ob = free_exponents(word)
        return self.mu.scale(oa) * self.nu.scale(ob)

    def _angle(self, a, b) -> Angle:
        m = a[1]
        oa, ob = free_exponents(b[0])
        ma, mb = m * oa, m * ob
        (ka, ca, D), (kb, cb, _) = self.mu_angle, self.nu_angle
        return (ka * ma + kb * mb) % D, tuple(x * ma + y * mb for x, y in zip(ca, cb)), D

    def _restriction(self, sub: Subgroup) -> Cocycle | None:
        # gamma^m(y) vanishes where y has no free part
        return TrivialCocycle(sub.inner) if sub is self.group.center() else None


class ProductCocycle(Cocycle):
    """Product cocycle on F2 x Z: a factor on each of the two direct factors."""

    kind = "product"

    def __init__(self, group: FreeTimesZ, left: Cocycle, right: Cocycle):
        super().__init__(group)
        if not isinstance(left.group, FreeGroup) or left.group.rank != 2:
            raise SpecError("product left factor must live on free[2]", path="cocycle.left")
        if not isinstance(right.group, Zn) or right.group.n != 1:
            raise SpecError("product right factor must live on zn[1]", path="cocycle.right")
        self.left = left
        self.right = right
        self.den = None
        self.symbols = tuple(sorted({*left.symbols, *right.symbols}))
        self.basis = _merge_bases(left.basis, right.basis)

    def _angle(self, a, b) -> Angle:
        return self._own_angle(self.left._eval(a[0], b[0]) * self.right._eval((a[1],), (b[1],)))


# ---------------------------------------------------------------------------
# coboundaries, similarity, restriction
# ---------------------------------------------------------------------------


class CoboundaryFn:
    """A circle-valued function b with b(identity) = 0, as angles.

    Its values are rational, or use only the symbols of the cocycle that a
    similarity twists with it.
    """

    def __init__(self, group: Group, fn: Callable[[Element], Phase], label: str = "b"):
        self.group = group
        self.fn = fn
        self.label = label
        if not fn(group.identity()).is_zero():
            raise ConfigurationError("coboundary function must vanish on the identity")

    def __call__(self, g: Element) -> Phase:
        return self.fn(g)

    @classmethod
    def zero(cls, group: Group) -> CoboundaryFn:
        return cls(group, lambda g: ZERO, label="0")

    @classmethod
    def bitstream_parity(cls, sigma_mu: BitstreamCocycle) -> CoboundaryFn:
        """b(x) = sigma_mu(x_even, x_odd): splits x by index parity."""

        def fn(g: Element) -> Phase:
            x0 = tuple(i for i in g.data if i % 2 == 0)
            x1 = tuple(i for i in g.data if i % 2 != 0)
            return sigma_mu._eval(x0, x1)

        return cls(sigma_mu.group, fn, label="parity_split")


class CoboundaryCocycle(Cocycle):
    """The 2-coboundary of b: (g,h) -> b(g) + b(h) - b(gh) as angles, over
    the symbols of the values met so far (``Cocycle._own_angle``)."""

    kind = "coboundary"

    den = None

    def __init__(self, b: CoboundaryFn):
        super().__init__(b.group)
        self.b = b

    def _eval(self, a, bdat) -> Phase:
        G = self.group
        g = G.element(a)
        h = G.element(bdat)
        return self.b(g) * self.b(h) * self.b(G.compose(g, h)).inverse()

    def _angle(self, a, bdat) -> Angle:
        return self._own_angle(self._eval(a, bdat))


class SimilarTwist(Cocycle):
    """sigma multiplied by the conjugate coboundary of b (a similar cocycle)."""

    kind = "similar"

    def __init__(self, base: Cocycle, b: CoboundaryFn):
        if b.group.key != base.group.key:
            raise ConfigurationError("coboundary must live on the cocycle's group")
        super().__init__(base.group)
        self.base = base
        self.b = b
        self._db = CoboundaryCocycle(b)
        self._share(base)
        self.den = None

    def _angle(self, a, bdat) -> Angle:
        return self._own_angle(self.base._eval(a, bdat) * self._db._eval(a, bdat).inverse())

    def structural(self) -> Cocycle:
        return self.base.structural()


class RestrictedCocycle(Cocycle):
    """Restriction of a cocycle to a recognized subgroup, presented on the
    subgroup's own family representation."""

    kind = "restricted"

    def __init__(self, base: Cocycle, sub: Subgroup):
        self.sub = sub
        super().__init__(sub.inner)
        self.base = base
        self._share(base)

    def _angle(self, a, b) -> Angle:
        H = self.sub.inner
        return self.base._angle(self.sub.embed(H.element(a)).data, self.sub.embed(H.element(b)).data)


def sigma_tilde(sigma: Cocycle, g: Element, h: Element) -> Phase:
    """Anti-symmetrized form: sigma(g,h) / sigma(g h g^{-1}, g)."""
    G = sigma.group
    return sigma.eval(g, h) * sigma.eval(G.conjugate(g, h), g).inverse()


# ---------------------------------------------------------------------------
# verification helpers
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
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


# ---------------------------------------------------------------------------
# spec-driven construction
# ---------------------------------------------------------------------------


def _phase(obj, path: str, group: Group, basis: IrrationalBasis | None) -> Phase:
    try:
        return phase_from_json(obj, basis)
    except ConfigurationError as exc:
        raise SpecError(str(exc), path=path) from exc


def _phases(items, path: str, group: Group, basis: IrrationalBasis | None) -> tuple[Phase, ...]:
    return tuple(_phase(p, f"{path}[{i}]", group, basis) for i, p in enumerate(_list(items, path)))


def _window(items, path: str, group: Group, basis: IrrationalBasis | None) -> dict[tuple[int, int], Phase]:
    entries = {}
    for i, item in enumerate(_list(items, path)):
        if not (isinstance(item, list) and len(item) == 3):
            raise SpecError("a theta_window entry is a [j, k, phase] triple", path=f"{path}[{i}]")
        j, k = (_int(t, f"{path}[{i}]") for t in item[:2])
        if j >= k:  # the constructor's check, at the entry's path
            raise SpecError(f"theta entry ({j},{k}) lies on or below the diagonal", path=f"{path}[{i}]")
        if (j, k) in entries:
            raise SpecError(f"theta entry ({j},{k}) is given twice", path=f"{path}[{i}]")
        entries[(j, k)] = _phase(item[2], f"{path}[{i}]", group, basis)
    return entries


def _bits(items, path: str, *_) -> tuple[int, ...]:
    """A list of JSON integers; the constructor checks that each is 0 or 1."""
    return tuple(_int(bit, f"{path}[{i}]") for i, bit in enumerate(_list(items, path)))


def _nested(target: Callable[[Group], Group]):
    """A required cocycle spec field, built on the group that `target` picks."""
    return (lambda spec, path, group, basis: build_cocycle(spec, target(group), basis, path)), REQUIRED


KINDS = {  # kind: (the group classes it lives on, {field: (parser, default or REQUIRED)}, constructor)
    "trivial": ((Group,), {}, TrivialCocycle),
    "theta_diag": ((SumZ,), {"diagonals": (_phases, ()), "period": (_phases, ())}, ThetaCocycle),
    "theta_rule": ((SumZ,), {"rule": (_as_is, REQUIRED)}, lambda G, rule: ThetaCocycle(G, rule=rule)),
    "theta_window": ((SumZ,), {"entries": (_window, {})}, lambda G, window: ThetaCocycle(G, window=window)),
    "bitstream": ((SumZ2,), {"pre": (_bits, ()), "period": (_bits, ())}, BitstreamCocycle),
    "antisym_theta": ((Group,), {"theta": (_phase, REQUIRED)}, AntisymThetaCocycle),
    "half_skew": ((Group,), {"mu0": (_phase, REQUIRED)}, HalfSkewCocycle),
    "lift": ((WreathZ, ZnSemidirectZ), {"base": _nested(lambda G: G.base_group())}, LiftCocycle),
    "sanov": ((Sanov,), dict.fromkeys(("mu0", "mu1", "mu2"), (_phase, REQUIRED)), SanovCocycle),
    "bs": ((BaumslagSolitarNN,), {"lambda": (_phase, REQUIRED)}, BSInflationCocycle),
    "f2xz": ((FreeTimesZ,), dict.fromkeys(("mu", "nu"), (_phase, REQUIRED)), FreeTimesZCharCocycle),
    "product": (
        (FreeTimesZ,),
        {"left": _nested(lambda G: get_group({"family": "free"})), "right": _nested(lambda G: G.center().inner)},
        ProductCocycle,
    ),
}


def build_cocycle(spec: dict, group: Group, basis: IrrationalBasis | None = None, path: str = "cocycle") -> Cocycle:
    """Build the cocycle that a spec dict at the JSON `path` describes on the given group.

    The constructors report their errors under ``cocycle``; for a spec
    nested at another path, such an error is moved under that path."""
    (_, _, build), values = read_spec(spec, "kind", KINDS, path, on=group, context=(group, basis))
    try:
        return build(group, *values)
    except SpecError as exc:
        if path == "cocycle" or not exc.path.startswith("cocycle"):
            raise
        message = str(exc).removeprefix(f"{exc.path}: ")
        raise SpecError(message, path=path + exc.path.removeprefix("cocycle")) from exc
