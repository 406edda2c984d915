"""Construction and evaluation of the supported 2-cocycle families.

All evaluators return exact Phase values.  Normalization (trivial on the
identity) and the cocycle identity are checkable through the verification
helpers at the bottom of the module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import ConfigurationError, SpecError
from .groups import (
    BaumslagSolitarNN,
    Element,
    FreeGroup,
    FreeTimesZ,
    Group,
    Sanov,
    SumZ,
    SumZ2,
    WreathZ,
    Zn,
    ZnSemidirectZ,
    get_group,
    resolve_subgroup,
    sanov_act,
    _mat_vec,
)
from .phase import ZERO, IrrationalBasis, Phase, phase_from_json, phase_to_json

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

    def __init__(self, group: Group):
        self.group = group

    def eval(self, g: Element, h: Element) -> Phase:
        self.group.check(g)
        self.group.check(h)
        return self._eval(g.data, h.data)

    def _eval(self, a, b) -> Phase:
        raise NotImplementedError

    def structural(self) -> Cocycle:
        """Unwrap similarity twists; verdict rules are similarity-invariant."""
        return self

    def restrict(self, subgroup_name: str) -> Cocycle:
        sub = resolve_subgroup(self.group, subgroup_name)
        if sub.inner is None:
            raise SpecError("cannot restrict to the trivial subgroup")
        return RestrictedCocycle(self, subgroup_name)

    def to_json(self) -> dict:
        raise NotImplementedError(f"no serialization for {self.kind}")


class TrivialCocycle(Cocycle):
    kind = "trivial"

    def _eval(self, a, b) -> Phase:
        return ZERO

    def restrict(self, subgroup_name: str) -> Cocycle:
        sub = resolve_subgroup(self.group, subgroup_name)
        return TrivialCocycle(sub.inner)

    def to_json(self) -> dict:
        return {"kind": "trivial"}


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

    def diagonal_value(self, m: int) -> Phase:
        """Value on the m-th superdiagonal (diagonal-constant modes)."""
        if m <= 0:
            return ZERO
        if self.rule == "prime_reciprocal":
            return Phase(Fraction(1, nth_prime(m)))
        if m <= len(self.diagonals):
            return self.diagonals[m - 1]
        if self.period:
            return self.period[(m - 1 - len(self.diagonals)) % len(self.period)]
        return ZERO

    def entry(self, j: int, k: int) -> Phase:
        if j >= k:
            return ZERO
        if self.window is not None:
            return self.window.get((j, k), ZERO)
        return self.diagonal_value(k - j)

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

    def _eval(self, a, b) -> Phase:
        out = ZERO
        for j, xj in a:
            for k, yk in b:
                if j < k:
                    t = self.entry(j, k)
                    if not t.is_zero():
                        out = out * t.scale(xj * yk)
        return out

    def to_json(self) -> dict:
        if self.rule:
            return {"kind": "theta_rule", "rule": self.rule}
        if self.window is not None:
            return {
                "kind": "theta_window",
                "entries": [[j, k, phase_to_json(p)] for (j, k), p in sorted(self.window.items())],
            }
        out = {"kind": "theta_diag", "diagonals": [phase_to_json(p) for p in self.diagonals]}
        if self.period:
            out["period"] = [phase_to_json(p) for p in self.period]
        return out


class BitstreamCocycle(Cocycle):
    """Plus/minus-one valued bilinear cocycle on the sum of order-two groups.

    The defining data is the support bitstream (preperiod bits followed by a
    repeating block); bit m gives the sign on the m-th superdiagonal.
    """

    kind = "bitstream"
    invariant = True  # diagonal-constant by construction

    def __init__(self, group: SumZ2, pre: tuple[int, ...] = (), period: tuple[int, ...] = ()):
        super().__init__(group)
        for bit in tuple(pre) + tuple(period):
            if bit not in (0, 1):
                raise SpecError("bitstream entries must be 0 or 1", path="cocycle.pre")
        self.pre = tuple(pre)
        self.period = tuple(period)

    def epsilon(self, m: int) -> int:
        if m <= 0:
            return 0
        if m <= len(self.pre):
            return self.pre[m - 1]
        if self.period:
            return self.period[(m - 1 - len(self.pre)) % len(self.period)]
        return 0

    def _eval(self, a, b) -> Phase:
        count = 0
        for j in a:
            for k in b:
                if j < k:
                    count += self.epsilon(k - j)
        return Phase(Fraction(count % 2, 2)) if count % 2 else ZERO

    def to_json(self) -> dict:
        return {"kind": "bitstream", "pre": list(self.pre), "period": list(self.period)}


class SkewFormCocycle(Cocycle):
    """A cocycle on Z^2 whose value is a power of the skew form x1 y2 - x2 y1."""

    def __init__(self, group: Group):
        if not (isinstance(group, Zn) and group.n == 2):
            raise SpecError(f"{self.kind} requires a rank-2 lattice", path="cocycle")
        super().__init__(group)

    def skew_angle(self) -> Phase:
        """Angle of sigma(x,y)/sigma(y,x) per unit of x1 y2 - x2 y1."""
        raise NotImplementedError


class AntisymThetaCocycle(SkewFormCocycle):
    """theta * (x1 y2 - x2 y1) on rank-two integer vectors."""

    kind = "antisym_theta"

    def __init__(self, group: Zn, theta: Phase):
        super().__init__(group)
        self.theta = theta

    def _eval(self, a, b) -> Phase:
        return self.theta.scale(a[0] * b[1] - a[1] * b[0])

    def skew_angle(self) -> Phase:
        return self.theta.scale(2)

    def to_json(self) -> dict:
        return {"kind": "antisym_theta", "theta": phase_to_json(self.theta)}


class HalfSkewCocycle(SkewFormCocycle):
    """Half-integer skew power cocycle on rank-two vectors.

    The angle of the parameter is scaled by (x1 y2 - x2 y1)/2; half-integer
    exponents are handled by exact rational scaling of the angle.
    """

    kind = "half_skew"

    def __init__(self, group: Zn, mu0: Phase):
        super().__init__(group)
        self.mu0 = mu0

    def _eval(self, a, b) -> Phase:
        return self.mu0.scale(Fraction(a[0] * b[1] - a[1] * b[0], 2))

    def skew_angle(self) -> Phase:
        return self.mu0

    def to_json(self) -> dict:
        return {"kind": "half_skew", "mu0": phase_to_json(self.mu0)}


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
            if isinstance(base, (ThetaCocycle, BitstreamCocycle)) and not getattr(
                base, "invariant", True
            ):
                raise SpecError(
                    "lift base must be shift-invariant (diagonal-constant)",
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

    def _shifted(self, k: int, y):
        G = self.group
        if isinstance(G, WreathZ):
            return G._shift(y, k)
        return _mat_vec(G.matrix_power(k), y)

    def _eval(self, a, b) -> Phase:
        (x, k), (y, _l) = a, b
        return self.base._eval(x, self._shifted(k, y))

    def restrict(self, subgroup_name: str) -> Cocycle:
        if subgroup_name == "base":
            return self.base
        return super().restrict(subgroup_name)

    def to_json(self) -> dict:
        return {"kind": "lift", "base": self.base.to_json()}


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
        self._memo: dict[tuple, Phase] = {}

    def g(self, a: tuple[int, int], word: tuple[int, ...]) -> Phase:
        """The twisting function, computed by right-fold recursion with memoization."""
        if not word or a == (0, 0):
            return ZERO
        key = (a, word)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        head, last = word[:-1], word[-1]
        if last == 1:
            val = self.mu1.scale(a[0])
        elif last == 2:
            val = self.mu2.scale(a[1])
        else:
            val = self.g(sanov_act((last,), a), (-last,)).inverse()
        if head:
            val = self.g(sanov_act((last,), a), head) * val
        self._memo[key] = val
        return val

    def _sigma0(self, u, v) -> Phase:
        return self.mu0.scale(Fraction(u[0] * v[1] - u[1] * v[0], 2))

    def _eval(self, a, b) -> Phase:
        (u, x), (v, _y) = a, b
        return self._sigma0(u, sanov_act(x, v)) * self.g(v, x)

    def restrict(self, subgroup_name: str) -> Cocycle:
        if subgroup_name in ("base", "z2"):
            return HalfSkewCocycle(get_group({"family": "zn", "n": 2}), self.mu0)
        return super().restrict(subgroup_name)

    def to_json(self) -> dict:
        return {
            "kind": "sanov",
            "mu0": phase_to_json(self.mu0),
            "mu1": phase_to_json(self.mu1),
            "mu2": phase_to_json(self.mu2),
        }


# ---------------------------------------------------------------------------
# BS(n,n) inflation and F2 x Z
# ---------------------------------------------------------------------------


class BSInflationCocycle(Cocycle):
    """Inflation through the abelianization of BS(n,n): lambda^(b-exp(x) * a-exp(y))."""

    kind = "bs"

    def __init__(self, group: BaumslagSolitarNN, lam: Phase):
        super().__init__(group)
        self.lam = lam

    def _eval(self, a, b) -> Phase:
        n = self.group.n
        ca, wa = a
        _cb, wb = b
        x2 = n * ca + sum(wa[i + 1] for i in range(0, len(wa), 2) if wa[i] == 2)
        y1 = sum(wb[i + 1] for i in range(0, len(wb), 2) if wb[i] == 1)
        return self.lam.scale(x2 * y1)

    def restrict(self, subgroup_name: str) -> Cocycle:
        if subgroup_name == "center":
            return TrivialCocycle(get_group({"family": "zn", "n": 1}))
        return super().restrict(subgroup_name)

    def to_json(self) -> dict:
        return {"kind": "bs", "lambda": phase_to_json(self.lam)}


class FreeTimesZCharCocycle(Cocycle):
    """Character-driven cocycle on F2 x Z: sigma((x,m),(y,n)) = gamma^m(y)
    with gamma(a)=mu, gamma(b)=nu.
    """

    kind = "f2xz"

    def __init__(self, group: FreeTimesZ, mu: Phase, nu: Phase):
        super().__init__(group)
        self.mu = mu
        self.nu = nu

    def _eval(self, a, b) -> Phase:
        m = a[1]
        G = self.group
        oa, ob = G.word_exponents(G.element(b))
        return self.mu.scale(m * oa) * self.nu.scale(m * ob)

    def restrict(self, subgroup_name: str) -> Cocycle:
        if subgroup_name in ("z", "center"):
            return TrivialCocycle(get_group({"family": "zn", "n": 1}))
        return super().restrict(subgroup_name)

    def to_json(self) -> dict:
        return {"kind": "f2xz", "mu": phase_to_json(self.mu), "nu": phase_to_json(self.nu)}


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

    def _eval(self, a, b) -> Phase:
        return self.left._eval(a[0], b[0]) * self.right._eval((a[1],), (b[1],))

    def to_json(self) -> dict:
        return {"kind": "product", "left": self.left.to_json(), "right": self.right.to_json()}


# ---------------------------------------------------------------------------
# coboundaries, similarity, restriction
# ---------------------------------------------------------------------------


class CoboundaryFn:
    """A circle-valued function b with b(identity) = 0, as angles."""

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
    """The 2-coboundary of b: (g,h) -> b(g) + b(h) - b(gh) as angles."""

    kind = "coboundary"

    def __init__(self, b: CoboundaryFn):
        super().__init__(b.group)
        self.b = b

    def _eval(self, a, bdat) -> Phase:
        G = self.group
        g = G.element(a)
        h = G.element(bdat)
        return self.b(g) * self.b(h) * self.b(G.compose(g, h)).inverse()


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

    def _eval(self, a, bdat) -> Phase:
        return self.base._eval(a, bdat) * self._db._eval(a, bdat).inverse()

    def structural(self) -> Cocycle:
        return self.base.structural()


def similar_transform(sigma: Cocycle, b: CoboundaryFn) -> Cocycle:
    return SimilarTwist(sigma, b)


class RestrictedCocycle(Cocycle):
    """Restriction of a cocycle to a recognized subgroup, presented on the
    subgroup's own family representation."""

    kind = "restricted"

    def __init__(self, base: Cocycle, subgroup_name: str):
        self.sub = resolve_subgroup(base.group, subgroup_name)
        super().__init__(self.sub.inner)
        self.base = base

    def _eval(self, a, b) -> Phase:
        H = self.sub.inner
        return self.base.eval(self.sub.embed(H.element(a)), self.sub.embed(H.element(b)))


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

    Diagonal-constant parameterizations are certified exactly; explicit
    windows are checked pairwise on basis elements (deterministic witness
    first) and then on random pairs.
    """
    G = sigma.group
    if isinstance(sigma, (ThetaCocycle, BitstreamCocycle)) and getattr(sigma, "invariant", False):
        return CheckReport(True, 0, certified=True, note="diagonal-constant parameters")
    if not isinstance(G, (SumZ, SumZ2)):
        raise SpecError("invariance checks apply to the sum families only")

    def shifted(g: Element) -> Element:
        if isinstance(G, SumZ):
            return G.element(tuple(sorted((i + 1, v) for i, v in g.data)))
        return G.element(tuple(sorted(i + 1 for i in g.data)))

    checked = 0
    pairs: list[tuple[Element, Element]] = []
    if isinstance(sigma, ThetaCocycle) and sigma.window is not None:
        # declared entries first: the natural witnesses live there
        pairs += [(G.basis_element(j), G.basis_element(k)) for j, k in sorted(sigma.window)]
    basis = (
        [G.basis_element(i) for i in range(-window, window + 1)]
        if hasattr(G, "basis_element")
        else []
    )
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


def build_cocycle(spec: dict, group: Group, basis: IrrationalBasis | None = None) -> Cocycle:
    """Build the cocycle described by a spec dict on the given group."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SpecError("cocycle spec must be an object with a 'kind' field", path="cocycle.kind")
    kind = spec["kind"]
    ph = lambda obj, path: _parse_phase(obj, basis, path)

    def need(name: str):
        if name not in spec:
            raise SpecError(f"{kind} cocycles need a {name!r} field", path=f"cocycle.{name}")
        return spec[name]

    def need_phase(name: str) -> Phase:
        return ph(need(name), f"cocycle.{name}")

    if kind == "trivial":
        return TrivialCocycle(group)
    if kind in ("theta_diag", "theta_rule", "theta_window"):
        if not isinstance(group, SumZ):
            raise SpecError("theta cocycles live on sum_z", path="cocycle.kind")
        if kind == "theta_rule":
            return ThetaCocycle(group, rule=spec.get("rule"))
        if kind == "theta_diag":
            diags = tuple(ph(p, f"cocycle.diagonals[{i}]") for i, p in enumerate(spec.get("diagonals", [])))
            period = spec.get("period")
            per = tuple(ph(p, f"cocycle.period[{i}]") for i, p in enumerate(period)) if period else None
            return ThetaCocycle(group, diagonals=diags, period=per)
        entries = {}
        for i, item in enumerate(spec.get("entries", [])):
            if not isinstance(item, list) or len(item) != 3:
                raise SpecError("a theta_window entry is a [j, k, phase] triple", path=f"cocycle.entries[{i}]")
            j, k, p = item
            if int(j) >= int(k):
                raise SpecError(
                    f"theta entry ({j},{k}) lies on or below the diagonal",
                    path=f"cocycle.entries[{i}]",
                )
            entries[(int(j), int(k))] = ph(p, f"cocycle.entries[{i}]")
        return ThetaCocycle(group, window=entries)
    if kind == "bitstream":
        if not isinstance(group, SumZ2):
            raise SpecError("bitstream cocycles live on sum_z2", path="cocycle.kind")
        return BitstreamCocycle(group, tuple(spec.get("pre", ())), tuple(spec.get("period", ())))
    if kind == "antisym_theta":
        return AntisymThetaCocycle(group, need_phase("theta"))
    if kind == "half_skew":
        return HalfSkewCocycle(group, need_phase("mu0"))
    if kind == "lift":
        if isinstance(group, WreathZ):
            base = build_cocycle(need("base"), group.base_group(), basis)
        elif isinstance(group, ZnSemidirectZ):
            base = build_cocycle(need("base"), get_group({"family": "zn", "n": group.n}), basis)
        else:
            raise SpecError("lift target must be wreath or zn_semidirect", path="cocycle.kind")
        return LiftCocycle(group, base)
    if kind == "sanov":
        if not isinstance(group, Sanov):
            raise SpecError("sanov cocycles live on the sanov family", path="cocycle.kind")
        return SanovCocycle(group, need_phase("mu0"), need_phase("mu1"), need_phase("mu2"))
    if kind == "bs":
        if not isinstance(group, BaumslagSolitarNN):
            raise SpecError("bs cocycles live on bs_nn", path="cocycle.kind")
        return BSInflationCocycle(group, need_phase("lambda"))
    if kind == "f2xz":
        if not isinstance(group, FreeTimesZ):
            raise SpecError("f2xz cocycles live on free_times_z", path="cocycle.kind")
        return FreeTimesZCharCocycle(group, need_phase("mu"), need_phase("nu"))
    if kind == "product":
        if not isinstance(group, FreeTimesZ):
            raise SpecError("product cocycles are supported on free_times_z", path="cocycle.kind")
        left = build_cocycle(need("left"), get_group({"family": "free", "rank": 2}), basis)
        right = build_cocycle(need("right"), get_group({"family": "zn", "n": 1}), basis)
        return ProductCocycle(group, left, right)
    raise SpecError(f"unknown cocycle kind {kind!r}", path="cocycle.kind")


def _parse_phase(obj, basis: IrrationalBasis | None, path: str) -> Phase:
    try:
        return phase_from_json(obj, basis)
    except ConfigurationError as exc:
        raise SpecError(str(exc), path=path) from exc
