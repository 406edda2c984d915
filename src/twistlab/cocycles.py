"""Construction and evaluation of 2-cocycles: the shared classes and the spec table.

Each cocycle evaluates on payloads in integer angles (``phase.Angle``): a
numerator mod D and one integer coefficient per symbol of the cocycle's
`symbols`, over a denominator D that the constructor fixes from the
parameters (`den`).  The prime-reciprocal rule and coboundaries have
unbounded denominators (`den` is None), so each of their values carries its
own D.  ``Cocycle.eval`` returns the exact Phase of an angle for reports and
deciders; ``Cocycle.complex_values`` exports a batch of angles to complex
numbers in one numpy pass.

This module holds the kinds that live on any group (trivial, coboundary,
similarity, restriction) and the lift to a semidirect family; a kind that
lives on one family sits in that family's module, which `build_cocycle`
imports on first use through `KINDS`.
"""

from __future__ import annotations

from itertools import takewhile
from typing import Callable, Sequence

from .errors import ConfigurationError, SpecError
from .groups import (
    REQUIRED,
    Element,
    Group,
    Subgroup,
    _as_is,
    _int,
    _list,
    get_group,
    intern,
    load,
    read_spec,
    resolve_subgroup,
)
from .phase import (
    ZERO,
    Angle,
    IrrationalBasis,
    Phase,
    _merge_bases,
    angles_to_complex,
    phase_angles,
    phase_from_json,
)

_PRIMES = [2, 3, 5, 7, 11, 13]


def nth_prime(m: int) -> int:
    """1-indexed prime sequence."""
    while len(_PRIMES) < m:
        c = _PRIMES[-1] + 2
        while any(c % p == 0 for p in takewhile(lambda p: p * p <= c, _PRIMES)):
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


def stream_bit(pre: Sequence, period: Sequence, m: int):
    """Entry m >= 1 of the stream of preperiod entries followed by the
    repeated period; 0 past the preperiod when there is no period."""
    if m <= len(pre):
        return pre[m - 1]
    if period:
        return period[(m - 1 - len(pre)) % len(period)]
    return 0


def stream_reach(pre: Sequence, period: Sequence) -> int:
    """How many diagonals from a support the rows of a cocycle with this
    stream of diagonals (a falsy entry is zero) must reach: the last nonzero
    one, or one preperiod and one period, past which the rows repeat."""
    if any(period):
        return len(pre) + len(period)
    return max((m for m, x in enumerate(pre, start=1) if x), default=0)


# ---------------------------------------------------------------------------
# lifts to semidirect products
# ---------------------------------------------------------------------------


class LiftCocycle(Cocycle):
    """Lift of an invariant base cocycle to a semidirect family:
    sigma((x,k),(y,l)) = sigma'(x, k.y).  The family refuses a base whose
    lift is not a cocycle (`Group.check_lift_base`).
    """

    kind = "lift"

    def __init__(self, group: Group, base: Cocycle):
        super().__init__(group)
        group.check_lift_base(base)
        self.base = base
        self._share(base)

    def _angle(self, a, b) -> Angle:
        (x, k), (y, _l) = a, b
        return self.base._angle(x, self.group.act(k, y))

    def _restriction(self, sub: Subgroup) -> Cocycle | None:
        return self.base if sub.name == "base" else None


# ---------------------------------------------------------------------------
# coboundaries, similarity, restriction
# ---------------------------------------------------------------------------


class CoboundaryFn:
    """A circle-valued function b with b(identity) = 0, as angles.

    Its values are rational, or use only the symbols of the cocycle that a
    similarity twists with it.
    """

    def __init__(self, group: Group, fn: Callable[[Element], Phase]):
        self.group = group
        self.fn = fn
        if not fn(group.identity()).is_zero():
            raise ConfigurationError("coboundary function must vanish on the identity")

    def __call__(self, g: Element) -> Phase:
        return self.fn(g)

    @classmethod
    def zero(cls, group: Group) -> CoboundaryFn:
        return cls(group, lambda g: ZERO)


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


KINDS = {  # kind: (the families it lives on or None for all, {field: (parser, default or REQUIRED)}, "module:constructor")
    "trivial": (None, {}, "cocycles:TrivialCocycle"),
    "theta_diag": (("sum_z",), {"diagonals": (_phases, ()), "period": (_phases, ())}, "families.sum_z:ThetaCocycle"),
    "theta_rule": (("sum_z",), {"rule": (_as_is, REQUIRED)}, "families.sum_z:theta_rule"),
    "theta_window": (("sum_z",), {"entries": (_window, {})}, "families.sum_z:theta_window"),
    "bitstream": (("sum_z2",), {"pre": (_bits, ()), "period": (_bits, ())}, "families.sum_z2:BitstreamCocycle"),
    "antisym_theta": (None, {"theta": (_phase, REQUIRED)}, "families.zn:AntisymThetaCocycle"),
    "half_skew": (None, {"mu0": (_phase, REQUIRED)}, "families.zn:HalfSkewCocycle"),
    "lift": (("wreath", "zn_semidirect"), {"base": _nested(lambda G: G.base_group())}, "cocycles:LiftCocycle"),
    "sanov": (("sanov",), dict.fromkeys(("mu0", "mu1", "mu2"), (_phase, REQUIRED)), "families.sanov:SanovCocycle"),
    "bs": (("bs_nn",), {"lambda": (_phase, REQUIRED)}, "families.bs_nn:BSInflationCocycle"),
    "f2xz": (("free_times_z",), dict.fromkeys(("mu", "nu"), (_phase, REQUIRED)), "families.free_times_z:FreeTimesZCharCocycle"),
    "product": (
        ("free_times_z",),
        {"left": _nested(lambda G: get_group({"family": "free"})), "right": _nested(lambda G: G.center().inner)},
        "families.free_times_z:ProductCocycle",
    ),
}


def build_cocycle(spec: dict, group: Group, basis: IrrationalBasis | None = None, path: str = "cocycle") -> Cocycle:
    """Build (or fetch) the cocycle that a spec dict at the JSON `path` describes on the given group.

    The group interns what it builds, keyed by ``repr(spec)`` and the
    basis values: ``repr`` tells ``(1,)``, ``[1]``, ``[1.0]`` and
    ``[True]`` apart, where ``json.dumps`` would not.  A cocycle is shared
    by every build of its spec, so a caller must never set an attribute on
    one; the package keeps only data derived from it there
    (``regularity._row_table``).
    The constructors report their errors under ``cocycle``; for a spec
    nested at another path, such an error is moved under that path."""
    key = repr(spec), None if basis is None else tuple(basis._values.items())
    return intern(group._cocycles, key, lambda: _build(spec, group, basis, path))


def _build(spec: dict, group: Group, basis: IrrationalBasis | None, path: str) -> Cocycle:
    (_, _, where), values = read_spec(spec, "kind", KINDS, path, on=group, context=(group, basis))
    try:
        return load(where)(group, *values)
    except SpecError as exc:
        if path == "cocycle" or not exc.path.startswith("cocycle"):
            raise
        message = str(exc).removeprefix(f"{exc.path}: ")
        raise SpecError(message, path=path + exc.path.removeprefix("cocycle")) from exc
