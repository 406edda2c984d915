"""Exact arithmetic in the circle group.

A phase is an angle in [0,1): a rational number plus a rational combination of
declared symbolic irrationals, all taken mod 1.  Storing angles instead of
unit complex numbers makes equality, torsion tests and regularity questions
exact rational linear algebra.  The declared symbols are assumed, jointly with
1, to be linearly independent over the rationals; this is an input contract
and is never verified.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from numbers import Real
from typing import Mapping

from .errors import ConfigurationError

Rational = int | Fraction


class IrrationalBasis:
    """Named irrational symbols with numeric values used only for export.

    Numeric values must lie in (0,1).  They are irrelevant to all exact
    operations; only ``Phase.to_complex`` reads them.
    """

    __slots__ = ("symbols", "_values")

    def __init__(self, values: Mapping[str, float]):
        if not isinstance(values, Mapping):
            raise ConfigurationError(f"basis must map symbols to numbers, got {values!r}")
        syms = tuple(values)
        if len(set(syms)) != len(syms):
            raise ConfigurationError("duplicate basis symbols")
        for sym, val in values.items():
            if isinstance(val, bool) or not isinstance(val, Real) or not (0.0 < val < 1.0):
                raise ConfigurationError(f"numeric value for {sym!r} must be in (0,1), got {val!r}")
        self.symbols = syms
        self._values = {s: float(v) for s, v in values.items()}

    def value(self, symbol: str) -> float:
        try:
            return self._values[symbol]
        except KeyError:
            raise ConfigurationError(f"no numeric value assigned to symbol {symbol!r}") from None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IrrationalBasis) and self._values == other._values

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._values.items())))

    def __repr__(self) -> str:
        return f"IrrationalBasis({self._values})"


def _merge_bases(a: IrrationalBasis | None, b: IrrationalBasis | None) -> IrrationalBasis | None:
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise ConfigurationError("phases built over different irrational bases")


class Phase:
    """An element of the circle group, stored as an exact angle mod 1."""

    __slots__ = ("rational", "irr", "basis", "_hash")

    def __init__(
        self,
        rational: Rational = 0,
        irr: Mapping[str, Rational] | None = None,
        basis: IrrationalBasis | None = None,
    ):
        object.__setattr__(self, "rational", Fraction(rational) % 1)
        coeffs = []
        if irr:
            for sym in sorted(irr):
                c = Fraction(irr[sym])
                if c != 0:
                    coeffs.append((sym, c))
        object.__setattr__(self, "irr", tuple(coeffs))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_hash", hash((self.rational, self.irr)))

    def __setattr__(self, name, value):
        raise AttributeError("Phase is immutable")

    # -- group structure (angles add; circle values multiply) --------------

    def __mul__(self, other: Phase) -> Phase:
        if not isinstance(other, Phase):
            return NotImplemented
        basis = _merge_bases(self.basis, other.basis)
        irr = dict(self.irr)
        for sym, c in other.irr:
            irr[sym] = irr.get(sym, Fraction(0)) + c
        return Phase(self.rational + other.rational, irr, basis)

    def inverse(self) -> Phase:
        return Phase(-self.rational, {s: -c for s, c in self.irr}, self.basis)

    def scale(self, c: Rational) -> Phase:
        """Multiply the angle by a rational scalar, reduced mod 1."""
        c = Fraction(c)
        return Phase(self.rational * c, {s: k * c for s, k in self.irr}, self.basis)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.rational == 0 and not self.irr

    def is_torsion(self) -> bool:
        """True iff the angle is rational, i.e. the circle value has finite order.

        Relies on the declared independence of the basis symbols: any nonzero
        symbolic coefficient makes the angle irrational.
        """
        return not self.irr

    def torsion_order(self) -> int | None:
        """Order of the circle value when torsion, else None."""
        if self.irr:
            return None
        return self.rational.denominator

    # -- export -------------------------------------------------------------

    def angle_float(self) -> float:
        x = float(self.rational)
        for sym, c in self.irr:
            if self.basis is None:
                raise ConfigurationError(f"phase uses symbol {sym!r} but carries no basis")
            x += float(c) * self.basis.value(sym)
        return x % 1.0

    def to_complex(self) -> complex:
        """exp(2*pi*i*angle) with the angle evaluated numerically."""
        return cmath.exp(2j * cmath.pi * self.angle_float())

    # -- plumbing -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Phase)
            and self.rational == other.rational
            and self.irr == other.irr
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = [str(self.rational)] if (self.rational or not self.irr) else []
        parts += [f"{c}*{s}" for s, c in self.irr]
        return f"Phase({' + '.join(parts)})"


ZERO = Phase(0)


def _ratio(pair, literal) -> Fraction:
    """The fraction p/q of a [p, q] pair found in the phase literal `literal`."""
    if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(v, int) for v in pair)):
        raise ConfigurationError(f"rational literal must be [p, q], got {pair!r} in {literal!r}")
    if pair[1] == 0:
        raise ConfigurationError(f"phase literal {literal!r} has a zero denominator")
    return Fraction(pair[0], pair[1])


def phase_from_json(obj, basis: IrrationalBasis | None = None) -> Phase:
    """Parse the phase literal syntax {"rat": [p, q], "irr": {"r": [a, b]}}.

    Plain integers and [p, q] pairs are accepted as shorthand for rational
    angles.
    """
    if isinstance(obj, int):
        return Phase(obj)
    if isinstance(obj, list):
        return Phase(_ratio(obj, obj))
    if not isinstance(obj, dict):
        raise ConfigurationError(f"cannot parse phase literal {obj!r}")
    rat = _ratio(obj["rat"], obj) if "rat" in obj else Fraction(0)
    irr_obj = obj.get("irr") or {}
    if not isinstance(irr_obj, dict):
        raise ConfigurationError(f"irrational part must be an object, got {irr_obj!r} in {obj!r}")
    irr = {sym: _ratio(pair, obj) for sym, pair in irr_obj.items()}
    return Phase(rat, irr, basis)


def phase_to_json(p: Phase) -> dict:
    out: dict = {"rat": [p.rational.numerator, p.rational.denominator]}
    if p.irr:
        out["irr"] = {s: [c.numerator, c.denominator] for s, c in p.irr}
    return out
