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
import math
import operator
from fractions import Fraction
from numbers import Real
from typing import Mapping

from .errors import ConfigurationError

Rational = int | Fraction


class IrrationalBasis:
    """Named irrational symbols with numeric values used only for export.

    Numeric values must lie in (0,1).  They are irrelevant to all exact
    operations; only the complex export (``Phase.to_complex`` and
    ``angles_to_complex``) reads them.
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

    @classmethod
    def _normal(cls, rational: Fraction, irr: tuple, basis: IrrationalBasis | None) -> Phase:
        """A phase from parts already in normal form: `rational` in [0, 1)
        and `irr` sorted by symbol, without zero coefficients."""
        p = object.__new__(cls)
        object.__setattr__(p, "rational", rational)
        object.__setattr__(p, "irr", irr)
        object.__setattr__(p, "basis", basis)
        object.__setattr__(p, "_hash", hash((rational, irr)))
        return p

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


# ---------------------------------------------------------------------------
# integer angles
# ---------------------------------------------------------------------------

# An integer angle (k, cs, D) is the phase k/D + sum_i cs[i]/D * symbols[i]
# mod 1, with k in [0, D): plain ints over one denominator, for a symbol
# order that the holder fixes (a cocycle's `symbols`).  Adding angles over
# the same D adds the ints, so the hot paths never build a Fraction.
Angle = tuple[int, tuple[int, ...], int]


def angle_denominator(phases) -> int:
    """The least common denominator of the rational parts and symbol
    coefficients of `phases`."""
    phases = list(phases)
    dens = [p.rational.denominator for p in phases] + [c.denominator for p in phases for _, c in p.irr]
    return math.lcm(1, *dens)


def phase_angles(phases, factor: int = 1) -> tuple[tuple[str, ...], int, list[Angle]]:
    """The sorted symbols of `phases`, their common denominator D times
    `factor`, and the phases as angles over D."""
    phases = list(phases)
    symbols = tuple(sorted({s for p in phases for s, _ in p.irr}))
    D = factor * angle_denominator(phases)
    return symbols, D, [phase_angle(p, D, symbols) for p in phases]


def phase_angle(p: Phase, D: int, symbols: tuple[str, ...]) -> Angle:
    """`p` as an integer angle over D, a multiple of its denominators."""
    coeffs = dict(p.irr)
    for sym in coeffs:
        if sym not in symbols:
            raise ConfigurationError(f"phase uses symbol {sym!r} outside the symbols {list(symbols)}")
    k = p.rational.numerator * (D // p.rational.denominator)
    return k, tuple(int(coeffs.get(s, 0) * D) for s in symbols), D


def angle_phase(a: Angle, symbols: tuple[str, ...], basis: IrrationalBasis | None) -> Phase:
    """The Phase of an angle over sorted `symbols`."""
    k, cs, D = a
    irr = tuple((s, Fraction(c, D)) for s, c in zip(symbols, cs) if c)
    return Phase._normal(Fraction(k % D, D), irr, basis)


def add_angles(a: Angle, b: Angle) -> Angle:
    """The sum of two angles over the same symbols, over the lcm of their
    denominators."""
    (ka, ca, Da), (kb, cb, Db) = a, b
    if Da == Db:
        return (ka + kb) % Da, tuple(map(operator.add, ca, cb)), Da
    D = math.lcm(Da, Db)
    sa, sb = D // Da, D // Db
    return (ka * sa + kb * sb) % D, tuple(x * sa + y * sb for x, y in zip(ca, cb)), D


def scale_angle(a: Angle, n: int) -> Angle:
    """The angle times the integer n."""
    k, cs, D = a
    return k * n % D, tuple(c * n for c in cs), D


def negate_angle(a: Angle) -> Angle:
    k, cs, D = a
    return -k % D, tuple(-c for c in cs), D


def quarter_turns(a: Angle) -> int | None:
    """q when the angle is q/4 of a turn, else None."""
    k, cs, D = a
    if any(cs) or 4 * k % D:
        return None
    return 4 * k // D


def angles_to_complex(angles, symbols: tuple[str, ...], basis: IrrationalBasis | None):
    """exp(2 pi i x) of each angle as a numpy complex128 array, by the
    arithmetic of ``Phase.to_complex``: x = k/D, plus (c/D) * value for each
    symbol in order, then x mod 1.  Every quotient is correctly rounded
    (numpy divides ints below 2**53 exactly as floats; larger ones divide
    as Python ints), so the values equal the Phase export bit for bit.  A
    symbol with a nonzero coefficient and no numeric value raises
    ConfigurationError, as ``Phase.to_complex`` does."""
    import numpy as np

    angles = list(angles)
    dens = [a[2] for a in angles]
    columns = [[a[1][i] for a in angles] for i in range(len(symbols))]
    used = [i for i, cs in enumerate(columns) if any(cs)]
    missing = [i for i in used if basis is None or symbols[i] not in basis.symbols]
    if missing:  # name the symbol Phase.to_complex would fail on first
        first = next(a for a in angles if any(a[1][i] for i in missing))
        sym = symbols[next(i for i in missing if first[1][i])]
        if basis is None:
            raise ConfigurationError(f"phase uses symbol {sym!r} but carries no basis")
        basis.value(sym)
    x = _quotients([a[0] for a in angles], dens)
    for i in used:
        x = x + _quotients(columns[i], dens) * basis.value(symbols[i])
    return np.exp(2j * cmath.pi * (x % 1.0))


_EXACT_FLOAT = 2**53


def _quotients(nums: list[int], dens: list[int]):
    """nums[i] / dens[i], each correctly rounded, as a float64 array."""
    import numpy as np

    if max(map(abs, nums), default=0) < _EXACT_FLOAT and max(dens, default=0) < _EXACT_FLOAT:
        return np.array(nums, dtype=np.float64) / np.array(dens, dtype=np.float64)
    return np.array([n / d for n, d in zip(nums, dens)], dtype=np.float64)


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
