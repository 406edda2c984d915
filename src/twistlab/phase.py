"""Exact arithmetic in the circle group.

A phase is an angle in [0,1): a rational number plus a rational combination of
declared symbolic irrationals, all taken mod 1.  Storing angles instead of
unit complex numbers makes equality, torsion tests and regularity questions
exact rational linear algebra.  The declared symbols are assumed, jointly with
1, to be linearly independent over the rationals; this is an input contract
and is never verified.

A ``Phase`` holds its angle as integers over one denominator (``Angle``) in
lowest terms; its group law is the integer angle arithmetic.  The float
export refuses a coefficient too large for a float, and a symbol term
(c/D) * value of 2**53 or more, whose float has no digit of the angle
(ConfigurationError).
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
        for sym, val in values.items():
            if isinstance(val, bool) or not isinstance(val, Real) or not (0.0 < val < 1.0):
                raise ConfigurationError(f"numeric value for {sym!r} must be in (0,1), got {val!r}")
        self.symbols = tuple(values)
        self._values = {s: float(v) for s, v in values.items()}

    def value(self, symbol: str) -> float:
        try:
            return self._values[symbol]
        except KeyError:
            raise ConfigurationError(f"no numeric value assigned to symbol {symbol!r}") from None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IrrationalBasis) and self._values == other._values


def _merge_bases(a: IrrationalBasis | None, b: IrrationalBasis | None) -> IrrationalBasis | None:
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise ConfigurationError("phases built over different irrational bases")


class Phase:
    """An element of the circle group, stored as the exact angle
    (k + sum_i cs[i] * syms[i]) / den mod 1 in lowest terms: 0 <= k < den,
    `syms` sorted, no zero in `cs`, and gcd(k, *cs, den) = 1."""

    __slots__ = ("k", "syms", "cs", "den", "basis")

    def __new__(
        cls,
        rational: Rational = 0,
        irr: Mapping[str, Rational] | None = None,
        basis: IrrationalBasis | None = None,
    ):
        syms = tuple(sorted(irr or ()))
        parts = [Fraction(rational), *(Fraction(irr[s]) for s in syms)]
        D = math.lcm(*(q.denominator for q in parts))
        k, *cs = (q.numerator * (D // q.denominator) for q in parts)
        return cls.of_angle((k, tuple(cs), D), syms, basis)

    @classmethod
    def of_angle(cls, a: Angle, symbols: tuple[str, ...], basis: IrrationalBasis | None) -> Phase:
        """The Phase of an angle over sorted `symbols`, reduced to lowest terms."""
        k, cs, D = a
        if 0 in cs:
            symbols = tuple(s for s, c in zip(symbols, cs) if c)
            cs = tuple(c for c in cs if c)
        g = math.gcd(k, D, *cs)
        if g != 1:
            k, cs, D = k // g, tuple(c // g for c in cs), D // g
        p = object.__new__(cls)
        for name, value in zip(cls.__slots__, (k % D, symbols, cs, D, basis)):
            object.__setattr__(p, name, value)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Phase is immutable")

    def angle(self, D: int, symbols: tuple[str, ...]) -> Angle:
        """The phase as an angle over D, a multiple of `den`, and `symbols`."""
        m = D // self.den
        if symbols == self.syms:
            return self.k * m, tuple(c * m for c in self.cs), D
        outside = [s for s in self.syms if s not in symbols]
        if outside:
            raise ConfigurationError(f"phase uses symbol {outside[0]!r} outside the symbols {list(symbols)}")
        coeffs = dict(zip(self.syms, self.cs))
        return self.k * m, tuple(coeffs.get(s, 0) * m for s in symbols), D

    @property
    def rational(self) -> Fraction:
        return Fraction(self.k, self.den)

    @property
    def irr(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple((s, Fraction(c, self.den)) for s, c in zip(self.syms, self.cs))

    # -- group structure (angles add; circle values multiply) --------------

    def __mul__(self, other: Phase) -> Phase:
        if not isinstance(other, Phase):
            return NotImplemented
        basis = _merge_bases(self.basis, other.basis)
        syms = self.syms if self.syms == other.syms else tuple(sorted({*self.syms, *other.syms}))
        return Phase.of_angle(add_angles(self.angle(self.den, syms), other.angle(other.den, syms)), syms, basis)

    def inverse(self) -> Phase:
        return Phase.of_angle(negate_angle((self.k, self.cs, self.den)), self.syms, self.basis)

    def scale(self, c: Rational) -> Phase:
        """Multiply the angle by a rational scalar, reduced mod 1."""
        a = (self.k, self.cs, self.den * c.denominator)
        return Phase.of_angle(scale_angle(a, c.numerator), self.syms, self.basis)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.den == 1 and not self.cs

    def is_torsion(self) -> bool:
        """True iff the angle is rational, i.e. the circle value has finite order.

        Relies on the declared independence of the basis symbols: any nonzero
        symbolic coefficient makes the angle irrational.
        """
        return not self.cs

    def torsion_order(self) -> int | None:
        """Order of the circle value when torsion, else None."""
        return None if self.cs else self.den

    # -- export -------------------------------------------------------------

    def angle_float(self) -> float:
        x = self.k / self.den
        for sym, c in zip(self.syms, self.cs):
            if self.basis is None:
                raise ConfigurationError(f"phase uses symbol {sym!r} but carries no basis")
            x += _term(_quotient(c, self.den, sym) * self.basis.value(sym), sym)
        return x % 1.0

    def to_complex(self) -> complex:
        """exp(2*pi*i*angle) with the angle evaluated numerically."""
        return cmath.exp(2j * cmath.pi * self.angle_float())

    # -- plumbing -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Phase) and (self.k, self.den, self.cs, self.syms) == (
            other.k, other.den, other.cs, other.syms
        )

    def __hash__(self) -> int:
        return hash((self.k, self.syms, self.cs, self.den))

    def __repr__(self) -> str:
        parts = [str(self.rational)] if (self.k or not self.cs) else []
        parts += [f"{c}*{s}" for s, c in self.irr]
        return f"Phase({' + '.join(parts)})"


ZERO = Phase(0)


# ---------------------------------------------------------------------------
# integer angles
# ---------------------------------------------------------------------------

# An integer angle (k, cs, D) is the phase k/D + sum_i cs[i]/D * symbols[i]
# mod 1, with k in [0, D): plain ints over one denominator, for a symbol
# order that the holder fixes (a Phase's `syms`, a cocycle's `symbols`).
# Adding angles over the same D adds the ints; ``Phase.of_angle`` reduces.
Angle = tuple[int, tuple[int, ...], int]


def phase_angles(phases, factor: int = 1) -> tuple[tuple[str, ...], int, list[Angle]]:
    """The sorted symbols of `phases`, their common denominator D times
    `factor`, and the phases as angles over D."""
    phases = list(phases)
    symbols = tuple(sorted({s for p in phases for s in p.syms}))
    D = factor * math.lcm(1, *(p.den for p in phases))
    return symbols, D, [p.angle(D, symbols) for p in phases]


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
    if missing:  # fail as Phase.to_complex does, on the first angle that must
        Phase.of_angle(next(a for a in angles if any(a[1][i] for i in missing)), symbols, basis).to_complex()
    x = _quotients([a[0] for a in angles], dens)
    for i in used:
        terms = _quotients(columns[i], dens, symbols[i]) * basis.value(symbols[i])
        _term(float(np.abs(terms).max()), symbols[i])
        x = x + terms
    return np.exp(2j * cmath.pi * (x % 1.0))


_EXACT_FLOAT = 2**53


def _term(t: float, symbol: str) -> float:
    """The term (c/D) * value of a symbol, refused from 2**53 on: a float
    there is an even integer, so the term has no digit of its angle left
    (from about 2**50 on it keeps only a few bits of it)."""
    if abs(t) >= _EXACT_FLOAT:
        raise ConfigurationError(
            f"the coefficient of symbol {symbol!r} times its value reaches 2**53: its angle has no float digit"
        )
    return t


def _quotient(n: int, d: int, symbol: str | None) -> float:
    """n / d, correctly rounded; a quotient past the float range raises
    ConfigurationError naming the symbol whose coefficient it is."""
    try:
        return n / d
    except OverflowError:
        raise ConfigurationError(f"the coefficient of symbol {symbol!r} is too large for a float") from None


def _quotients(nums: list[int], dens: list[int], symbol: str | None = None):
    """nums[i] / dens[i], each correctly rounded, as a float64 array."""
    import numpy as np

    if max(map(abs, nums), default=0) < _EXACT_FLOAT and max(dens, default=0) < _EXACT_FLOAT:
        return np.array(nums, dtype=np.float64) / np.array(dens, dtype=np.float64)
    return np.array([_quotient(n, d, symbol) for n, d in zip(nums, dens)], dtype=np.float64)


def _ratio(pair, literal) -> Fraction:
    """The fraction p/q of a [p, q] pair found in the phase literal `literal`."""
    if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(v, int) and not isinstance(v, bool) for v in pair)):
        raise ConfigurationError(f"rational literal must be [p, q], got {pair!r} in {literal!r}")
    if pair[1] == 0:
        raise ConfigurationError(f"phase literal {literal!r} has a zero denominator")
    return Fraction(pair[0], pair[1])


def phase_from_json(obj, basis: IrrationalBasis | None = None) -> Phase:
    """Parse the phase literal syntax {"rat": [p, q], "irr": {"r": [a, b]}}.

    Plain integers and [p, q] pairs are accepted as shorthand for rational
    angles; a key other than "rat" and "irr", or a null part, is refused.
    """
    if isinstance(obj, int) and not isinstance(obj, bool):
        return Phase(obj)
    if isinstance(obj, list):
        return Phase(_ratio(obj, obj))
    if not isinstance(obj, dict) or not set(obj) <= {"rat", "irr"} or None in obj.values():
        raise ConfigurationError(f'cannot parse phase literal {obj!r}: it takes "rat" and "irr", neither null')
    rat = _ratio(obj["rat"], obj) if "rat" in obj else Fraction(0)
    irr_obj = obj.get("irr", {})
    if not isinstance(irr_obj, dict):
        raise ConfigurationError(f"irrational part must be an object, got {irr_obj!r} in {obj!r}")
    irr = {sym: _ratio(pair, obj) for sym, pair in irr_obj.items()}
    return Phase(rat, irr, basis)
