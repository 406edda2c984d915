"""Exact circle-group arithmetic."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from oracles import fraction_combination, phase_to_json

from twistlab.errors import ConfigurationError
from twistlab.phase import IrrationalBasis, Phase, ZERO, phase_from_json

BASIS = IrrationalBasis({"r": 0.25, "s": 0.6180339887498949})


def P(q, irr=None, basis=None):
    return Phase(Fraction(q) if not isinstance(q, Fraction) else q, irr, basis)


def test_half_times_half_is_zero():
    assert P(Fraction(1, 2)) * P(Fraction(1, 2)) == ZERO


def test_identity_element():
    p = P(Fraction(2, 7), {"r": Fraction(1, 3)}, BASIS)
    assert ZERO * p == p
    assert p * ZERO == p


def test_additive_inverse_with_symbol():
    p = P(Fraction(1, 3), {"r": 1}, BASIS)
    q = P(Fraction(2, 3), {"r": -1}, BASIS)
    assert p * q == ZERO


def test_scale_examples():
    assert P(Fraction(1, 2)).scale(Fraction(1, 2)) == P(Fraction(1, 4))
    assert P(0, {"r": 1}).scale(3) == P(0, {"r": 3})
    assert P(Fraction(5, 7), {"r": Fraction(2, 3)}).scale(0) == ZERO


def test_is_torsion():
    assert P(Fraction(2, 5)).is_torsion()
    assert not P(0, {"r": 1}).is_torsion()
    assert not P(Fraction(1, 3), {"r": Fraction(2, 7)}).is_torsion()
    assert P(Fraction(2, 5)).torsion_order() == 5


def test_to_complex_values():
    assert abs(P(Fraction(1, 2)).to_complex() - (-1)) < 1e-12
    assert abs(P(Fraction(1, 4)).to_complex() - 1j) < 1e-12
    # symbol r is assigned 0.25, so the export lands on i
    p = P(0, {"r": 1}, BASIS)
    assert abs(p.to_complex() - cmath.exp(2j * cmath.pi * 0.25)) < 1e-12
    assert abs(abs(p.to_complex()) - 1.0) < 1e-12


def test_to_complex_missing_value():
    p = P(0, {"unassigned": 1}, BASIS)
    with pytest.raises(ConfigurationError):
        p.to_complex()
    with pytest.raises(ConfigurationError):
        P(0, {"r": 1}, None).to_complex()


def test_mismatched_bases_rejected():
    other = IrrationalBasis({"r": 0.3})
    with pytest.raises(ConfigurationError):
        P(0, {"r": 1}, BASIS) * P(0, {"r": 1}, other)


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=60)
phases = st.builds(
    lambda q, c1, c2: Phase(q, {"r": c1, "s": c2}, BASIS),
    rationals,
    rationals,
    rationals,
)


@given(phases, phases, phases)
def test_group_laws(p, q, s):
    assert (p * q) * s == p * (q * s)
    assert p * q == q * p
    assert p * p.inverse() == ZERO


@given(phases, rationals, rationals)
def test_scale_is_additive_in_the_scalar(p, a, b):
    assert p.scale(a + b) == p.scale(a) * p.scale(b)


@given(phases)
def test_torsion_scaling_kills_the_angle(p):
    if p.is_torsion():
        assert p.scale(p.rational.denominator) == ZERO


@given(phases, phases)
def test_complex_export_is_multiplicative(p, q):
    assert abs((p * q).to_complex() - p.to_complex() * q.to_complex()) < 1e-10


def test_json_roundtrip():
    p = P(Fraction(3, 7), {"r": Fraction(-2, 5)}, BASIS)
    assert phase_from_json(phase_to_json(p), BASIS) == p
    assert phase_from_json({"rat": [1, 2]}) == P(Fraction(1, 2))
    assert phase_from_json([1, 3]) == P(Fraction(1, 3))
    assert phase_from_json(0) == ZERO
    with pytest.raises(ConfigurationError):
        phase_from_json("bad")


@pytest.mark.parametrize(
    "literal",
    [[1, 0], {"rat": [1, 0]}, {"irr": {"r": [2, 0]}}, [1], [1, 2, 3], {"rat": [1]}, {"rat": [1, "x"]}, {"irr": {"r": 3}}],
)
def test_malformed_rational_pairs_are_configuration_errors(literal):
    with pytest.raises(ConfigurationError, match="zero denominator|must be \\[p, q\\]"):
        phase_from_json(literal, BASIS)


def test_canonical_representative():
    assert P(Fraction(7, 2)).rational == Fraction(1, 2)
    assert P(Fraction(-1, 3)).rational == Fraction(2, 3)
    assert Phase(0, {"r": 0}).irr == ()


def test_a_phase_is_immutable_and_multiplies_only_phases():
    p = P(Fraction(1, 3), {"r": 1}, BASIS)
    with pytest.raises(AttributeError, match="immutable"):
        p.k = 0
    with pytest.raises(TypeError):
        p * 2


# -- the canonical integer angle ---------------------------------------------

SYMBOLS = ("r", "s", "t")
parts = st.tuples(rationals, st.dictionaries(st.sampled_from(SYMBOLS), rationals, max_size=3))


def _phase(part):
    return Phase(part[0], part[1], BASIS)


def _is_canonical(p):
    return (
        0 <= p.k < p.den
        and list(p.syms) == sorted(set(p.syms))
        and len(p.cs) == len(p.syms)
        and 0 not in p.cs
        and math.gcd(p.k, p.den, *p.cs) == 1
    )


@given(parts, st.integers(1, 30), st.integers(-3, 3))
def test_of_angle_reduces_any_angle_to_the_fraction_built_phase(part, m, turns):
    """An angle over any multiple of its denominator, with any number of
    whole turns added and zero coefficients kept, reduces to the phase built
    from the Fractions, with the same fields and hash."""
    rat, irr = part
    syms = tuple(sorted(irr))
    D = math.lcm(Fraction(rat).denominator, *(Fraction(c).denominator for c in irr.values())) * m
    a = (int(rat * D) + turns * D, tuple(int(irr[s] * D) for s in syms), D)
    p, q = Phase.of_angle(a, syms, BASIS), _phase(part)
    assert _is_canonical(p) and p == q and hash(p) == hash(q)
    assert (p.rational, p.irr) == fraction_combination((1, part))


@given(parts, st.integers(1, 30))
def test_angle_round_trips_over_any_multiple_of_the_denominator(part, m):
    p = _phase(part)
    for symbols in (p.syms, SYMBOLS):
        a = p.angle(p.den * m, symbols)
        assert a[2] == p.den * m and len(a[1]) == len(symbols)
        assert Phase.of_angle(a, symbols, BASIS) == p
    if p.syms:
        with pytest.raises(ConfigurationError, match="outside the symbols"):
            p.angle(p.den, ())


@given(parts, parts, rationals)
def test_group_law_matches_the_fraction_reference(a, b, c):
    p, q = _phase(a), _phase(b)
    for got, want in [
        (p * q, fraction_combination((1, a), (1, b))),
        (p.inverse(), fraction_combination((-1, a))),
        (p.scale(c), fraction_combination((c, a))),
    ]:
        assert _is_canonical(got)
        assert (got.rational, got.irr) == want
        assert got.is_zero() == (want == (0, ())) and got.is_torsion() == (not want[1])
