"""Shell counts, superpolynomial probes, decay falsification, torus orbits."""

import itertools
from fractions import Fraction

import pytest

from oracles import two_way_orbit_size

from twistlab.cocycles import TrivialCocycle, build_cocycle
from twistlab.errors import SpecError
from twistlab.groups import get_group
from twistlab.growth import (
    LengthFunction,
    class_growth_counts,
    kappa_decay_probe,
    phi1_iterate_angles,
    star_discrepancy_grid,
    superpolynomial_probe,
    torus_orbit_probe,
)
from twistlab.phase import IrrationalBasis, Phase
from twistlab.spectral import FiniteFunction

BASIS = IrrationalBasis({"r": 0.6180339887498949})
R = {"rat": [0, 1], "irr": {"r": [1, 1]}}

Z = get_group({"family": "free", "rank": 1})
F2 = get_group({"family": "free", "rank": 2})
SZ = get_group({"family": "sum_z"})
BS = get_group({"family": "bs_nn", "n": 2})


def test_length_function_parse():
    k = LengthFunction.parse(F2, "(1+L)^2")
    assert k.power == 2
    assert k(F2.word("a b")) == 9.0
    assert LengthFunction.parse(F2, "1+L")(F2.word("a")) == 2.0
    assert LengthFunction.parse(F2, "1")(F2.word("a b a")) == 1.0
    half = LengthFunction.parse(F2, "(1+L)^(3/2)")
    assert half.power == Fraction(3, 2)


def test_abelian_profile_is_a_single_shell():
    kappa = LengthFunction(SZ)
    g = SZ.element(((0, 2),))
    profile = class_growth_counts(g, kappa, 8, 4)
    assert profile.counts[3] == 1  # kappa = 1 + 2
    assert sum(profile.counts.values()) == 1


def test_free_group_shell_growth_oracle():
    """Brute-force conjugator enumeration fixes the shell counts exactly."""
    kappa = LengthFunction(F2)
    profile = class_growth_counts(F2.word("a"), kappa, 6, 7)
    # conjugates of a of reduced length 2j+1 in the shell 2j+2
    brute = {}
    for h in F2.ball(7):
        c = F2.conjugate(h, F2.word("a"))
        brute[c] = 1 + F2.length(c)
    expect = {}
    for val in brute.values():
        if val <= 6:
            expect[val] = expect.get(val, 0) + 1
    for k in range(1, 7):
        assert profile.counts.get(k, 0) == expect.get(k, 0)
    # geometric growth between populated shells
    populated = [profile.counts[k] for k in sorted(profile.counts) if profile.counts[k]]
    assert all(b >= 2 * a for a, b in zip(populated, populated[1:]))


def test_bs_noncentral_class_grows_with_radius():
    kappa = LengthFunction(BS)
    small = class_growth_counts(BS.word("b"), kappa, 12, 2)
    large = class_growth_counts(BS.word("b"), kappa, 12, 4)
    assert sum(large.counts.values()) > sum(small.counts.values())
    # monotone per shell
    for k in range(1, 13):
        assert large.counts.get(k, 0) >= small.counts.get(k, 0)


def test_superpolynomial_probe():
    zero = class_growth_counts(SZ.element(((0, 1),)), LengthFunction(SZ), 6, 3)
    res = superpolynomial_probe(zero, [0, 1, 2])
    assert all(not v["exceeds"] for v in res.values())
    # shell 2j+2 of the class of a holds 2*3^j conjugates; the geometric count
    # first beats k^3 at shell 20, which needs conjugators of length 9
    profile = class_growth_counts(F2.word("a"), LengthFunction(F2), 20, 10)
    res = superpolynomial_probe(profile, [1, 2, 3])
    assert res[1] == {"exceeds": True, "crossing_shell": 8}
    assert res[2] == {"exceeds": True, "crossing_shell": 12}
    assert res[3] == {"exceeds": True, "crossing_shell": 20}


def test_decay_probe_integers_rd():
    triv = TrivialCocycle(Z)
    kappa = LengthFunction(Z, Fraction(2))
    rep = kappa_decay_probe(Z, triv, kappa, 10.0, 30, 8, seed=0)
    assert not rep.violated
    assert 0 < rep.max_ratio < 1


def test_decay_probe_free_group_violation():
    triv = TrivialCocycle(F2)
    kappa = LengthFunction(F2, Fraction(0))  # constant weight 1
    f = FiniteFunction(
        F2, {F2.word("a"): 1, F2.word("A"): 1, F2.word("b"): 1, F2.word("B"): 1}
    )
    rep = kappa_decay_probe(F2, triv, kappa, 1.0, 1, 8, functions=[f])
    assert rep.violated
    v = rep.violations[0]
    assert v["lower_bound"] > 1.0 * v["weighted_norm"]
    assert v["revalidated_at_radius_plus_2"]
    # ||f||_{2,kappa} = 2 and the compression approaches the free-group norm
    assert abs(v["weighted_norm"] - 2.0) < 1e-12
    assert v["lower_bound"] > 3.0


def test_decay_single_point_never_violates():
    sig = build_cocycle({"kind": "bs", "lambda": R}, BS, BASIS)
    kappa = LengthFunction(BS)
    f = FiniteFunction.delta(BS.word("a b"), 0.7, exact=False)
    rep = kappa_decay_probe(BS, sig, kappa, 1.0, 1, 4, functions=[f])
    assert not rep.violated


def test_decay_probe_stops_at_the_given_functions_and_skips_the_zero_one():
    triv = TrivialCocycle(Z)
    kappa = LengthFunction(Z, Fraction(2))
    f = FiniteFunction.delta(Z.word("a"), 1.0, exact=False)
    one = kappa_decay_probe(Z, triv, kappa, 10.0, 1, 4, functions=[f])
    short = kappa_decay_probe(Z, triv, kappa, 10.0, 3, 4, functions=[f])
    assert (short.max_ratio, short.violations) == (one.max_ratio, one.violations) and one.max_ratio > 0
    empty = kappa_decay_probe(Z, triv, kappa, 10.0, 1, 4, functions=[FiniteFunction(Z, {})])
    assert (empty.max_ratio, empty.violations) == (0.0, [])


def test_torus_orbit_refuses_an_unknown_map():
    with pytest.raises(SpecError) as err:
        torus_orbit_probe(Phase(0), None, (Phase(0), Phase(0)), 10, which="nope")
    assert err.value.path == "which"


def test_torus_orbit_torsion_first_coordinate():
    nu1 = Phase(Fraction(1, 5))
    rep = torus_orbit_probe(nu1, None, (Phase(0), Phase(0)), 200, which="phi1")
    assert rep["finite_certified"]
    firsts = {round(phi1_iterate_angles((0.0, 0.0), 0.2, n)[0], 9) for n in range(1, 200)}
    assert len(firsts) <= 5


def test_torus_orbit_closed_form_matches_iteration():
    """Step-by-step application of the map agrees with the closed form."""
    nu = 0.19
    step = (0.3, 0.7)
    for n in range(1, 12):
        step = ((nu + step[0]) % 1.0, (2 * step[0] + step[1]) % 1.0)
        closed = phi1_iterate_angles((0.3, 0.7), nu, n)
        assert abs(step[0] - closed[0]) < 1e-9
        assert min(abs(step[1] - closed[1]), 1 - abs(step[1] - closed[1])) < 1e-9


def test_torus_orbit_equidistribution_trend():
    nu1 = Phase(0, {"r": 1}, BASIS)
    small = torus_orbit_probe(nu1, None, (Phase(0), Phase(0)), 200, which="phi1")
    large = torus_orbit_probe(nu1, None, (Phase(0), Phase(0)), 4000, which="phi1")
    assert not small["finite_certified"]
    assert large["discrepancy"] < small["discrepancy"]


def test_torus_orbit_both_maps_trivial_parameters():
    zero = Phase(0)
    rep = torus_orbit_probe(zero, zero, (Phase(0), Phase(0)), 100, which="both")
    assert rep["finite_certified"]
    assert rep["orbit_size"] == 1  # (1,1) is fixed by both maps when the units are 1
    third = Phase(Fraction(1, 3))
    rep2 = torus_orbit_probe(third, third, (Phase(0), Phase(0)), 50, which="both")
    assert rep2["finite_certified"] and rep2["orbit_size"] is not None
    assert rep2["orbit_size"] > 1
    capped = torus_orbit_probe(third, third, (Phase(0), Phase(0)), 50, which="both", orbit_cap=1)
    assert capped["orbit_size"] is None and not capped["finite_certified"]


def test_the_forward_orbit_walk_equals_the_two_way_walk():
    """On torsion parameters and starts the maps permute one finite
    subgroup of the torus, so the walk by the maps alone finds the orbit
    of the maps and their inverses, and passes each cap exactly when that
    orbit does."""
    third, half = Phase(Fraction(1, 3)), Phase(Fraction(1, 2))
    nus = [Phase(0), half, third, Phase(Fraction(2, 5)), Phase(Fraction(3, 4))]
    starts = [(Phase(0), Phase(0)), (half, third), (Phase(Fraction(1, 4)), Phase(Fraction(5, 6)))]
    sizes = set()
    for nu1, nu2, start, which, cap in itertools.product(
        nus, [None, third, Phase(Fraction(3, 4))], starts, ["phi1", "phi2", "both"], [1, 7, 10**5]
    ):
        if nu2 is None and which != "phi1":
            continue
        want = two_way_orbit_size(nu1, nu2, start, which, cap)
        assert torus_orbit_probe(nu1, nu2, start, 1, which, cap)["orbit_size"] == want, (nu1, nu2, start, which, cap)
        sizes.add(want)
    assert None in sizes and 1 in sizes and max(s for s in sizes if s) > 100


def test_finite_flag_agrees_with_torsion():
    for nu, want in [(Phase(Fraction(2, 7)), True), (Phase(0, {"r": 1}, BASIS), False)]:
        rep = torus_orbit_probe(nu, None, (Phase(0), Phase(0)), 50, which="phi1")
        assert rep["finite_certified"] == want == nu.is_torsion()


def test_star_discrepancy_sanity():
    # a uniform grid has small discrepancy; a degenerate cloud has large
    pts = [((i + 0.5) / 20, (j + 0.5) / 20) for i in range(20) for j in range(20)]
    assert star_discrepancy_grid(pts) < 0.1
    assert star_discrepancy_grid([(0.1, 0.1)] * 50) > 0.5
