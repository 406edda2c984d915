"""Deciders, the periodicity test, condition X, and the classifier rules."""

import contextlib
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st
from oracles import crc_coboundary

from twistlab.cocycles import TrivialCocycle, build_cocycle, SimilarTwist, CoboundaryFn
from twistlab.errors import SpecError
from twistlab.fixtures import FIXTURES, run_fixture_matrix
from twistlab import groups
from twistlab.groups import get_group
from twistlab.phase import ZERO, IrrationalBasis, Phase
from twistlab.regularity import is_regular_wrt_subgroup, is_sigma_regular
from twistlab.verdicts import (
    CITES,
    _character_relation,
    bitstream_periodic,
    check_condition_x,
    class_finite_certified,
    classify,
    decide_kleppner,
    decide_relative_kleppner,
)

BASIS = IrrationalBasis({"r": 0.3819660112501051})
R = {"rat": [0, 1], "irr": {"r": [1, 1]}}
ONE_MINUS_R = {"rat": [1, 1], "irr": {"r": [-1, 1]}}

SZ = get_group({"family": "sum_z"})
SZ2 = get_group({"family": "sum_z2"})
W = get_group({"family": "wreath", "base": "Z"})
L = get_group({"family": "wreath", "base": "Z2"})
FW = get_group({"family": "wreath", "base": "Z2", "acting": 3})
AN = get_group({"family": "zn_semidirect", "A": [[2, 1], [1, 1]]})
SAN = get_group({"family": "sanov"})
BS = get_group({"family": "bs_nn", "n": 2})
FZ = get_group({"family": "free_times_z"})
F2 = get_group({"family": "free", "rank": 2})


# -- bitstream periodicity ---------------------------------------------------


def test_periodicity_finite_nonempty():
    res = bitstream_periodic([1], [])
    assert not res.periodic


def test_periodicity_odd_support():
    res = bitstream_periodic([], [1, 0])
    assert res.periodic and res.period == 2


def test_periodicity_even_support():
    res = bitstream_periodic([], [0, 1])
    assert not res.periodic
    assert "0" in res.reason  # the zero-boundary obstruction


def test_periodicity_empty():
    res = bitstream_periodic([], [])
    assert res.periodic and res.period == 1


def test_periodicity_pre_consistency():
    # pre [1,0] matches the repeating block [1,0]: still the odd set
    assert bitstream_periodic([1, 0], [1, 0]).periodic
    # broken preperiod destroys pure periodicity
    assert not bitstream_periodic([0, 0], [1, 0]).periodic


def test_periodicity_longer_block():
    # block (1,1,0): symmetric? bit(3)=0, bit(1)=1 == bit(2)=1: periodic
    res = bitstream_periodic([], [1, 1, 0])
    assert res.periodic and res.period == 3
    # block (1,0,0): bit(1)=1 != bit(2)=0: mirror symmetry fails
    assert not bitstream_periodic([], [1, 0, 0]).periodic


# -- Kleppner ----------------------------------------------------------------


def test_kleppner_trivial_theta_witness_e0():
    sig = build_cocycle({"kind": "theta_diag", "diagonals": []}, SZ)
    v = decide_kleppner(SZ, sig)
    assert v.status == "refuted"
    assert v.witness == SZ.basis_element(0)


def test_kleppner_finite_bandwidth_rules():
    irr = build_cocycle({"kind": "theta_diag", "diagonals": [R]}, SZ, BASIS)
    assert decide_kleppner(SZ, irr).status == "certified"
    tors = build_cocycle({"kind": "theta_diag", "diagonals": [[1, 2], [1, 3]]}, SZ)
    v = decide_kleppner(SZ, tors)
    assert v.status == "refuted"
    assert v.witness == SZ.basis_element(0, 6)  # lcm of the torsion orders
    assert is_sigma_regular(tors, v.witness).is_regular_certified


def test_kleppner_prime_reciprocal():
    sig = build_cocycle({"kind": "theta_rule", "rule": "prime_reciprocal"}, SZ)
    assert decide_kleppner(SZ, sig).status == "certified"


def test_kleppner_period4_kernel_scan():
    sig = build_cocycle(
        {"kind": "theta_diag", "diagonals": [], "period": [R, [0, 1], ONE_MINUS_R, [0, 1]]},
        SZ,
        BASIS,
    )
    v = decide_kleppner(SZ, sig)
    assert v.status == "refuted"
    assert is_sigma_regular(sig, v.witness).is_regular_certified
    # candidate witnesses are validated and preferred
    e13 = SZ.element(((1, 1), (3, 1)))
    v2 = decide_kleppner(SZ, sig, candidates=[e13])
    assert v2.witness == e13
    # a bogus candidate is ignored, not trusted
    bogus = SZ.basis_element(0)
    v3 = decide_kleppner(SZ, sig, candidates=[bogus])
    assert v3.witness != bogus


def test_kleppner_bitstreams():
    non = build_cocycle({"kind": "bitstream", "pre": [1], "period": []}, SZ2)
    assert decide_kleppner(SZ2, non).status == "certified"
    per = build_cocycle({"kind": "bitstream", "pre": [], "period": [1, 0]}, SZ2)
    v = decide_kleppner(SZ2, per)
    assert v.status == "refuted" and v.witness == SZ2.element((0, 2))
    empty = build_cocycle({"kind": "bitstream", "pre": [], "period": []}, SZ2)
    v2 = decide_kleppner(SZ2, empty)
    assert v2.status == "refuted" and v2.witness == SZ2.basis_element(0)


def test_kleppner_bs_rules():
    lam3 = build_cocycle({"kind": "bs", "lambda": [1, 3]}, BS)
    v = decide_kleppner(BS, lam3)
    assert v.status == "refuted" and v.witness == BS.b_power(6)
    assert is_sigma_regular(lam3, v.witness).is_regular_certified
    assert class_finite_certified(v.witness)
    lam_irr = build_cocycle({"kind": "bs", "lambda": R}, BS, BASIS)
    assert decide_kleppner(BS, lam_irr).status == "certified"
    # order six interacts with n=2: smallest central regular power is b^6
    lam6 = build_cocycle({"kind": "bs", "lambda": [1, 6]}, BS)
    v6 = decide_kleppner(BS, lam6)
    assert v6.status == "refuted" and v6.witness == BS.b_power(6)


def test_kleppner_icc_families():
    for G, sig in [
        (W, build_cocycle({"kind": "lift", "base": {"kind": "theta_diag", "diagonals": []}}, W)),
        (SAN, build_cocycle({"kind": "sanov", "mu0": [1, 2], "mu1": [0, 1], "mu2": [0, 1]}, SAN)),
        (F2, TrivialCocycle(F2)),
        (AN, build_cocycle({"kind": "lift", "base": {"kind": "antisym_theta", "theta": [0, 1]}}, AN)),
    ]:
        assert decide_kleppner(G, sig).status == "certified"


def test_kleppner_similarity_invariant():
    lam3 = build_cocycle({"kind": "bs", "lambda": [1, 3]}, BS)
    twisted = SimilarTwist(lam3, CoboundaryFn.zero(BS))
    v = decide_kleppner(BS, twisted)
    assert v.status == "refuted" and v.witness == BS.b_power(6)


def test_kleppner_budget_monotone():
    sig = build_cocycle(
        {"kind": "theta_diag", "diagonals": [], "period": [R, [0, 1], ONE_MINUS_R, [0, 1]]},
        SZ,
        BASIS,
    )
    small = decide_kleppner(SZ, sig, radius=2)
    big = decide_kleppner(SZ, sig, radius=5)
    assert small.status == "refuted" and big.status == "refuted"
    # a certified verdict is budget-independent
    prime = build_cocycle({"kind": "theta_rule", "rule": "prime_reciprocal"}, SZ)
    assert decide_kleppner(SZ, prime, radius=0).status == "certified"


def test_kleppner_search_stops_at_the_first_witness_within_the_budget():
    # the radius-6 ball has 579,125 elements; e0 is the first of shell 1
    v = decide_kleppner(SZ, TrivialCocycle(SZ), radius=6, node_budget=50)
    assert (v.status, v.rule, v.witness) == ("refuted", "kernel_scan", SZ.basis_element(0))


def test_kleppner_trivial_cocycle_on_bs_refuted_by_central_scan():
    sig = TrivialCocycle(BS)
    v = decide_kleppner(BS, sig, radius=4)
    assert v.status == "refuted"
    assert BS.center().contains(v.witness)


def test_a_candidate_witness_needs_a_nontrivial_element_with_a_certified_finite_class():
    """Both candidates are regular for the trivial cocycle, but the identity
    is trivial and the class of a is not certified finite, so the search
    goes on to the central b b."""
    v = decide_kleppner(BS, TrivialCocycle(BS), radius=2, candidates=[BS.identity(), BS.word("a")])
    assert (v.status, v.rule, v.witness) == ("refuted", "central_regular_witness", BS.word("b b"))


@pytest.mark.parametrize("decide", [decide_kleppner, partial(decide_relative_kleppner, subgroup_name="center")])
def test_deciders_refuse_a_cocycle_on_another_group(decide):
    with pytest.raises(SpecError, match="cocycle does not live on the given group"):
        decide(BS, sigma=TrivialCocycle(FZ))


@pytest.mark.parametrize("G", [BS, get_group({"family": "bs_nn", "n": 3}), FZ], ids=lambda G: G.key)
def test_class_finiteness_is_certified_exactly_on_the_center(G):
    for g in G.ball(5):
        assert class_finite_certified(g) == G.center().contains(g)


def test_f2xz_kleppner():
    tors = build_cocycle({"kind": "f2xz", "mu": [1, 3], "nu": [1, 5]}, FZ)
    v = decide_kleppner(FZ, tors)
    assert v.status == "refuted" and v.witness == FZ.pair("", 15)
    non = build_cocycle({"kind": "f2xz", "mu": R, "nu": [0, 1]}, FZ, BASIS)
    assert decide_kleppner(FZ, non).status == "certified"


def test_finite_group_kleppner():
    v = decide_kleppner(FW, TrivialCocycle(FW))
    assert v.status == "refuted" and v.rule == "finite_exhaustive"


# -- relative Kleppner ---------------------------------------------------------


def test_relative_full_and_trivial():
    sig = TrivialCocycle(BS)
    assert decide_relative_kleppner(BS, "full", sig).status == "certified"
    v = decide_relative_kleppner(BS, "trivial", sig)
    assert v.status == "refuted" and v.witness is not None


def test_relative_wreath():
    lift = build_cocycle({"kind": "lift", "base": {"kind": "bitstream", "pre": [], "period": [1, 0]}}, L)
    assert decide_relative_kleppner(L, "base", lift).status == "certified"
    v = decide_relative_kleppner(FW, "base", TrivialCocycle(FW))
    assert v.status == "refuted"
    assert is_regular_wrt_subgroup(TrivialCocycle(FW), v.witness, "base").is_regular_certified


def test_relative_bs():
    lam3 = build_cocycle({"kind": "bs", "lambda": [1, 3]}, BS)
    v = decide_relative_kleppner(BS, "center", lam3)
    assert v.status == "refuted" and v.witness == BS.word("a a a")
    assert is_regular_wrt_subgroup(lam3, v.witness, "center").is_regular_certified
    lam_irr = build_cocycle({"kind": "bs", "lambda": R}, BS, BASIS)
    assert decide_relative_kleppner(BS, "center", lam_irr).status == "certified"


def test_relative_bs_refutes_through_a_candidate():
    """A candidate that is regular outside the center refutes before the
    closed form: a is not regular for lambda = 1/3, a^3 and a^6 are."""
    lam3 = build_cocycle({"kind": "bs", "lambda": [1, 3]}, BS)
    for candidates, witness in (
        ([BS.word("a"), BS.word("a a a")], BS.word("a a a")),
        ([BS.word("a a a a a a")], BS.word("a a a a a a")),
    ):
        v = decide_relative_kleppner(BS, "center", lam3, candidates=candidates)
        assert (v.status, v.rule, v.witness) == ("refuted", "bs_relk", witness)


def test_relative_sanov_and_semidirect():
    ss = build_cocycle({"kind": "sanov", "mu0": [1, 2], "mu1": [1, 3], "mu2": [1, 5]}, SAN)
    assert decide_relative_kleppner(SAN, "base", ss).status == "certified"
    sa = build_cocycle({"kind": "lift", "base": {"kind": "antisym_theta", "theta": [1, 3]}}, AN)
    assert decide_relative_kleppner(AN, "base", sa).status == "certified"


def test_relative_f2xz_character_relations():
    # both torsion: a relation always exists
    tors = build_cocycle({"kind": "f2xz", "mu": [1, 3], "nu": [1, 5]}, FZ)
    v = decide_relative_kleppner(FZ, "z", tors)
    assert v.status == "refuted"
    assert is_regular_wrt_subgroup(tors, v.witness, "z").is_regular_certified
    # independent symbols: no integer relation
    basis2 = IrrationalBasis({"r": 0.3819660112501051, "s": 0.7071067811865476})
    indep = build_cocycle(
        {"kind": "f2xz", "mu": {"rat": [0, 1], "irr": {"r": [1, 1]}}, "nu": {"rat": [0, 1], "irr": {"s": [1, 1]}}},
        FZ,
        basis2,
    )
    assert decide_relative_kleppner(FZ, "z", indep).status == "certified"
    # equal irrational parts: the difference word is regular
    same = build_cocycle({"kind": "f2xz", "mu": R, "nu": R}, FZ, BASIS)
    v2 = decide_relative_kleppner(FZ, "z", same)
    assert v2.status == "refuted"
    assert is_regular_wrt_subgroup(same, v2.witness, "z").is_regular_certified


HALF_MINUS_R = {"rat": [1, 2], "irr": {"r": [-1, 1]}}


@pytest.mark.parametrize(
    "mu, nu, word",
    [([1, 2], [1, 2], "a b"), ([1, 4], [5, 6], "a a b b b"), (R, HALF_MINUS_R, "a a b b")],
    ids=["half_half", "quarter_five_sixths", "r_half_minus_r"],
)
def test_relative_f2xz_witness_is_the_first_hermite_relation(mu, nu, word):
    """The witness word a^j b^k comes from the first Hermite vector (j, k)
    of the relation lattice, whose pivot is positive."""
    sig = build_cocycle({"kind": "f2xz", "mu": mu, "nu": nu}, FZ, BASIS)
    v = decide_relative_kleppner(FZ, "z", sig)
    assert (v.status, v.rule) == ("refuted", "f2xz_relk")
    assert FZ.element_to_json(v.witness) == {"w": word, "k": 0}
    assert is_regular_wrt_subgroup(sig, v.witness, "z").is_regular_certified


def _phases():
    rational = st.builds(Fraction, st.integers(0, 11), st.sampled_from([1, 2, 3, 4, 6, 12]))
    coefficient = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
    irr = st.dictionaries(st.sampled_from("rs"), coefficient, max_size=2)
    return st.builds(Phase, rational, irr)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(mu=_phases(), nu=_phases())
def test_character_relation_is_a_relation_or_none_exists(mu, nu):
    rel = _character_relation(mu, nu)
    if rel is not None:
        j, k = rel
        assert (j, k) != (0, 0)
        assert mu.scale(j) * nu.scale(k) == ZERO
    else:
        assert all(
            (mu.scale(j) * nu.scale(k)) != ZERO
            for j in range(-12, 13)
            for k in range(-12, 13)
            if (j, k) != (0, 0)
        )


# -- condition X ----------------------------------------------------------------


def test_condition_x_irrational():
    sig = build_cocycle({"kind": "lift", "base": {"kind": "antisym_theta", "theta": R}}, AN, BASIS)
    assert check_condition_x(AN, sig, "base").status == "certified"


def test_condition_x_trivial_fails_at_first_vector():
    sig = build_cocycle({"kind": "lift", "base": {"kind": "antisym_theta", "theta": [0, 1]}}, AN)
    v = check_condition_x(AN, sig, "base")
    assert v.status == "refuted" and v.witness == AN.pair((1, 0), 0)


def test_condition_x_rational_denominator():
    sig = build_cocycle({"kind": "lift", "base": {"kind": "antisym_theta", "theta": [1, 6]}}, AN)
    v = check_condition_x(AN, sig, "base")
    # 2*(1/6) = 1/3: multiples of 3 kill the asymmetry
    assert v.status == "refuted" and v.witness == AN.pair((3, 0), 0)


def test_condition_x_full_reduces_to_kleppner():
    sig = build_cocycle({"kind": "theta_rule", "rule": "prime_reciprocal"}, SZ)
    v = check_condition_x(SZ, sig, "full")
    assert v.status == "certified" and v.rule == "condition_x_reduce"


def test_condition_x_generic_search_counts_the_elements_with_a_partner():
    # restricted to the full subgroup the lift is no longer a lift, so no
    # family rule applies and every base element of the ball is searched
    sig = build_cocycle({"kind": "lift", "base": {"kind": "antisym_theta", "theta": R}}, AN, BASIS)
    v = check_condition_x(AN, sig.restrict("full"), "base", radius=2)
    assert (v.status, v.rule, v.bound, v.detail) == ("inconclusive", "", 2, "witnesses found for 12 elements")


def test_condition_x_on_a_lift_of_a_non_skew_base_falls_back_to_the_search():
    sig = build_cocycle({"kind": "lift", "base": T}, AN)
    v = check_condition_x(AN, sig, "base", radius=2)
    assert (v.status, v.rule, v.detail) == ("inconclusive", "", f"no witness found for {AN.pair((0, 1), 0)!r}")


def test_condition_x_metadata_missing():
    with pytest.raises(SpecError):
        check_condition_x(BS, TrivialCocycle(BS), "center")


# -- classify -------------------------------------------------------------------


def test_classify_consistency_and_rules():
    cases = [
        (W, {"kind": "lift", "base": {"kind": "theta_rule", "rule": "prime_reciprocal"}}, ("certified",) * 3),
        (BS, {"kind": "bs", "lambda": [1, 3]}, ("refuted",) * 3),
        (SAN, {"kind": "sanov", "mu0": [1, 2], "mu1": [1, 3], "mu2": [1, 5]}, ("certified", "refuted", "refuted")),
        (FZ, {"kind": "f2xz", "mu": [1, 3], "nu": [1, 5]}, ("refuted",) * 3),
        (F2, {"kind": "trivial"}, ("certified",) * 3),
        (FW, {"kind": "trivial"}, ("refuted",) * 3),
    ]
    for G, spec, want in cases:
        sig = build_cocycle(spec, G, BASIS)
        rep = classify(G, sig)
        got = (rep.kleppner.status, rep.unique_trace.status, rep.cstar_simple.status)
        assert got == want, (G.family, got)
        # the necessity constraint holds on every report
        if rep.unique_trace.status == "certified" or rep.cstar_simple.status == "certified":
            assert rep.kleppner.status != "refuted"
        assert rep.rule_trace


def test_classify_anosov_rational_vs_irrational():
    irr = build_cocycle({"kind": "lift", "base": {"kind": "antisym_theta", "theta": R}}, AN, BASIS)
    rep = classify(AN, irr)
    assert (rep.kleppner.status, rep.unique_trace.status, rep.cstar_simple.status) == ("certified",) * 3
    rat = build_cocycle({"kind": "lift", "base": {"kind": "antisym_theta", "theta": [1, 3]}}, AN)
    rep2 = classify(AN, rat)
    assert rep2.kleppner.status == "certified"
    assert rep2.unique_trace.status == "refuted"
    assert rep2.cstar_simple.status == "refuted"


def test_classify_lamplighter_odd_case():
    lift = build_cocycle({"kind": "lift", "base": {"kind": "bitstream", "pre": [], "period": [1, 0]}}, L)
    rep = classify(L, lift)
    assert rep.kleppner.status == "certified"
    assert rep.unique_trace.status == "refuted"
    assert rep.cstar_simple.status == "refuted"
    assert rep.cstar_simple.rule == "lamplighter_odd_periodic"
    # other periodic streams: simplicity stays undetermined
    lift2 = build_cocycle(
        {"kind": "lift", "base": {"kind": "bitstream", "pre": [], "period": [1, 1, 0]}}, L
    )
    rep2 = classify(L, lift2)
    assert rep2.unique_trace.status == "refuted"
    assert rep2.cstar_simple.status == "inconclusive"


def test_classify_wreath_trivial_cocycle():
    rep = classify(W, TrivialCocycle(W))
    assert rep.kleppner.status == "certified"  # the group is ICC
    assert rep.unique_trace.status == "refuted"  # base pair fails Kleppner
    assert rep.cstar_simple.status == "inconclusive"


def test_classify_wreath_with_an_undecided_base_pair_notes_the_rule_and_decides_nothing():
    # all diagonals irrational: no box up to radius 2 holds a regular vector
    sig = build_cocycle({"kind": "lift", "base": {"kind": "theta_diag", "diagonals": [], "period": [R]}}, W, BASIS)
    rep = classify(W, sig, radius=2)
    assert (rep.unique_trace.status, rep.unique_trace.rule, rep.unique_trace.bound) == ("inconclusive", "", 2)
    assert (rep.cstar_simple.status, rep.cstar_simple.rule) == ("inconclusive", "")
    assert [e["rule"] for e in rep.rule_trace] == ["icc_family", "wreath_ut"]


def test_classify_product_cocycle():
    prod = build_cocycle(
        {"kind": "product", "left": {"kind": "trivial"}, "right": {"kind": "trivial"}}, FZ
    )
    rep = classify(FZ, prod)
    assert (rep.kleppner.status, rep.unique_trace.status, rep.cstar_simple.status) == ("refuted",) * 3


def test_kleppner_is_inconclusive_where_the_box_keys_would_pass_int64():
    """Period entries r/(2^62 - 1) and r/(2^62 + 1) scale to keys past int64
    at every box, so the scan refuses and the verdict says why."""
    two = IrrationalBasis({"r": 0.3819660112501051, "s": 0.25})
    period = [{"rat": [0, 1], "irr": {"r": [1, 2**62 - 1]}}, {"rat": [0, 1], "irr": {"r": [1, 2**62 + 1]}}]
    v = decide_kleppner(SZ, build_cocycle({"kind": "theta_diag", "diagonals": [], "period": period}, SZ, two))
    assert (v.status, v.rule, v.bound) == ("inconclusive", "", 6)
    assert "int64 keys would overflow" in v.detail


def test_classify_inconclusive_reports_bound():
    # no rule knows this pair: a parity-split twist of the odd bitstream lifted nowhere
    sig = SimilarTwist(TrivialCocycle(SAN), CoboundaryFn.zero(SAN))

    class Opaque(TrivialCocycle):
        def structural(self):
            return self

        kind = "opaque"

    rep = classify(SAN, Opaque(SAN), radius=2)
    assert rep.kleppner.status == "certified"  # ICC metadata still applies
    assert rep.unique_trace.status == "inconclusive"
    assert rep.unique_trace.bound == 2


# -- rule paths and citations ---------------------------------------------------

C = "certified"
X = "refuted"
T = {"kind": "trivial"}
LIFT_ANOSOV = lambda theta: {"kind": "lift", "base": {"kind": "antisym_theta", "theta": theta}}
LIFT_BITS = lambda period: {"kind": "lift", "base": {"kind": "bitstream", "pre": [], "period": period}}

# group, cocycle, (status, rule) of kleppner / unique trace / simplicity, trace rules
RULE_PATHS = [
    pytest.param(
        SZ, {"kind": "theta_diag", "diagonals": [[1, 3], [1, 5]]},
        (X, "finite_bandwidth_torsion"), (X, "fc_hypercentral"), (X, "fc_hypercentral"),
        ["finite_bandwidth_torsion", "fc_hypercentral"], id="fc_hypercentral",
    ),
    pytest.param(
        FW, T,
        (X, "finite_exhaustive"), (X, "finite_factor"), (X, "finite_factor"),
        ["finite_exhaustive", "finite_factor"], id="finite_factor",
    ),
    pytest.param(
        W, {"kind": "lift", "base": {"kind": "theta_rule", "rule": "prime_reciprocal"}},
        (C, "icc_family"), (C, "wreath_ut"), (C, "wreath_ut"),
        ["icc_family", "wreath_ut"], id="wreath_ut_certified",
    ),
    pytest.param(
        L, LIFT_BITS([1, 0]),
        (C, "icc_family"), (X, "wreath_ut"), (X, "lamplighter_odd_periodic"),
        ["icc_family", "wreath_ut", "lamplighter_odd_periodic"], id="wreath_ut_refuted_odd",
    ),
    pytest.param(
        L, LIFT_BITS([1, 1, 0]),
        (C, "icc_family"), (X, "wreath_ut"), ("inconclusive", ""),
        ["icc_family", "wreath_ut"], id="wreath_ut_refuted",
    ),
    pytest.param(
        AN, LIFT_ANOSOV(R),
        (C, "icc_family"), (C, "anosov_equiv"), (C, "anosov_equiv"),
        ["icc_family", "anosov_equiv"], id="anosov_equiv_certified",
    ),
    pytest.param(
        AN, LIFT_ANOSOV([1, 3]),
        (C, "icc_family"), (X, "anosov_equiv"), (X, "anosov_equiv"),
        ["icc_family", "anosov_equiv"], id="anosov_equiv_refuted",
    ),
    pytest.param(
        SAN, {"kind": "sanov", "mu0": R, "mu1": [1, 3], "mu2": [1, 3]},
        (C, "icc_family"), (C, "sanov_equiv"), (C, "sanov_equiv"),
        ["icc_family", "sanov_equiv"], id="sanov_equiv_certified",
    ),
    pytest.param(
        SAN, {"kind": "sanov", "mu0": [1, 2], "mu1": [1, 3], "mu2": [1, 5]},
        (C, "icc_family"), (X, "sanov_equiv"), (X, "sanov_equiv"),
        ["icc_family", "sanov_equiv"], id="sanov_equiv_refuted",
    ),
    pytest.param(
        BS, {"kind": "bs", "lambda": [1, 3]},
        (X, "bs_torsion"), (X, "bs_equiv"), (X, "bs_equiv"),
        ["bs_torsion", "bs_equiv"], id="bs_equiv",
    ),
    pytest.param(
        FZ, {"kind": "f2xz", "mu": R, "nu": [1, 3]},
        (C, "f2xz_nontorsion"), (C, "f2xz_equiv"), (C, "f2xz_equiv"),
        ["f2xz_nontorsion", "f2xz_equiv"], id="f2xz_equiv",
    ),
    pytest.param(
        FZ, {"kind": "product", "left": T, "right": T},
        (X, "z_factor_fails"), (X, "product_rule"), (X, "product_rule"),
        ["z_factor_fails", "product_rule"], id="product_rule",
    ),
    pytest.param(
        F2, T,
        (C, "icc_family"), (C, "free_group"), (C, "free_group"),
        ["icc_family", "free_group"], id="free_group",
    ),
    pytest.param(
        BS, T,
        (X, "central_regular_witness"), (X, "kleppner_necessary"), (X, "kleppner_necessary"),
        ["central_regular_witness", "kleppner_necessary", "kleppner_necessary"], id="kleppner_necessary_bs",
    ),
    pytest.param(
        FZ, T,
        (X, "central_regular_witness"), (X, "kleppner_necessary"), (X, "kleppner_necessary"),
        ["central_regular_witness", "kleppner_necessary", "kleppner_necessary"], id="kleppner_necessary_f2xz",
    ),
]


@pytest.mark.parametrize("G, spec, kleppner, unique_trace, cstar_simple, trace", RULE_PATHS)
def test_classify_rule_path(G, spec, kleppner, unique_trace, cstar_simple, trace):
    rep = classify(G, build_cocycle(spec, G, BASIS), radius=3)
    assert (rep.kleppner.status, rep.kleppner.rule) == kleppner
    assert (rep.unique_trace.status, rep.unique_trace.rule) == unique_trace
    assert (rep.cstar_simple.status, rep.cstar_simple.rule) == cstar_simple
    assert [e["rule"] for e in rep.rule_trace] == trace


CITED_PAIRS = [(p.values[0], p.values[1]) for p in RULE_PATHS] + [
    (SZ, {"kind": "theta_rule", "rule": "prime_reciprocal"}),
    (SZ, {"kind": "theta_diag", "diagonals": [R]}),
    (SZ, {"kind": "theta_diag", "diagonals": [], "period": [R, [0, 1], ONE_MINUS_R, [0, 1]]}),
    (SZ2, {"kind": "bitstream", "pre": [1], "period": []}),
    (SZ2, {"kind": "bitstream", "pre": [], "period": [1, 0]}),
    (get_group({"family": "zn", "n": 2}), {"kind": "antisym_theta", "theta": R}),
    (get_group({"family": "zn", "n": 2}), {"kind": "antisym_theta", "theta": [1, 3]}),
    (BS, {"kind": "bs", "lambda": R}),
    (FZ, {"kind": "f2xz", "mu": [1, 3], "nu": [1, 5]}),
    (FZ, {"kind": "f2xz", "mu": R, "nu": ONE_MINUS_R}),
    (L, T),
    (get_group({"family": "wreath", "base": "Z2", "acting": 4}), {"kind": "lift", "base": {"kind": "bitstream", "pre": [0]}}),
]


def _without_witnesses(node):
    if isinstance(node, dict):
        return {k: _without_witnesses(v) for k, v in node.items() if k != "witness"}
    if isinstance(node, list):
        return [_without_witnesses(v) for v in node]
    return node


def test_verdicts_depend_only_on_the_cohomology_class():
    """The twisted algebras of sigma and of sigma conj(db) are isomorphic
    (Zeller-Meier), so every verdict is the same for both; a witness found
    by a search may differ and is left out."""
    for G, spec in CITED_PAIRS:
        sig = build_cocycle(spec, G, BASIS)
        twisted = SimilarTwist(sig, crc_coboundary(G))
        for decide in (classify, decide_kleppner):
            want = _without_witnesses(decide(G, sig, radius=3).to_json())
            assert _without_witnesses(decide(G, twisted, radius=3).to_json()) == want, (G.key, spec, decide)


def test_an_interned_cocycle_answers_as_a_fresh_build():
    """A second build of a spec is the first one, fetched from the group's
    table after it has answered; its verdicts equal those of a fresh build
    with every table cleared."""
    assert len(CITED_PAIRS) == 27
    for G, spec in CITED_PAIRS:
        first = build_cocycle(spec, G, BASIS)
        for decide in (classify, decide_kleppner):
            decide(G, first, radius=3)
        hit = build_cocycle(spec, G, BASIS)
        assert hit is first
        warm = [decide(G, hit, radius=3).to_json() for decide in (classify, decide_kleppner)]
        for group in {G, *groups._GROUP_CACHE.values()}:
            group._cocycles.clear()
        fresh = build_cocycle(spec, G, BASIS)
        assert fresh is not first
        assert [decide(G, fresh, radius=3).to_json() for decide in (classify, decide_kleppner)] == warm, (G.key, spec)


def _rules(node):
    """Every dict carrying a `rule` in a JSON report: verdicts and trace entries."""
    if isinstance(node, dict):
        if "rule" in node:
            yield node
        for v in node.values():
            yield from _rules(v)
    elif isinstance(node, list):
        for v in node:
            yield from _rules(v)


def test_every_decider_rule_is_cited():
    reports = []
    for G, spec in CITED_PAIRS:
        sig = build_cocycle(spec, G, BASIS)
        reports += [classify(G, sig, radius=3).to_json(), decide_kleppner(G, sig, radius=3).to_json()]
        for name in ("base", "center", "z", "z2", "full", "trivial"):
            with contextlib.suppress(SpecError):  # no such subgroup, or no condition X facts
                reports.append(decide_relative_kleppner(G, name, sig, radius=3).to_json())
            with contextlib.suppress(SpecError):
                reports.append(check_condition_x(G, sig, name, radius=3).to_json())
    rows = run_fixture_matrix(radius=3)["rows"]
    by_id = {fx.id: fx for fx in FIXTURES}
    reports += [r["got"]["report"] for r in rows if by_id[r["fixture"]].command != "regular"]
    entries = [e for rep in reports for e in _rules(rep)]
    assert len(entries) > 200
    for e in entries:
        assert e["rule"] in CITES, e
        assert e["cite"] == CITES[e["rule"]] and e["cite"], e
    assert {e["rule"] for e in entries} == set(CITES)


def test_every_decider_rule_fires_on_a_pinned_input():
    Z2 = get_group({"family": "zn", "n": 2})
    sig = lambda G, spec: build_cocycle(spec, G, BASIS)
    theta = lambda *diagonals: sig(SZ, {"kind": "theta_diag", "diagonals": list(diagonals)})
    bits = lambda pre, period: sig(SZ2, {"kind": "bitstream", "pre": pre, "period": period})
    bs, bs_irr = sig(BS, {"kind": "bs", "lambda": [1, 3]}), sig(BS, {"kind": "bs", "lambda": R})
    f2xz = sig(FZ, {"kind": "f2xz", "mu": [1, 3], "nu": [1, 5]})
    anosov_irr, anosov_rat = sig(AN, LIFT_ANOSOV(R)), sig(AN, LIFT_ANOSOV([1, 3]))
    sanov = sig(SAN, {"kind": "sanov", "mu0": R, "mu1": [1, 3], "mu2": [1, 5]})
    product = sig(FZ, {"kind": "product", "left": T, "right": T})
    pinned = {
        "icc_family": (C, decide_kleppner(F2, TrivialCocycle(F2))),
        "prime_reciprocal": (C, decide_kleppner(SZ, sig(SZ, {"kind": "theta_rule", "rule": "prime_reciprocal"}))),
        "finite_bandwidth_irrational": (C, decide_kleppner(SZ, theta(R))),
        "finite_bandwidth_torsion": (X, decide_kleppner(SZ, theta([1, 3]))),
        "kernel_scan": (X, decide_kleppner(SZ2, TrivialCocycle(SZ2), radius=2)),
        "bitstream_nonperiodic": (C, decide_kleppner(SZ2, bits([1], []))),
        "bitstream_periodic": (X, decide_kleppner(SZ2, bits([], [1, 0]))),
        "skew_nontorsion": (C, decide_kleppner(Z2, sig(Z2, {"kind": "antisym_theta", "theta": R}))),
        "skew_torsion": (X, decide_kleppner(Z2, sig(Z2, {"kind": "half_skew", "mu0": [1, 3]}))),
        "bs_nontorsion": (C, decide_kleppner(BS, bs_irr)),
        "bs_torsion": (X, decide_kleppner(BS, bs)),
        "f2xz_nontorsion": (C, decide_kleppner(FZ, sig(FZ, {"kind": "f2xz", "mu": R, "nu": [1, 3]}))),
        "f2xz_torsion": (X, decide_kleppner(FZ, f2xz)),
        "z_factor_fails": (X, decide_kleppner(FZ, product)),
        "finite_exhaustive": (X, decide_kleppner(FW, TrivialCocycle(FW))),
        "central_regular_witness": (X, decide_kleppner(BS, TrivialCocycle(BS), radius=2)),
        "relk_full": (C, decide_relative_kleppner(BS, "full", bs)),
        "relk_trivial": (X, decide_relative_kleppner(BS, "trivial", bs)),
        "wreath_relk": (C, decide_relative_kleppner(W, "base", TrivialCocycle(W))),
        "aperiodic_relk": (C, decide_relative_kleppner(AN, "base", TrivialCocycle(AN))),
        "sanov_relk": (C, decide_relative_kleppner(SAN, "base", sanov)),
        "bs_relk": (X, decide_relative_kleppner(BS, "center", bs)),
        "f2xz_relk": (X, decide_relative_kleppner(FZ, "z", f2xz)),
        "condition_x_skew": (C, check_condition_x(AN, anosov_irr, "base")),
        "condition_x_torsion": (X, check_condition_x(AN, anosov_rat, "base")),
        "condition_x_reduce": (X, check_condition_x(SZ, theta([1, 3]), "full")),
        "fc_hypercentral": (X, classify(SZ, theta([1, 3])).unique_trace),
        "finite_factor": (X, classify(FW, TrivialCocycle(FW)).cstar_simple),
        "wreath_ut": (X, classify(W, TrivialCocycle(W), radius=3).unique_trace),
        "lamplighter_odd_periodic": (X, classify(L, sig(L, LIFT_BITS([1, 0]))).cstar_simple),
        "anosov_equiv": (C, classify(AN, anosov_irr).cstar_simple),
        "sanov_equiv": (C, classify(SAN, sanov).unique_trace),
        "bs_equiv": (X, classify(BS, bs).cstar_simple),
        "f2xz_equiv": (X, classify(FZ, f2xz).unique_trace),
        "free_group": (C, classify(F2, TrivialCocycle(F2)).cstar_simple),
        "product_rule": (X, classify(FZ, product).unique_trace),
        "kleppner_necessary": (X, classify(BS, TrivialCocycle(BS), radius=3).unique_trace),
    }
    for rule, (status, verdict) in pinned.items():
        assert (verdict.status, verdict.rule) == (status, rule), (rule, verdict)
    assert set(pinned) == set(CITES)
