"""Cocycle constructors, pinned values, identities and transforms."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    bitstream_parity,
    bs_reference,
    check_cycle_invariance_all_pairs,
    code_word,
    crc_coboundary,
    f2xz_reference,
    sanov_reference,
    sanov_word_matrix,
    theta_diag_reference,
    verify_cocycle_identity,
    verify_invariance,
    verify_normalization,
)
from twistlab.cocycles import (
    CoboundaryCocycle,
    CoboundaryFn,
    Cocycle,
    LiftCocycle,
    RestrictedCocycle,
    SimilarTwist,
    TrivialCocycle,
    build_cocycle,
    nth_prime,
    sigma_tilde,
)
from twistlab.errors import ConfigurationError, SpecError
from twistlab.families.free_times_z import ProductCocycle
from twistlab.families.sum_z import SumZ, ThetaCocycle
from twistlab.families.zn import HalfSkewCocycle
from twistlab.families.zn_semidirect import _mat_vec
from twistlab.groups import TABLE_SIZE, get_group, intern
from twistlab.phase import IrrationalBasis, Phase, ZERO

BASIS = IrrationalBasis({"r": 0.3819660112501051})
R = {"rat": [0, 1], "irr": {"r": [1, 1]}}
ONE_MINUS_R = {"rat": [1, 1], "irr": {"r": [-1, 1]}}

SZ = get_group({"family": "sum_z"})
SZ2 = get_group({"family": "sum_z2"})
W = get_group({"family": "wreath", "base": "Z"})
L = get_group({"family": "wreath", "base": "Z2"})
AN = get_group({"family": "zn_semidirect", "A": [[2, 1], [1, 1]]})
SAN = get_group({"family": "sanov"})
BS = get_group({"family": "bs_nn", "n": 2})
FZ = get_group({"family": "free_times_z"})
Z2 = get_group({"family": "zn", "n": 2})


def build_all():
    """One instance of every spec'd constructor."""
    return {
        "theta_prime": build_cocycle({"kind": "theta_rule", "rule": "prime_reciprocal"}, SZ),
        "theta_diag": build_cocycle(
            {"kind": "theta_diag", "diagonals": [], "period": [R, [0, 1], ONE_MINUS_R, [0, 1]]},
            SZ,
            BASIS,
        ),
        "bitstream": build_cocycle({"kind": "bitstream", "pre": [1], "period": [1, 0]}, SZ2),
        "wreath_lift": build_cocycle(
            {"kind": "lift", "base": {"kind": "theta_rule", "rule": "prime_reciprocal"}}, W
        ),
        "semidirect_lift": build_cocycle(
            {"kind": "lift", "base": {"kind": "antisym_theta", "theta": R}}, AN, BASIS
        ),
        "sanov": build_cocycle(
            {"kind": "sanov", "mu0": R, "mu1": [1, 3], "mu2": [1, 5]}, SAN, BASIS
        ),
        "bs": build_cocycle({"kind": "bs", "lambda": R}, BS, BASIS),
        "f2xz": build_cocycle({"kind": "f2xz", "mu": R, "nu": [1, 3]}, FZ, BASIS),
    }


def test_prime_reciprocal_first_value():
    sig = build_cocycle({"kind": "theta_rule", "rule": "prime_reciprocal"}, SZ)
    assert sig.eval(SZ.basis_element(0), SZ.basis_element(1)) == Phase(Fraction(1, 2))
    assert nth_prime(1) == 2 and nth_prime(5) == 11


def test_bitstream_first_diagonal():
    sig = build_cocycle({"kind": "bitstream", "pre": [1], "period": []}, SZ2)
    assert sig.eval(SZ2.basis_element(0), SZ2.basis_element(1)) == Phase(Fraction(1, 2))


def test_bs_inflation_value():
    lam = Phase(0, {"r": 1}, BASIS)
    sig = build_cocycle({"kind": "bs", "lambda": R}, BS, BASIS)
    assert sig.eval(BS.word("b"), BS.word("a")) == lam
    assert sig.eval(BS.word("a"), BS.word("b")) == ZERO


def test_half_skew_half_exponent():
    sig = build_cocycle({"kind": "half_skew", "mu0": [1, 3]}, Z2)
    assert sig.eval(Z2.vector(1, 0), Z2.vector(0, 1)) == Phase(Fraction(1, 6))


def test_sanov_g_values():
    sig = build_cocycle({"kind": "sanov", "mu0": R, "mu1": [1, 3], "mu2": [1, 5]}, SAN, BASIS)
    a, b, a_inv = (code_word((x,)) for x in (1, 2, -1))
    assert sig.g((1, 0), a) == Phase(Fraction(1, 3))
    assert sig.g((0, 1), b) == Phase(Fraction(1, 5))
    assert sig.g((1, 0), b) == ZERO
    assert sig.g((0, 1), a) == ZERO
    assert sig.g((1, 0), b"") == ZERO
    # inverse letter: v1^{-1} fixes e1, so the angle flips sign
    assert sig.g((1, 0), a_inv) == Phase(Fraction(2, 3))
    # the defining recursion g(a, wl) = g(l.a, w) g(a, l) on random data
    rng = random.Random(2)
    for _ in range(100):
        a = (rng.randint(-3, 3), rng.randint(-3, 3))
        word = SAN.pair((0, 0), " ".join(rng.choice("a A b B".split()) for _ in range(4))).data[1]
        if not word:
            continue
        head, last = word[:-1], word[-1:]
        la = _mat_vec(sanov_word_matrix(last), a)
        assert sig.g(a, word) == sig.g((la[0], la[1]), head) * sig.g(a, last)


def test_sanov_eval_uses_g():
    sig = build_cocycle({"kind": "sanov", "mu0": R, "mu1": [1, 3], "mu2": [1, 5]}, SAN, BASIS)
    v1 = SAN.pair((0, 0), "a")
    e1 = SAN.pair((1, 0), "")
    assert sig.eval(v1, e1) == Phase(Fraction(1, 3))


def test_normalization_everywhere():
    for name, sig in build_all().items():
        rep = verify_normalization(sig, samples=50, seed=0, radius=2)
        assert rep.passed, name


def test_cocycle_identity_all_constructors():
    for name, sig in build_all().items():
        radius = 2 if name in ("sanov", "semidirect_lift") else 3
        rep = verify_cocycle_identity(sig, samples=300, seed=1, radius=radius)
        assert rep.passed, (name, rep.counterexample)


def test_corrupted_evaluator_fails_with_witness():
    class Corrupt(TrivialCocycle):
        def _eval(self, a, b):
            # break the identity off the identity element
            if a and b:
                return Phase(Fraction(1, 3))
            return ZERO

    bad = Corrupt(SZ2)
    rep = verify_cocycle_identity(bad, samples=500, seed=0, radius=2)
    assert not rep.passed
    assert rep.counterexample is not None


def test_sigma_tilde_on_abelian():
    sig = build_cocycle({"kind": "theta_diag", "diagonals": [[1, 7]]}, SZ)
    e0, e1 = SZ.basis_element(0), SZ.basis_element(1)
    assert sigma_tilde(sig, e0, e1) == Phase(Fraction(1, 7))
    assert sigma_tilde(sig, e1, e0) == Phase(Fraction(6, 7))
    assert sigma_tilde(sig, SZ.identity(), e1) == ZERO
    assert sigma_tilde(sig, e1, e1) == ZERO


def test_invariance_certificates_and_witness():
    diag = build_cocycle({"kind": "theta_diag", "diagonals": [[1, 3]]}, SZ)
    rep = verify_invariance(diag)
    assert rep.passed and rep.certified
    bits = build_cocycle({"kind": "bitstream", "pre": [], "period": [1, 0]}, SZ2)
    assert verify_invariance(bits).certified
    window = build_cocycle(
        {"kind": "theta_window", "entries": [[0, 1, [1, 3]], [1, 2, [1, 5]]]}, SZ
    )
    rep = verify_invariance(window)
    assert not rep.passed
    x, y = rep.counterexample
    assert (x, y) == (SZ.basis_element(0), SZ.basis_element(1))


def test_invariance_on_a_finite_lamp_group_wraps_around():
    """On sum_z2[3] the shift moves e2 to e0, not to an index outside the group."""
    S3 = get_group({"family": "sum_z2", "modulus": 3})
    lamps = CoboundaryCocycle(CoboundaryFn(S3, lambda g: Phase(Fraction(sum(i in (0, 1, 2) for i in g.data), 3))))
    assert verify_invariance(lamps).passed
    at_zero = CoboundaryCocycle(CoboundaryFn(S3, lambda g: Phase(Fraction(int(0 in g.data), 3))))
    rep = verify_invariance(at_zero)
    assert not rep.passed
    assert rep.counterexample == (S3.basis_element(2), S3.basis_element(2))  # the window starts at -4 = 2 mod 3
    # a diagonal-constant stream is not certified around the modulus
    rep = verify_invariance(build_cocycle({"kind": "bitstream", "pre": [1]}, S3))
    assert not rep.passed and not rep.certified and rep.counterexample is not None


def test_lift_requires_invariant_base():
    window = {"kind": "theta_window", "entries": [[0, 1, [1, 3]]]}
    with pytest.raises(SpecError):
        build_cocycle({"kind": "lift", "base": window}, W)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_lift_to_a_finite_wreath_product_must_be_invariant_on_the_cycle(m):
    """A diagonal-constant stream is shift-invariant on the integers but not
    around the m-cycle, where the lift would not be a 2-cocycle."""
    G = get_group({"family": "wreath", "base": "Z2", "acting": m})
    for stream in ({"pre": [1, 0]}, {"pre": [1]}, {"period": [1, 0]}):
        with pytest.raises(SpecError) as err:
            build_cocycle({"kind": "lift", "base": {"kind": "bitstream", **stream}}, G)
        assert err.value.path == "cocycle.base"
    for base in ({"kind": "bitstream", "pre": [0]}, {"kind": "trivial"}):
        assert verify_cocycle_identity(build_cocycle({"kind": "lift", "base": base}, G), samples=2000, radius=4).passed


def _refusal(check, *args):
    try:
        check(*args)
    except SpecError as exc:
        return exc.path, str(exc)
    return None


@pytest.mark.parametrize("m", range(2, 9))
def test_the_cycle_check_compares_the_pairs_at_the_last_lamp_as_all_pairs_would(m):
    """`check_lift_base` compares the 2m - 1 basis pairs that touch index
    m - 1; it accepts and refuses, with the same first pair, as the check of
    all m² pairs does, over the trivial base and every bitstream with at
    most four bits of preperiod and period."""
    G = get_group({"family": "wreath", "base": "Z2", "acting": m})
    lamps = G.base_group()
    specs = [{"kind": "trivial"}]
    for size in range(5):
        for bits in itertools.product((0, 1), repeat=size):
            specs += [{"kind": "bitstream", "pre": list(bits[:i]), "period": list(bits[i:])} for i in range(size + 1)]
    refused = 0
    for spec in specs:
        base = build_cocycle(spec, lamps)
        want = _refusal(check_cycle_invariance_all_pairs, G, base)
        assert _refusal(G.check_lift_base, base) == want, spec
        refused += want is not None
    assert len(specs) == 130 and 0 < refused < len(specs)


def test_window_below_diagonal_rejected():
    with pytest.raises(SpecError):
        build_cocycle({"kind": "theta_window", "entries": [[2, 1, [1, 2]]]}, SZ)
    with pytest.raises(SpecError) as err:  # the same check for library callers
        ThetaCocycle(SZ, window={(2, 1): Phase(Fraction(1, 2))})
    assert err.value.path == "cocycle.entries"


@pytest.mark.parametrize(
    "build, error, path",
    [
        (lambda: LiftCocycle(W, TrivialCocycle(SZ2)), SpecError, "cocycle.base"),
        (lambda: LiftCocycle(AN, TrivialCocycle(SZ)), SpecError, "cocycle.base"),
        (lambda: LiftCocycle(SZ, TrivialCocycle(SZ)), SpecError, "cocycle"),
        (lambda: ProductCocycle(FZ, TrivialCocycle(Z2), TrivialCocycle(Z2)), SpecError, "cocycle.left"),
        (lambda: ProductCocycle(FZ, TrivialCocycle(F2), TrivialCocycle(Z2)), SpecError, "cocycle.right"),
        (lambda: CoboundaryFn(SZ, lambda g: Phase(Fraction(1, 3))), ConfigurationError, None),
        (lambda: SimilarTwist(TrivialCocycle(SZ), CoboundaryFn.zero(SZ2)), ConfigurationError, None),
        (lambda: verify_invariance(TrivialCocycle(Z2)), SpecError, None),
    ],
    ids=[
        "wreath_lift_base_on_other_group",
        "semidirect_lift_base_off_lattice",
        "lift_onto_sum_z",
        "product_left_not_free2",
        "product_right_not_z",
        "coboundary_nonzero_at_identity",
        "similar_twist_across_groups",
        "invariance_off_the_sum_families",
    ],
)
def test_library_callers_get_the_constructor_refusals(build, error, path):
    """Checks that only library callers reach: a JSON spec is refused
    earlier, in `build_cocycle`, or cannot express the input."""
    with pytest.raises(error) as err:
        build()
    if path is not None:
        assert err.value.path == path


class AngleMap(Cocycle):
    """A two-valued map given by an angle function, to feed the checkers
    maps that are not normalized or not shift-invariant."""

    den = 2

    def __init__(self, group, bit):
        super().__init__(group)
        self.bit = bit

    def _angle(self, a, b):
        return self.bit(a, b), (), 2


def test_checkers_return_their_counterexamples():
    rep = verify_normalization(AngleMap(SZ2, lambda a, b: 1), samples=5)
    assert (rep.passed, rep.checked) == (False, 1) and len(rep.counterexample) == 1
    # basis pairs pass: the map moves only on a left factor of two or more
    # indices that holds index 0, so only the random pairs expose it
    at_zero = AngleMap(SZ2, lambda a, b: int(len(a) > 1 and 0 in a))
    rep = verify_invariance(at_zero)
    assert not rep.passed and rep.checked > 81
    x, y = rep.counterexample
    assert 0 in x.data and len(x.data) > 1


def test_similar_transform_zero_and_self():
    sig = build_cocycle({"kind": "theta_diag", "diagonals": [[1, 5]]}, SZ)
    same = SimilarTwist(sig, CoboundaryFn.zero(SZ))
    rng = random.Random(0)
    pool = SZ.ball(2)
    for _ in range(50):
        g, h = rng.choice(pool), rng.choice(pool)
        assert same.eval(g, h) == sig.eval(g, h)
    # a coboundary twisted by its own function is trivial
    b = CoboundaryFn(SZ, lambda g: Phase(Fraction(sum(v for _, v in g.data), 7)))
    db = CoboundaryCocycle(b)
    assert verify_cocycle_identity(db, 200, 0, radius=2).passed
    trivial = SimilarTwist(db, b)
    for _ in range(50):
        g, h = rng.choice(pool), rng.choice(pool)
        assert trivial.eval(g, h) == ZERO


def test_similar_transform_keeps_cocycle_identity():
    sig = build_cocycle({"kind": "bitstream", "pre": [], "period": [1, 0]}, SZ2)
    b = bitstream_parity(sig)
    twisted = SimilarTwist(sig, b)
    assert verify_cocycle_identity(twisted, 300, 3, radius=3).passed


def test_parity_coboundary_trivializes_on_regular_subgroup():
    """On the subgroup generated by distance-two pairs, the odd bitstream
    cocycle agrees with the coboundary of the parity-split function."""
    sig = build_cocycle({"kind": "bitstream", "pre": [], "period": [1, 0]}, SZ2)
    b = bitstream_parity(sig)
    twisted = SimilarTwist(sig, b)
    rng = random.Random(5)
    gens = [SZ2.element((i, i + 2)) for i in range(-4, 3)]
    for _ in range(200):
        x = SZ2.identity()
        y = SZ2.identity()
        for _ in range(rng.randint(0, 4)):
            x = SZ2.compose(x, rng.choice(gens))
        for _ in range(rng.randint(0, 4)):
            y = SZ2.compose(y, rng.choice(gens))
        # the identity b(x+y) = b(x) + sigma(x,y) + b(y) on the subgroup
        assert b(SZ2.compose(x, y)) == b(x) * sig.eval(x, y) * b(y)
        assert twisted.eval(x, y) == ZERO


def test_restrictions():
    lift = build_cocycle({"kind": "lift", "base": {"kind": "theta_rule", "rule": "prime_reciprocal"}}, W)
    assert lift.restrict("base") is lift.base
    bs = build_cocycle({"kind": "bs", "lambda": R}, BS, BASIS)
    center_restriction = bs.restrict("center")
    rng = random.Random(0)
    pool = center_restriction.group.ball(3)
    assert all(center_restriction.eval(rng.choice(pool), rng.choice(pool)) == ZERO for _ in range(30))
    sanov = build_cocycle({"kind": "sanov", "mu0": [1, 3], "mu1": [1, 3], "mu2": [1, 5]}, SAN)
    s0 = sanov.restrict("base")
    assert s0.eval(s0.group.vector(1, 0), s0.group.vector(0, 1)) == Phase(Fraction(1, 6))
    with pytest.raises(SpecError):
        bs.restrict("unknown_subgroup")


def test_restriction_to_the_trivial_subgroup_is_refused():
    for sig in (TrivialCocycle(BS), build_cocycle({"kind": "bs", "lambda": [1, 3]}, BS)):
        with pytest.raises(SpecError, match="trivial subgroup"):
            sig.restrict("trivial")


def _same_values(a, b, radius=2):
    pool = a.group.ball(radius)
    return all(a.eval(g, h) == b.eval(g, h) for g in pool for h in pool)


def test_named_restrictions_resolve_the_subgroup_once():
    sanov = build_cocycle({"kind": "sanov", "mu0": [1, 3], "mu1": [1, 3], "mu2": [1, 5]}, SAN)
    z2, base = sanov.restrict("z2"), sanov.restrict("base")
    assert type(z2) is type(base) is HalfSkewCocycle
    assert z2.group is base.group is Z2
    assert _same_values(z2, base)
    f2xz = build_cocycle({"kind": "f2xz", "mu": [1, 3], "nu": [1, 5]}, FZ)
    for G, sig, name in (
        (FZ, f2xz, "z"),
        (FZ, f2xz, "center"),
        (BS, build_cocycle({"kind": "bs", "lambda": [1, 3]}, BS), "center"),
        (BS, TrivialCocycle(BS), "center"),
    ):
        restricted = sig.restrict(name)
        assert type(restricted) is TrivialCocycle
        assert restricted.group is G.center().inner


def test_restriction_fallback_is_a_cocycle():
    lift = build_cocycle({"kind": "lift", "base": {"kind": "theta_diag", "diagonals": [[1, 3], [2, 5]]}}, W)
    cases = [
        (build_cocycle({"kind": "product", "left": {"kind": "trivial"}, "right": {"kind": "trivial"}}, FZ), "z"),
        (build_cocycle({"kind": "f2xz", "mu": [1, 3], "nu": [1, 5]}, FZ), "full"),
        (build_cocycle({"kind": "sanov", "mu0": [1, 3], "mu1": [1, 3], "mu2": [1, 5]}, SAN), "full"),
        (lift, "full"),
    ]
    for sig, name in cases:
        restricted = sig.restrict(name)
        assert type(restricted) is RestrictedCocycle
        assert restricted.sub.name == name
        assert verify_cocycle_identity(restricted, samples=200, radius=2).passed
        if name == "full":
            assert _same_values(restricted, sig)


def test_regularity_invariant_under_similarity_on_commuting_pairs():
    sig = build_cocycle({"kind": "theta_diag", "diagonals": [[1, 3], [2, 5]]}, SZ)
    b = CoboundaryFn(SZ, lambda g: Phase(Fraction(sum(i * v for i, v in g.data) % 11, 11)))
    twisted = SimilarTwist(sig, b)
    rng = random.Random(9)
    pool = SZ.ball(2)
    for _ in range(100):
        g, h = rng.choice(pool), rng.choice(pool)
        # abelian group: everything commutes; the antisymmetrized forms agree
        assert sigma_tilde(sig, g, h) == sigma_tilde(twisted, g, h)


def test_product_cocycle():
    prod = build_cocycle(
        {"kind": "product", "left": {"kind": "trivial"}, "right": {"kind": "trivial"}}, FZ
    )
    assert verify_cocycle_identity(prod, 200, 0, radius=2).passed


# ---------------------------------------------------------------------------
# the spec table: a group interns the cocycles built from its specs
# ---------------------------------------------------------------------------

SZ2 = get_group({"family": "sum_z2"})


def test_a_spec_is_built_once_per_group_and_basis():
    spec = {"kind": "theta_diag", "diagonals": [R]}
    sig = build_cocycle(spec, SZ, BASIS)
    same_basis = IrrationalBasis({"r": 0.3819660112501051})
    assert build_cocycle({"kind": "theta_diag", "diagonals": [R]}, SZ, same_basis) is sig
    other = build_cocycle(spec, SZ, IrrationalBasis({"r": 0.25}))
    assert other is not sig and other.basis.value("r") == 0.25
    g, h = SZ.basis_element(0), SZ.basis_element(1)
    assert sig.complex_values([sig._angle(g.data, h.data)]) != other.complex_values([other._angle(g.data, h.data)])
    assert build_cocycle(spec, SumZ()) is not build_cocycle(spec, SumZ())  # each group has its own table


def test_an_interned_spec_does_not_serve_a_spec_of_other_types():
    """repr tells apart what json.dumps does not: (1,) is not [1]."""
    assert build_cocycle({"kind": "bitstream", "pre": [1]}, SZ2).pre == (1,)
    for pre, path in [([True], "cocycle.pre[0]"), ([1.0], "cocycle.pre[0]"), ((1,), "cocycle.pre")]:
        with pytest.raises(SpecError) as info:
            build_cocycle({"kind": "bitstream", "pre": pre}, SZ2)
        assert info.value.path == path


@pytest.mark.parametrize(
    "spec, group, path",
    [
        ({"kind": "bitstream", "pre": [2]}, SZ2, "cocycle.pre"),
        ({"kind": "theta_window", "entries": [[1, 0, [1, 2]]]}, SZ, "cocycle.entries[0]"),
        ({"kind": "lift", "base": {"kind": "theta_rule", "rule": "nope"}}, W, "cocycle.base.rule"),
    ],
    ids=["constructor", "walker", "nested_constructor"],
)
def test_a_refused_spec_is_refused_again_at_the_same_path(spec, group, path):
    for _ in range(2):
        with pytest.raises(SpecError) as info:
            build_cocycle(spec, group)
        assert info.value.path == path
    assert repr(spec) not in {key for key, _ in group._cocycles}


def test_a_full_cocycle_table_evicts_its_oldest_entry():
    G = SumZ()
    specs = [{"kind": "theta_diag", "diagonals": [[1, k + 2]]} for k in range(TABLE_SIZE + 1)]
    built = [build_cocycle(spec, G) for spec in specs[:TABLE_SIZE]]
    assert build_cocycle(specs[0], G) is built[0] and len(G._cocycles) == TABLE_SIZE
    build_cocycle(specs[TABLE_SIZE], G)
    assert len(G._cocycles) == TABLE_SIZE
    assert build_cocycle(specs[1], G) is built[1]
    rebuilt = build_cocycle(specs[0], G)  # evicted, so built anew
    assert rebuilt is not built[0]
    ball = G.ball(2)
    assert [rebuilt.eval(g, h) for g in ball for h in ball] == [built[0].eval(g, h) for g in ball for h in ball]


def test_a_shared_cocycle_that_widened_its_symbols_answers_as_a_fresh_one():
    """A `product` cocycle widens `symbols` when a factor's value carries a
    symbol it has not met (``Cocycle._own_angle``).  From a spec both factors
    are trivial, since no kind with symbols lives on free[2] or zn[1], so
    here the factors are symbolic coboundaries.  The product is evaluated
    through the group's table, fetched again and evaluated once more; its
    values and complex values equal a fresh product's, met in reverse."""
    two = IrrationalBasis({"r": 0.3819660112501051, "s": 0.25})
    Z1 = FZ.center().inner

    def product():
        left = CoboundaryCocycle(crc_coboundary(F2, two))  # values in r
        s = lambda g: Phase(0, {"s": Fraction(g.data[0] ** 2, 5)}, two) if g.data[0] else ZERO
        return ProductCocycle(FZ, left, CoboundaryCocycle(CoboundaryFn(Z1, s)))

    ball = FZ.ball(2)
    pairs = [(g, h) for g in ball for h in ball]
    shared = intern(FZ._cocycles, "symbolic product", product)
    first = [shared.eval(g, h) for g, h in pairs]
    assert set(shared.symbols) == {"r", "s"} and shared._earlier
    again = intern(FZ._cocycles, "symbolic product", product)
    assert again is shared
    fresh = product()
    want = [fresh.eval(g, h) for g, h in reversed(pairs)][::-1]
    assert [again.eval(g, h) for g, h in pairs] == first == want
    assert any(p.syms == ("r", "s") for p in want)
    angles = [again._angle(g.data, h.data) for g, h in pairs]
    fresh_angles = [fresh._angle(g.data, h.data) for g, h in pairs]
    assert np.array_equal(again.complex_values(angles), fresh.complex_values(fresh_angles))
    assert np.allclose(again.complex_values(angles), [p.to_complex() for p in want], rtol=0, atol=1e-12)
    del FZ._cocycles["symbolic product"]


# ---------------------------------------------------------------------------
# integer angles: batch export and reference formulas
# ---------------------------------------------------------------------------

F2 = get_group({"family": "free", "rank": 2})
BIG = 2**53 + 1  # the first int that a float64 does not hold


def norm_job_cocycles():
    """The cocycles of the benchmark's spectral norm jobs."""
    return {
        "norm_free2": build_cocycle({"kind": "trivial"}, F2),
        "norm_sanov": build_cocycle({"kind": "sanov", "mu0": R, "mu1": [1, 3], "mu2": [1, 5]}, SAN, BASIS),
        "norm_f2xz": build_cocycle({"kind": "f2xz", "mu": R, "nu": [1, 3]}, FZ, BASIS),
        "norm_bs22": build_cocycle({"kind": "bs", "lambda": R}, BS, BASIS),
    }


def big_cocycles():
    """Angles whose numerator, denominator or symbol coefficient is past 2**53."""
    return {
        "big_denominator": build_cocycle({"kind": "theta_diag", "diagonals": [[1, BIG], [3, 7]]}, SZ),
        "big_coefficient": build_cocycle(
            {"kind": "bs", "lambda": {"rat": [1, 3], "irr": {"r": [BIG, 3]}}}, BS, BASIS
        ),
    }


EXPORTED = {**build_all(), **norm_job_cocycles(), **big_cocycles()}


@pytest.mark.parametrize("name", sorted(EXPORTED))
def test_batch_export_equals_the_phase_export(name):
    sigma = EXPORTED[name]
    G = sigma.group
    pairs = [(g, h) for g in G.ball(2) for h in G.ball(3)]
    got = sigma.complex_values([sigma._angle(g.data, h.data) for g, h in pairs])
    want = np.array([sigma.eval(g, h).to_complex() for g, h in pairs])
    assert got.dtype == np.complex128
    assert np.array_equal(got, want)


def test_big_angles_leave_the_float_range_of_exact_integers():
    theta = big_cocycles()["big_denominator"]
    assert theta.den > 2**53
    bs = big_cocycles()["big_coefficient"]
    k, cs, D = bs._angle(BS.word("b").data, BS.word("a").data)
    assert abs(cs[0]) > 2**53 and D == 3


@pytest.mark.parametrize("basis", [None, IrrationalBasis({"s": 0.25})], ids=["no_basis", "other_symbol"])
def test_batch_export_raises_on_a_symbol_without_a_value(basis):
    sigma = build_cocycle({"kind": "bs", "lambda": R}, BS, basis)
    g, h = BS.word("b"), BS.word("a")
    with pytest.raises(ConfigurationError) as want:
        sigma.eval(g, h).to_complex()
    with pytest.raises(ConfigurationError) as got:
        sigma.complex_values([sigma._angle(BS.word("a").data, h.data), sigma._angle(g.data, h.data)])
    assert str(got.value) == str(want.value)
    # a symbol whose coefficients all vanish needs no value
    assert np.array_equal(sigma.complex_values([sigma._angle(h.data, g.data)]), np.array([1 + 0j]))


def test_both_exports_refuse_a_symbol_term_from_2_53_on():
    """lambda = 10^20 r: the float product 10^20 * r is an even integer, so
    its angle would export as 0.0 (the exact product of the same float r
    has angle 0.426).  The batch and the Phase export refuse it alike."""
    sigma = build_cocycle({"kind": "bs", "lambda": {"irr": {"r": [10**20, 1]}}}, BS, BASIS)
    g, h = BS.word("b"), BS.word("a")
    with pytest.raises(ConfigurationError, match=r"symbol 'r' times its value reaches 2\*\*53") as want:
        sigma.eval(g, h).to_complex()
    with pytest.raises(ConfigurationError) as got:
        sigma.complex_values([sigma._angle(h.data, g.data), sigma._angle(g.data, h.data)])
    assert str(got.value) == str(want.value)
    # the bound itself: a term of 2^53 is refused, one of 2^53 - 1 exports
    half = IrrationalBasis({"s": 0.5})
    with pytest.raises(ConfigurationError, match=r"2\*\*53"):
        Phase(0, {"s": 2**54}, half).angle_float()
    assert Phase(0, {"s": 2**54 - 2}, half).angle_float() == 0.0


def _reference_pairs(G):
    return [(g, h) for g in G.ball(2) for h in G.ball(3)]


def test_sanov_eval_matches_the_fraction_reference():
    mu0, mu1, mu2 = Phase(0, {"r": 1}, BASIS), Phase(Fraction(1, 3)), Phase(Fraction(2, 5), {"r": -2}, BASIS)
    sigma = build_cocycle(
        {"kind": "sanov", "mu0": R, "mu1": [1, 3], "mu2": {"rat": [2, 5], "irr": {"r": [-2, 1]}}}, SAN, BASIS
    )
    for g, h in _reference_pairs(SAN):
        assert sigma.eval(g, h) == sanov_reference(mu0, mu1, mu2, g.data, h.data)


def test_bs_eval_matches_the_fraction_reference():
    lam = Phase(Fraction(1, 7), {"r": Fraction(3, 2)}, BASIS)
    sigma = build_cocycle({"kind": "bs", "lambda": {"rat": [1, 7], "irr": {"r": [3, 2]}}}, BS, BASIS)
    for g, h in _reference_pairs(BS):
        assert sigma.eval(g, h) == bs_reference(BS, lam, g, h)


def test_f2xz_eval_matches_the_fraction_reference():
    mu, nu = Phase(Fraction(1, 4), {"r": 1}, BASIS), Phase(Fraction(5, 6))
    sigma = build_cocycle({"kind": "f2xz", "mu": {"rat": [1, 4], "irr": {"r": [1, 1]}}, "nu": [5, 6]}, FZ, BASIS)
    for g, h in _reference_pairs(FZ):
        assert sigma.eval(g, h) == f2xz_reference(FZ, mu, nu, g, h)


def test_theta_diag_eval_matches_the_fraction_reference():
    diagonals = [Phase(Fraction(1, 3)), Phase(0)]
    period = [Phase(0, {"r": 1}, BASIS), Phase(Fraction(1, 2), {"r": Fraction(-1, 3)}, BASIS)]
    sigma = build_cocycle(
        {
            "kind": "theta_diag",
            "diagonals": [[1, 3], [0, 1]],
            "period": [R, {"rat": [1, 2], "irr": {"r": [-1, 3]}}],
        },
        SZ,
        BASIS,
    )
    for g, h in _reference_pairs(SZ):
        assert sigma.eval(g, h) == theta_diag_reference(diagonals, period, g, h)
