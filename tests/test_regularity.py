"""Regularity deciders: certificates, witnesses, relative variants."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import brute_force_regular_bits, brute_force_regular_vectors, integer_span_reduce

import twistlab
from twistlab import regularity
from twistlab.cocycles import build_cocycle, sigma_tilde
from twistlab.errors import SpecError
from twistlab.groups import get_group, resolve_subgroup
from twistlab.phase import IrrationalBasis, Phase
from twistlab.regularity import (
    certified_row_range,
    free_root,
    is_regular_wrt_kH,
    is_regular_wrt_subgroup,
    is_sigma_regular,
    kernel_lattice_basis,
    lattice_contains,
    regular_subgroup_generators,
    regular_vectors_in_box,
    relative_class_partial,
    t_theta_image,
)

BASIS = IrrationalBasis({"r": 0.3819660112501051})
R = {"rat": [0, 1], "irr": {"r": [1, 1]}}
ONE_MINUS_R = {"rat": [1, 1], "irr": {"r": [-1, 1]}}

SZ = get_group({"family": "sum_z"})
SZ2 = get_group({"family": "sum_z2"})
BS = get_group({"family": "bs_nn", "n": 2})
FZ = get_group({"family": "free_times_z"})
W = get_group({"family": "wreath", "base": "Z"})
SAN = get_group({"family": "sanov"})

PERIOD4 = {
    "kind": "theta_diag",
    "diagonals": [],
    "period": [R, [0, 1], ONE_MINUS_R, [0, 1]],
}


def test_identity_always_regular():
    sig = build_cocycle({"kind": "theta_rule", "rule": "prime_reciprocal"}, SZ)
    assert is_sigma_regular(sig, SZ.identity()).status == "regular"


def test_period4_regular_certificate():
    sig = build_cocycle(PERIOD4, SZ, BASIS)
    rep = is_sigma_regular(sig, SZ.element(((1, 1), (3, 1))))
    assert rep.status == "regular" and rep.rule == "t_kernel_rows_vanish"


def test_prime_reciprocal_witness():
    sig = build_cocycle({"kind": "theta_rule", "rule": "prime_reciprocal"}, SZ)
    rep = is_sigma_regular(sig, SZ.basis_element(0))
    assert rep.status == "not_regular"
    assert rep.witness == SZ.basis_element(1)
    # first diagonal is 1/2, so the phases disagree by exactly one half
    assert sigma_tilde(sig, SZ.basis_element(0), rep.witness) == Phase(Fraction(1, 2))


def test_t_image_examples():
    sig = build_cocycle(PERIOD4, SZ, BASIS)
    img = t_theta_image(sig, SZ.identity())
    assert img.certified and img.all_zero()
    img = t_theta_image(sig, SZ.element(((1, 1), (3, 1))))
    assert img.certified and img.all_zero()
    prime = build_cocycle({"kind": "theta_rule", "rule": "prime_reciprocal"}, SZ)
    img = t_theta_image(prime, SZ.basis_element(0), window=range(1, 2))
    assert not img.certified
    assert img.rows == [(1, Phase(Fraction(1, 2)))]
    with pytest.raises(SpecError):
        t_theta_image(prime, SZ.basis_element(0))


def test_certified_rows_cover_bandwidth():
    diag = build_cocycle({"kind": "theta_diag", "diagonals": [[1, 3], [0, 1], [1, 5]]}, SZ)
    rows = certified_row_range(diag, [0, 2])
    assert rows is not None and set(rows) >= {-3, -1, 0, 2, 3, 5}


def test_regular_vectors_match_brute_force_small():
    """Fast kernel scan vs the direct per-candidate oracle on small boxes."""
    sig = build_cocycle(PERIOD4, SZ, BASIS)
    found, certified = regular_vectors_in_box(sig, 2, 2)
    assert certified
    rows = list(certified_row_range(sig, list(range(-2, 3))))
    brute = {tuple(int(x) for x in r) for r in brute_force_regular_vectors(sig, 2, 2, rows)}
    fast = {tuple(dict(e.data).get(p, 0) for p in range(-2, 3)) for e in found}
    assert fast == brute
    assert (0, 1, 0, 1, 0) in fast  # e_{-1} + e_1 pattern


@pytest.mark.parametrize("window, height", [(3, 3), (4, 2)])
def test_box_vectors_come_in_sort_key_order(window, height):
    """Canonical order at every size: (4, 2) has 32,384 vectors."""
    sig = build_cocycle(PERIOD4, SZ, BASIS)
    positions = list(range(-window, window + 1))
    rows = list(certified_row_range(sig, positions))
    brute = brute_force_regular_vectors(sig, window, height, rows)
    expected = [SZ.element(tuple((p, int(v)) for p, v in zip(positions, vec) if v)) for vec in brute]
    found, certified = regular_vectors_in_box(sig, window, height)
    assert certified
    assert found == sorted(expected, key=lambda e: SZ.sort_key(e.data))


def test_box_vector_payloads_are_plain_sorted_int_pairs():
    sig = build_cocycle(PERIOD4, SZ, BASIS)
    found, _ = regular_vectors_in_box(sig, 3, 4)
    assert found
    for e in found:
        assert isinstance(e.data, tuple) and [p for p, _ in e.data] == sorted({p for p, _ in e.data})
        for pair in e.data:
            assert type(pair) is tuple and len(pair) == 2
            assert type(pair[0]) is int and type(pair[1]) is int and pair[1] != 0


def test_generators_span_found_vectors():
    sig = build_cocycle(PERIOD4, SZ, BASIS)
    gens, complete = regular_subgroup_generators(sig, 4, 4)
    assert complete
    positions = list(range(-4, 5))
    basis_vecs = [tuple(dict(g.data).get(p, 0) for p in positions) for g in gens]
    # the named regular element lies in the generated lattice
    e13 = tuple({1: 1, 3: 1}.get(p, 0) for p in positions)
    assert lattice_contains(basis_vecs, e13)
    found, _ = regular_vectors_in_box(sig, 4, 4)
    for e in found[:50]:
        vec = tuple(dict(e.data).get(p, 0) for p in positions)
        assert lattice_contains(basis_vecs, vec)


def test_prime_reciprocal_generators_empty():
    sig = build_cocycle({"kind": "theta_rule", "rule": "prime_reciprocal"}, SZ)
    gens, complete = regular_subgroup_generators(sig, 6, 6)
    assert gens == [] and complete


# Generators of PERIOD4 at (window, height); generators derived from the
# box vectors give the same lists.
PERIOD4_GENERATORS = {
    (3, 4): [((0, 1), (2, 1)), ((1, 1), (3, 1)), ((-1, 1), (3, -1)), ((-2, 1), (2, -1)), ((-3, 1), (3, 1))],
    (4, 3): [
        ((0, 1), (4, -1)),
        ((1, 1), (3, 1)),
        ((-1, 1), (3, -1)),
        ((2, 1), (4, 1)),
        ((-2, 1), (4, 1)),
        ((-3, 1), (3, 1)),
        ((-4, 1), (4, -1)),
    ],
}
PERIOD4_GENERATORS[(4, 4)] = PERIOD4_GENERATORS[(4, 3)]


@pytest.mark.parametrize("window, height", sorted(PERIOD4_GENERATORS))
def test_period4_generators_pinned(window, height, monkeypatch):
    """The kernel basis fits the box, so no box scan runs."""

    def no_scan(*args):
        raise AssertionError("the box was scanned")

    monkeypatch.setattr(regularity, "regular_vectors_box_raw", no_scan)
    sig = build_cocycle(PERIOD4, SZ, BASIS)
    gens, complete = regular_subgroup_generators(sig, window, height)
    assert complete
    assert [g.data for g in gens] == PERIOD4_GENERATORS[(window, height)]


def test_generators_fall_back_to_box_span(monkeypatch):
    """theta_diag [[1,5]] has kernel vectors with entries up to 5, beyond
    height 2, so the generators come from the box vectors, whose span must
    match the brute-force oracle's."""
    sig = build_cocycle({"kind": "theta_diag", "diagonals": [[1, 5]]}, SZ)
    positions = list(range(-2, 3))
    rows = list(certified_row_range(sig, positions))
    kernel = kernel_lattice_basis(sig.structural(), positions, rows)
    assert max(abs(v) for vec in kernel for v in vec) == 5
    scans = []
    scan = regularity.regular_vectors_box_raw
    monkeypatch.setattr(regularity, "regular_vectors_box_raw", lambda *a: scans.append(a) or scan(*a))
    gens, complete = regular_subgroup_generators(sig, 2, 2)
    assert complete and len(scans) == 1
    gen_rows = np.array([[dict(g.data).get(p, 0) for p in positions] for g in gens], dtype=np.int64).reshape(-1, 5)
    brute = brute_force_regular_vectors(sig, 2, 2, rows)
    assert not integer_span_reduce(gen_rows, brute).any()
    assert not integer_span_reduce(brute, gen_rows).any()


def test_generators_span_brute_force_box_random(monkeypatch):
    """On random diagonal cocycles, on both the kernel path and the box
    fallback, the generators span exactly the lattice of the brute-force
    oracle's box vectors."""
    scans = []
    scan = regularity.regular_vectors_box_raw
    monkeypatch.setattr(regularity, "regular_vectors_box_raw", lambda *a: scans.append(a) or scan(*a))
    rng = random.Random(7)
    basis = IrrationalBasis({"r": 0.38, "s": 0.29})

    def phase():
        d = rng.choice([1, 2, 3, 4, 6])
        out = {"rat": [rng.randrange(d), d]}
        if rng.random() < 0.4:
            out["irr"] = {rng.choice("rs"): [rng.choice([-2, -1, 1, 2]), rng.choice([1, 2, 3])]}
        return out

    for _ in range(30):
        spec = {"kind": "theta_diag", "diagonals": [phase() for _ in range(rng.randrange(1, 4))]}
        if rng.random() < 0.3:
            spec["period"] = [phase() for _ in range(rng.randrange(1, 3))]
        sig = build_cocycle(spec, SZ, basis)
        window, height = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
        positions = list(range(-window, window + 1))
        gens, complete = regular_subgroup_generators(sig, window, height)
        assert complete
        gen_rows = np.array(
            [[dict(g.data).get(p, 0) for p in positions] for g in gens], dtype=np.int64
        ).reshape(-1, len(positions))
        rows = list(certified_row_range(sig, positions))
        brute = brute_force_regular_vectors(sig, window, height, rows)
        assert not integer_span_reduce(gen_rows, brute).any(), spec
        assert not integer_span_reduce(brute, gen_rows).any(), spec
    assert 0 < len(scans) < 30


def test_kernel_generators_do_not_import_numpy():
    script = (
        "import sys\n"
        "from twistlab.cocycles import build_cocycle\n"
        "from twistlab.groups import get_group\n"
        "from twistlab.phase import IrrationalBasis\n"
        "from twistlab.regularity import regular_subgroup_generators\n"
        f"sig = build_cocycle({PERIOD4!r}, get_group({{'family': 'sum_z'}}), IrrationalBasis({{'r': 0.38}}))\n"
        "gens, complete = regular_subgroup_generators(sig, 4, 3)\n"
        "print(len(gens), complete, 'numpy' in sys.modules)\n"
    )
    src = str(Path(twistlab.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["7", "True", "False"]


def test_bitstream_generators_and_oracle():
    sig = build_cocycle({"kind": "bitstream", "pre": [], "period": [1, 0]}, SZ2)
    gens, complete = regular_subgroup_generators(sig, 4, 1)
    assert complete
    assert SZ2.element((0, 2)) in gens
    rows = list(certified_row_range(sig, list(range(-4, 5))))
    brute = brute_force_regular_bits(sig, 4, rows)
    found, _ = regular_vectors_in_box(sig, 4, 1)
    assert {e.data for e in found} == brute


def test_finite_bandwidth_irrational_refutes_each_vector():
    sig = build_cocycle({"kind": "theta_diag", "diagonals": [R]}, SZ, BASIS)
    found, certified = regular_vectors_in_box(sig, 3, 3)
    assert certified and found == []


def test_bs_center_rules():
    lam3 = build_cocycle({"kind": "bs", "lambda": [1, 3]}, BS)
    # a^3 survives every witness from the center
    assert is_regular_wrt_subgroup(lam3, BS.word("a a a"), "center").status == "regular"
    rep = is_regular_wrt_subgroup(lam3, BS.word("a"), "center")
    assert rep.status == "not_regular" and rep.witness == BS.b_power(2)
    # witness re-checks: phases genuinely differ
    assert lam3.eval(BS.word("a"), rep.witness) != lam3.eval(rep.witness, BS.word("a"))
    lam_irr = build_cocycle({"kind": "bs", "lambda": R}, BS, BASIS)
    assert is_regular_wrt_subgroup(lam_irr, BS.word("a"), "center").status == "not_regular"
    # central elements with the twist killed are regular in the whole group
    assert is_sigma_regular(lam3, BS.b_power(6)).status == "regular"
    assert is_sigma_regular(lam3, BS.b_power(2)).status == "not_regular"


def test_trivial_subgroup_always_regular():
    sig = build_cocycle({"kind": "bs", "lambda": [1, 3]}, BS)
    assert is_regular_wrt_subgroup(sig, BS.word("a"), "trivial").status == "regular"


def test_full_subgroup_delegates():
    sig = build_cocycle({"kind": "theta_rule", "rule": "prime_reciprocal"}, SZ)
    a = is_regular_wrt_subgroup(sig, SZ.basis_element(0), "full")
    b = is_sigma_regular(sig, SZ.basis_element(0))
    assert (a.status, a.witness) == (b.status, b.witness)


def test_wreath_base_regularity():
    sig = build_cocycle({"kind": "lift", "base": {"kind": "theta_rule", "rule": "prime_reciprocal"}}, W)
    # a nonzero shift has no nontrivial commuting base element
    g = W.element(((), 1))
    assert is_regular_wrt_subgroup(sig, g, "base").status == "regular"
    # shift-zero elements delegate to the base certificate
    h = W.pair(W.base_group().basis_element(0), 0)
    rep = is_regular_wrt_subgroup(sig, h, "base")
    assert rep.status == "not_regular"
    assert rep.witness is not None and rep.witness.data[1] == 0


def test_f2xz_certificates():
    sig = build_cocycle({"kind": "f2xz", "mu": [1, 3], "nu": [1, 5]}, FZ)
    # central powers: regular exactly when both characters die on the power
    assert is_sigma_regular(sig, FZ.pair((), 15)).status == "regular"
    assert is_sigma_regular(sig, FZ.pair((), 3)).status == "not_regular"
    # noncentral certificates through the primitive root of the word:
    # a^3 commutes only with (a^j, l) and the character kills 3*(1/3) exactly
    assert is_sigma_regular(sig, FZ.pair("a a a", 0)).status == "regular"
    g = FZ.pair("a", 0)
    rep = is_sigma_regular(sig, g)
    assert rep.status == "not_regular"
    w = rep.witness
    assert FZ.compose(g, w) == FZ.compose(w, g)
    assert sig.eval(g, w) != sig.eval(w, g)
    # a nonzero integer part re-enables witnesses: gcd(m, d) drops to 1
    assert is_sigma_regular(sig, FZ.pair("a a a", 1)).status == "not_regular"


def test_free_root():
    assert free_root((1, 1, 1)) == ((1,), 3)
    assert free_root((1, 2)) == ((1, 2), 1)
    # cyclically non-reduced powers: (aba^{-1})^2 written reduced
    word = (1, 2, 2, -1)
    root, d = free_root(word)
    assert root == (1, 2, -1) and d == 2


def test_relative_class_partial():
    # k = identity reduces to the ordinary subgroup class
    t = W.pair(W.base_group().basis_element(0), 0)
    cls = relative_class_partial(W.identity(), t, "base", 2)
    assert t in cls
    # wreath example: (shift) against a base element produces distinct translates
    k = W.element(((), 1))
    out = relative_class_partial(k, t, "base", 2)
    assert len(out) == len(set(out)) and len(out) > 3
    # BS center: classes relative to the center are singletons
    sig_t = BS.b_power(2)
    assert relative_class_partial(BS.word("a"), sig_t, "center", 3) == (sig_t,)


def test_relative_class_bijection_property():
    """|C_H^k(t)| equals |C_H(k^{-1} t)| via left translation by k."""
    rng = random.Random(3)
    pool = W.ball(2)
    sub = resolve_subgroup(W, "base")
    for _ in range(20):
        k, t = rng.choice(pool), rng.choice(pool)
        rel = relative_class_partial(k, t, sub, 2)
        shifted = W.compose(W.invert(k), t)
        plain = {W.compose(W.compose(s, shifted), W.invert(s)) for s in sub.ball(2)}
        assert len(rel) == len(plain)
        assert {W.compose(k, x) for x in plain} == set(rel)


def test_kH_equivalence_spot_check():
    """The (k,H) decision agrees with the subgroup decision at k^{-1}t."""
    sig = build_cocycle({"kind": "bs", "lambda": [1, 3]}, BS)
    rng = random.Random(11)
    pool = BS.ball(3)
    sub = resolve_subgroup(BS, "center")
    checked = 0
    for _ in range(100):
        k = rng.choice(pool)
        t = rng.choice(pool)
        direct = is_regular_wrt_kH(sig, k, t, sub, radius=3)
        via = is_regular_wrt_subgroup(sig, BS.compose(BS.invert(k), t), sub, radius=3)
        assert direct.status == via.status
        checked += 1
    assert checked == 100


def test_kH_direct_search_oracle():
    """Independent direct search for the (k,H) condition on random pairs."""
    sig = build_cocycle({"kind": "bs", "lambda": [1, 3]}, BS)
    rng = random.Random(13)
    pool = BS.ball(2)
    sub = resolve_subgroup(BS, "center")
    for _ in range(40):
        k, t = rng.choice(pool), rng.choice(pool)
        rep = is_regular_wrt_kH(sig, k, t, sub, radius=3)
        shifted = BS.compose(BS.invert(k), t)
        witness_found = None
        for s in sub.ball(3):
            if BS.compose(BS.conjugate(k, s), t) == BS.compose(t, s) and sig.eval(
                shifted, s
            ) != sig.eval(s, shifted):
                witness_found = s
                break
        if rep.status == "regular":
            assert witness_found is None
        elif rep.status == "not_regular":
            assert witness_found is not None


def test_reg_class_lemma_property():
    """Elements of a subgroup-conjugacy class share regularity status."""
    sig = build_cocycle({"kind": "lift", "base": {"kind": "theta_rule", "rule": "prime_reciprocal"}}, W)
    sub = resolve_subgroup(W, "base")
    rng = random.Random(17)
    pool = W.ball(2)
    for _ in range(15):
        x = rng.choice(pool)
        status = is_regular_wrt_subgroup(sig, x, sub, radius=2).status
        if status == "no_witness_up_to":
            continue
        for s in list(sub.ball(1))[:5]:
            y = W.compose(W.compose(s, x), W.invert(s))
            other = is_regular_wrt_subgroup(sig, y, sub, radius=2).status
            if status == "regular":
                assert other != "not_regular"
            else:
                assert other == "not_regular"


def test_reg_class_lemma_relative_variant():
    """Members of a twisted-conjugation class share their regularity status."""
    sig = build_cocycle({"kind": "lift", "base": {"kind": "theta_rule", "rule": "prime_reciprocal"}}, W)
    sub = resolve_subgroup(W, "base")
    rng = random.Random(23)
    hpool = list(sub.ball(2))
    gpool = list(W.ball(2))
    for _ in range(15):
        k = rng.choice(gpool)
        t = rng.choice(hpool)
        status = is_regular_wrt_kH(sig, k, t, sub, radius=2).status
        if status == "no_witness_up_to":
            continue
        for t2 in relative_class_partial(k, t, sub, 1)[:4]:
            other = is_regular_wrt_kH(sig, k, t2, sub, radius=2).status
            if status == "regular":
                assert other != "not_regular"
            else:
                assert other == "not_regular"


def test_sanov_base_certificates():
    sig = build_cocycle({"kind": "sanov", "mu0": [1, 3], "mu1": [1, 3], "mu2": [1, 5]}, SAN)
    # v1 fixes the first basis vector; g((1,0), v1) = mu1 = 1/3 gives a witness
    g = SAN.pair((0, 0), (1,))
    rep = is_regular_wrt_subgroup(sig, g, "base")
    assert rep.status == "not_regular"
    w = rep.witness
    assert SAN.compose(g, w) == SAN.compose(w, g)
    assert sig.eval(g, w) != sig.eval(w, g)


def test_abelian_tmap_agrees_with_search():
    """Certificate vs raw search on the abelian family (both defined)."""
    sig = build_cocycle({"kind": "theta_diag", "diagonals": [[1, 2]]}, SZ)
    for data in [(), ((0, 1),), ((0, 2),), ((0, 1), (1, 1)), ((0, 2), (2, 2))]:
        g = SZ.element(data)
        cert = is_sigma_regular(sig, g).status
        found = None
        for h in SZ.ball(3):
            if sig.eval(g, h) != sig.eval(h, g):
                found = h
                break
        assert (cert == "regular") == (found is None)
