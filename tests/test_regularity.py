"""Regularity deciders: certificates, witnesses, relative variants."""

import ast
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    _echelon_rows,
    brute_force_regular_bits,
    brute_force_regular_vectors,
    certified_row_range_reference,
    code_word,
    finite_bandwidth_reference,
    integer_span_reduce,
    lattice_contains,
    relative_class_partial,
    row_image_all_zero,
    scaled_constraint_rows,
    srow_phase,
    t_theta_image,
)

import twistlab
from twistlab import groups, regularity
from twistlab.cocycles import build_cocycle, sigma_tilde
from twistlab.errors import BudgetExceededError, SpecError
from twistlab.families.sum_z import SumZ
from twistlab.fixtures import FIXTURES, _BASIS
from twistlab.groups import get_group, resolve_subgroup
from twistlab.phase import IrrationalBasis, Phase
from twistlab.regularity import (
    certified_row_range,
    free_root,
    integer_kernel,
    is_regular_wrt_kH,
    is_regular_wrt_subgroup,
    is_sigma_regular,
    regular_subgroup_generators,
    regular_vectors_in_box,
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


def test_prime_reciprocal_witness_past_a_large_coefficient():
    """100000 e_0 needs the first prime above 100000 (the 9593rd), which
    ``nth_prime`` reaches by trial division up to each candidate's root."""
    sig = build_cocycle({"kind": "theta_rule", "rule": "prime_reciprocal"}, SZ)
    rep = is_sigma_regular(sig, SZ.element(((0, 100000),)), radius=1)
    assert (rep.status, rep.witness, rep.detail) == ("not_regular", SZ.basis_element(9593), "row phase Phase(3/100003)")


def test_t_image_examples():
    sig = build_cocycle(PERIOD4, SZ, BASIS)
    img = t_theta_image(sig, SZ.identity())
    assert img.certified and row_image_all_zero(img)
    img = t_theta_image(sig, SZ.element(((1, 1), (3, 1))))
    assert img.certified and row_image_all_zero(img)
    prime = build_cocycle({"kind": "theta_rule", "rule": "prime_reciprocal"}, SZ)
    img = t_theta_image(prime, SZ.basis_element(0), window=range(1, 2))
    assert not img.certified
    assert img.rows == [(1, Phase(Fraction(1, 2)))]
    with pytest.raises(SpecError):
        t_theta_image(prime, SZ.basis_element(0))
    with pytest.raises(SpecError, match="bilinear sum-family"):
        t_theta_image(build_cocycle({"kind": "bs", "lambda": [1, 3]}, BS), BS.word("a"))


@pytest.mark.parametrize(
    "spec, group, elements",
    [
        (PERIOD4, SZ, [SZ.element(tuple((p, v) for p, v in zip((-1, 0, 1), vec) if v)) for vec in itertools.product((-1, 0, 1), repeat=3)]),
        (
            {"kind": "theta_diag", "diagonals": [[1, 3], {"rat": [1, 4], "irr": {"r": [1, 1]}}]},
            SZ,
            [SZ.element(((0, a), (1, b))) for a in (-2, 1, 3) for b in (-1, 0, 2)],
        ),
        ({"kind": "bitstream", "pre": [], "period": [1, 0]}, SZ2, [SZ2.element(d) for d in ((0,), (0, 2), (0, 1), (1, 2, 3))]),
    ],
    ids=["period4", "two_diagonals", "bitstream"],
)
def test_the_report_names_the_first_nonzero_row_of_the_image(spec, group, elements):
    """The decider stops at the first nonzero row angle and builds only its
    Phase; its witness and detail are those read off the full image."""
    sig = build_cocycle(spec, group, BASIS)
    theta = spec["kind"] != "bitstream"
    for g in elements:
        rep = is_sigma_regular(sig, g)
        bad = [(k, p) for k, p in t_theta_image(sig, g).rows if not p.is_zero()]
        if g.is_identity() or not bad:
            assert rep.status == "regular"
            continue
        k, p = bad[0]
        assert (rep.status, rep.witness) == ("not_regular", group.basis_element(k))
        assert rep.detail == (f"row phase {p!r}" if theta else "")


def test_certified_rows_cover_bandwidth():
    diag = build_cocycle({"kind": "theta_diag", "diagonals": [[1, 3], [0, 1], [1, 5]]}, SZ)
    rows = certified_row_range(diag, [0, 2])
    assert rows is not None and set(rows) >= {-3, -1, 0, 2, 3, 5}


# a theta entry as a spec literal: zero (rational or symbolic), rational or symbolic
_theta_phases = st.one_of(
    st.sampled_from([[0, 1], [3, 1], {"irr": {"r": [0, 1]}}]),
    st.tuples(st.integers(1, 6), st.integers(2, 7)).map(list),
    st.builds(lambda a, b, c: {"rat": [a, 5], "irr": {"r": [b, c]}}, st.integers(0, 4), st.integers(1, 3), st.integers(1, 4)),
)
_bits = st.lists(st.integers(0, 1), max_size=5)
_row_reach_specs = st.one_of(
    st.builds(
        lambda d, p: {"kind": "theta_diag", "diagonals": d, "period": p},
        st.lists(_theta_phases, max_size=5),
        st.lists(_theta_phases, max_size=3),
    ),
    st.builds(
        lambda entries: {"kind": "theta_window", "entries": [[j, j + m, e] for j, m, e in entries]},
        st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 6), _theta_phases), max_size=4, unique_by=lambda t: t[:2]),
    ),
    st.just({"kind": "theta_rule", "rule": "prime_reciprocal"}),
    st.builds(lambda pre, per: {"kind": "bitstream", "pre": pre, "period": per}, _bits, _bits),
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(spec=_row_reach_specs, support=st.lists(st.integers(-8, 8), max_size=4))
def test_row_reach_gives_the_reference_row_range(spec, support):
    """Each bilinear cocycle fixes its row reach when built: the rows of
    ``certified_row_range`` and a theta cocycle's ``finite_bandwidth`` are
    the ones that the per-kind rule on its family fields gives."""
    sig = build_cocycle(spec, SZ2 if spec["kind"] == "bitstream" else SZ, BASIS)
    assert certified_row_range(sig, support) == certified_row_range_reference(sig, support)
    if sig.kind == "theta":
        assert sig.finite_bandwidth == finite_bandwidth_reference(sig)


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


@pytest.mark.parametrize(
    "q_rat, q_sym, height",
    [(10**9 + 7, 4 * 10**9 + 7, 4), (10**9 * 1000003 + 7, 4 * 10**18 + 9, 2)],
    ids=["product_near_2_63", "product_past_2_63"],
)
def test_large_rational_and_symbol_denominators_keep_their_own_scale(q_rat, q_sym, height):
    """Rational rows scale to the rational denominators and symbol rows to
    the symbol's, never to their product, which may pass 2**63.

    Entry 1/2 at (0, 1) asks for even x_0 and x_1; 1/q_rat at (-2, -1) and
    r/q_sym at (2, 3) zero x_{-2}, x_{-1} and x_2 inside the box."""
    r = {"rat": [0, 1], "irr": {"r": [1, q_sym]}}
    spec = {"kind": "theta_window", "entries": [[0, 1, [1, 2]], [2, 3, r], [-2, -1, [1, q_rat]]]}
    sig = build_cocycle(spec, SZ, BASIS)
    evens = range(-height, height + 1, 2)
    expected = {(0, 0, a, b, 0) for a in evens for b in evens} - {(0,) * 5}
    found, certified = regular_vectors_in_box(sig, 2, height)
    assert certified
    assert {tuple(dict(e.data).get(p, 0) for p in range(-2, 3)) for e in found} == expected
    gens, certified = regular_subgroup_generators(sig, 2, height)
    assert certified
    (a, b), (c, d) = [[dict(e.data).get(p, 0) for p in (0, 1)] for e in gens]
    assert all(set(dict(e.data)) <= {0, 1} for e in gens)
    assert abs(a * d - b * c) == 4 and all(v % 2 == 0 for v in (a, b, c, d))  # spans 2Z x 2Z


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


def _box_array(base, window, height):
    """The integer family's nonzero box rows at a window: ``_box_rows`` of
    the ``_box_match`` of its row table."""
    return regularity._box_rows(*regularity._box_match(regularity._window_table(base, window), height))


def _eager_box(sig, window, height) -> list:
    """The box vectors built at once from the raw scan and sorted by key."""
    G = sig.structural().group
    raw, _ = regularity.regular_vectors_box_raw(sig, window, height)
    if isinstance(G, SumZ):
        positions = range(-window, window + 1)
        raw = [tuple((p, v) for p, v in zip(positions, row) if v) for row in raw.tolist()]
    return sorted((G.element(d) for d in raw), key=lambda e: G.sort_key(e.data))


@pytest.mark.parametrize(
    "spec, group, window, height",
    [
        (PERIOD4, SZ, 2, 2),
        (PERIOD4, SZ, 3, 3),
        (PERIOD4, SZ, 3, 4),
        ({"kind": "bitstream", "pre": [], "period": [1, 0]}, SZ2, 4, 1),
        ({"kind": "theta_rule", "rule": "prime_reciprocal"}, SZ, 3, 3),
    ],
    ids=["theta_2_2", "theta_3_3", "theta_3_4", "bitstream_4", "prime_reciprocal_empty"],
)
def test_box_view_behaves_as_the_eager_list(spec, group, window, height):
    sig = build_cocycle(spec, group, BASIS)
    found, _ = regular_vectors_in_box(sig, window, height)
    ref = _eager_box(sig, window, height)
    assert found == ref and ref == found and found == tuple(ref)
    assert found.__eq__(5) is NotImplemented and (found == 5) is False
    assert len(found) == len(ref) and bool(found) == bool(ref)
    assert list(found) == ref  # iteration order, across export blocks at (3, 4)
    for s in [slice(None, None, 3), slice(-7, None), slice(5, 1, -2), slice(None, None, -1)]:
        part = found[s]
        assert type(part) is list and part == ref[s]
    for i in {0, 1, len(ref) // 2, len(ref) - 1, -1, -len(ref)} if ref else ():
        assert found[i] == ref[i]
    for i in (len(ref), -len(ref) - 1):
        with pytest.raises(IndexError):
            found[i]
    for e in ref[:: max(1, len(ref) // 3)]:
        assert e in found
    assert group.basis_element(window + 1) not in found  # outside the window
    if len(ref) > 1:
        assert found != ref[:-1] and found != ref[::-1]


@pytest.mark.parametrize("family", ["theta", "bitstream"])
def test_box_view_orders_its_rows_once_and_only_when_read_in_order(family, monkeypatch):
    """`len` and truth read the scan as it came; the first ordered read
    sorts the rows, once for every later read."""
    calls: list = []
    if family == "theta":
        sig, window, height = build_cocycle(PERIOD4, SZ, BASIS), 3, 3
        order = regularity._sumz_sorted
        monkeypatch.setattr(regularity, "_sumz_sorted", lambda *a: calls.append(a) or order(*a))
    else:
        sig, window, height = build_cocycle({"kind": "bitstream", "pre": [], "period": [1, 0]}, SZ2, BASIS), 4, 1

        def counted(rows, **kwargs):  # the bit family's order: `sorted` by the group's key
            if kwargs.get("key") == SZ2.sort_key:
                calls.append(rows)
            return sorted(rows, **kwargs)

        monkeypatch.setattr(regularity, "sorted", counted, raising=False)
    found, _ = regular_vectors_in_box(sig, window, height)
    assert len(found) > 5 and bool(found)
    assert calls == []
    ref = _eager_box(sig, window, height)
    assert found[0] == ref[0] and found[2:5] == ref[2:5]
    assert list(found) == ref and found == ref
    assert len(calls) == 1


@pytest.mark.parametrize(
    "spec, group, window, height",
    [(PERIOD4, SZ, 2, 2), (PERIOD4, SZ, 3, 3), (PERIOD4, SZ, 3, 4)],
    ids=["theta_2_2", "theta_3_3", "theta_3_4"],
)
def test_box_view_counts_from_the_match_and_builds_its_rows_once(spec, group, window, height, monkeypatch):
    """`len` and truth read the match's count and build no row array; the
    first ordered read builds the rows once, and they are the eager
    `regular_vectors_box_raw` rows."""
    built: list = []
    rows = regularity._box_rows
    monkeypatch.setattr(regularity, "_box_rows", lambda *match: built.append(1) or rows(*match))
    sig = build_cocycle(spec, group, BASIS)
    found, _ = regular_vectors_in_box(sig, window, height)
    assert len(found) > 5 and bool(found) and built == []
    ref = _eager_box(sig, window, height)  # through `regular_vectors_box_raw`, which builds once more
    assert len(built) == 1 and len(found) == len(ref)
    assert found[0] == ref[0] and found[-1] == ref[-1] and found[2:5] == ref[2:5]
    assert list(found) == ref and found == ref and found == tuple(ref)
    assert len(built) == 2


def test_the_box_count_refuses_keys_past_int64_when_called():
    """The overflow check belongs to the match, so the call itself raises,
    before any row is read."""
    sig = build_cocycle(ORACLE_COCYCLES["keys_past_2_63"], SZ, TWO_SYMBOLS)
    with pytest.raises(BudgetExceededError, match="int64 keys would overflow"):
        regular_vectors_in_box(sig, 1, 1)


def test_box_scan_refuses_a_cocycle_outside_the_sum_families():
    sig = build_cocycle({"kind": "trivial"}, get_group({"family": "free", "rank": 2}), BASIS)
    with pytest.raises(SpecError, match="bilinear sum families"):
        regular_vectors_in_box(sig, 1, 1)


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
PERIOD4_GENERATORS[(2, 2)] = [((0, 1), (2, 1)), ((-1, 1), (1, 1)), ((-2, 1), (2, -1))]
PERIOD4_GENERATORS[(3, 3)] = PERIOD4_GENERATORS[(3, 4)]

# Hermite bases of the PERIOD4 kernel lattice by window.  The basis is
# unique, so any set of constraint rows with the same solutions gives it.
PERIOD4_KERNELS = {
    2: [(1, 0, 0, 0, -1), (0, 1, 0, 1, 0), (0, 0, 1, 0, 1)],
    3: [
        (1, 0, 0, 0, 0, 0, 1),
        (0, 1, 0, 0, 0, -1, 0),
        (0, 0, 1, 0, 0, 0, -1),
        (0, 0, 0, 1, 0, 1, 0),
        (0, 0, 0, 0, 1, 0, 1),
    ],
    4: [
        (1, 0, 0, 0, 0, 0, 0, 0, -1),
        (0, 1, 0, 0, 0, 0, 0, 1, 0),
        (0, 0, 1, 0, 0, 0, 0, 0, 1),
        (0, 0, 0, 1, 0, 0, 0, -1, 0),
        (0, 0, 0, 0, 1, 0, 0, 0, -1),
        (0, 0, 0, 0, 0, 1, 0, 1, 0),
        (0, 0, 0, 0, 0, 0, 1, 0, 1),
    ],
}


@pytest.mark.parametrize("window", sorted(PERIOD4_KERNELS))
def test_period4_kernel_basis_pinned(window):
    base = build_cocycle(PERIOD4, SZ, BASIS).structural()
    assert regularity._window_table(base, window).kernel == PERIOD4_KERNELS[window]


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


def test_warm_generators_derive_the_kernel_basis_once_per_window(monkeypatch):
    """The kernel basis is a field of the window's row table, so repeated
    `regular_subgroup_generators` calls run `integer_kernel` once per
    (cocycle, window), whatever the height."""
    calls = []
    kernel = regularity.integer_kernel
    monkeypatch.setattr(regularity, "integer_kernel", lambda *a: calls.append(a[-1]) or kernel(*a))
    sig = build_cocycle(PERIOD4, SZ, BASIS)
    vars(sig.structural()).pop("_tables", None)
    for _ in range(3):
        for window, height in [(3, 4), (4, 3), (4, 4), (3, 3)]:
            gens, complete = regular_subgroup_generators(sig, window, height)
            assert complete and [g.data for g in gens] == PERIOD4_GENERATORS[(window, height)]
    assert calls == [7, 9]


TWO_SYMBOLS = IrrationalBasis({"r": 0.3819660112501051, "s": 0.29})
# Small cocycles for the box scan against the brute-force oracle: each has
# constraint rows that repeat or depend on others.
ORACLE_COCYCLES = {
    "rational_D6": {"kind": "theta_diag", "diagonals": [[1, 3], [1, 2]]},
    "rational_period": {"kind": "theta_diag", "diagonals": [[1, 4]], "period": [[1, 2], [0, 1]]},
    "two_symbols": {
        "kind": "theta_diag",
        "diagonals": [{"rat": [1, 4], "irr": {"r": [1, 1]}}, {"rat": [0, 1], "irr": {"r": [-1, 3], "s": [1, 2]}}],
    },
    "two_symbols_period": {
        "kind": "theta_diag",
        "diagonals": [],
        "period": [{"rat": [1, 2], "irr": {"s": [1, 1]}}, R, [1, 3]],
    },
    "period4": PERIOD4,
    "large_product_near_2_63": {
        "kind": "theta_window",
        "entries": [[0, 1, [1, 2]], [2, 3, {"rat": [0, 1], "irr": {"r": [1, 4 * 10**9 + 7]}}], [-2, -1, [1, 10**9 + 7]]],
    },
    "large_product_past_2_63": {
        "kind": "theta_window",
        "entries": [
            [0, 1, [1, 2]],
            [2, 3, {"rat": [0, 1], "irr": {"r": [1, 4 * 10**18 + 9]}}],
            [-2, -1, [1, 10**9 * 1000003 + 7]],
        ],
    },
    # x_0, x_1 and x_2 must vanish, with int64 keys just under the bound: at
    # window 2, height 3 a right-half key entry reaches 3 * ((2**63 - 1) // 3),
    # which is 2**63 - 2
    "keys_near_2_63": {
        "kind": "theta_window",
        "entries": [
            [0, 1, {"rat": [0, 1], "irr": {"r": [1, (2**63 - 1) // 3]}}],
            [2, 3, {"rat": [0, 1], "irr": {"r": [1, 2**61 - 1]}}],
        ],
    },
    # the symbol-r row is 5 x_{-1} + x_0 and the symbol-s row is x_1, from
    # rows 5 and 6: a left key -5 x_{-1} leaves the right half's range
    # [-height, height], so in a span taken from the right half alone it
    # would carry into the s column (at height 2, x_{-1} = 1 would match
    # x_0 = 2, x_1 = -1)
    "left_keys_outside_the_right_range": {
        "kind": "theta_window",
        "entries": [
            [-1, 5, {"rat": [0, 1], "irr": {"r": [-5, 1]}}],
            [0, 5, {"rat": [0, 1], "irr": {"r": [-1, 1]}}],
            [1, 6, {"rat": [0, 1], "irr": {"s": [-1, 1]}}],
        ],
    },
    # scaled entries 2**62 + 1 and 2**62 - 1: keys past int64 at every box
    # here, so the scan refuses (they would wrap, and match non-solutions)
    "keys_past_2_63": {
        "kind": "theta_diag",
        "diagonals": [],
        "period": [{"rat": [0, 1], "irr": {"r": [1, 2**62 - 1]}}, {"rat": [0, 1], "irr": {"r": [1, 2**62 + 1]}}],
    },
}
REFUSED_COCYCLES = {"keys_past_2_63"}


@pytest.mark.parametrize("window, height", [(1, 2), (2, 2), (2, 3)])
@pytest.mark.parametrize("name", sorted(ORACLE_COCYCLES))
def test_box_solution_array_equals_the_brute_force_oracle(name, window, height):
    """Row for row, in lexicographic order, on the reduced constraint rows;
    or a refusal where the int64 keys could wrap."""
    base = build_cocycle(ORACLE_COCYCLES[name], SZ, TWO_SYMBOLS).structural()
    positions = list(range(-window, window + 1))
    rows = list(certified_row_range(base, positions))
    if name in REFUSED_COCYCLES:
        with pytest.raises(BudgetExceededError, match="int64 keys would overflow"):
            _box_array(base, window, height)
        return
    found = _box_array(base, window, height)
    brute = brute_force_regular_vectors(base, window, height, rows)
    assert found.shape == brute.shape and np.array_equal(found, brute)


# sha256 (first 16 hex digits) of each `_box_match` array of PERIOD4, with
# its dtype and shape, recorded from the two-column lexsort join that the
# folded key replaced: the fold must keep every array, `lo` of the left rows
# without a match included.
FROZEN_PERIOD4_MATCH = {
    (3, 4): [
        ("int8", (729, 3), "4690f7c41cb7e114"),
        ("int8", (6561, 4), "3c5b0abcaf4692cc"),
        ("int64", (6561,), "1499cd8a97136ade"),
        ("int64", (729,), "5e706b923190d9fb"),
        ("int64", (729,), "3313ee92ffa7ae22"),
        ("int64", (729,), "1e52bf6b23510f11"),
    ],
    (4, 3): [
        ("int8", (2401, 4), "2426818a2fae6585"),
        ("int8", (16807, 5), "3ab7d89d5370fd20"),
        ("int64", (16807,), "c5f3ccdc995a51a4"),
        ("int64", (2401,), "deb65a00466997ce"),
        ("int64", (2401,), "821f5661a558e640"),
        ("int64", (2401,), "64a07a6c2486704f"),
    ],
}


@pytest.mark.parametrize("window, height", sorted(FROZEN_PERIOD4_MATCH))
def test_period4_box_match_keeps_its_frozen_arrays(window, height):
    base = build_cocycle(PERIOD4, SZ, BASIS).structural()
    match = regularity._box_match(regularity._window_table(base, window), height)
    got = [(str(a.dtype), a.shape, hashlib.sha256(a.tobytes()).hexdigest()[:16]) for a in match]
    assert got == FROZEN_PERIOD4_MATCH[(window, height)]


# One sha256 prefix (16 hex digits) per `_box_match` of each
# `ORACLE_COCYCLES` entry at windows 1-3 and heights 0-3, over the dtype,
# shape and bytes of each of its six arrays in turn; None where the scan
# refuses.  Recorded from the join that folded its key columns in runs,
# pinned left keys outside the right range and dense-ranked a run past
# 2**63: 34 of these cases have spans whose product passes 2**63.
FROZEN_ORACLE_MATCH = {
    "keys_near_2_63": (
        ("ede97299c49d0997", "748de468b24fde81", "ce072c741c60de0f", "75df33c55193fd5a"),
        ("7a0af5702c2453b7", "1eb285bb30b77f38", "597a056f81d32071", "a9e2d7a632346c48"),
        ("eac9d14eaba88f26", "4c35be5986a2bb94", "163b8c56cd192d4d", "41d5f3742a0eb1ea"),
    ),
    "keys_past_2_63": (
        (None, None, None, None),
        (None, None, None, None),
        (None, None, None, None),
    ),
    "large_product_near_2_63": (
        ("ede97299c49d0997", "8a420f727ca8d532", "0e221a85b964314f", "8bbdb20e28e02a03"),
        ("7a0af5702c2453b7", "f920270d5863f952", "b6085832d3b3d183", "29f5f9d0d71dfbec"),
        ("eac9d14eaba88f26", "cdcb9c4d001388f5", "407ae87034c2576d", "33869271bd573dd6"),
    ),
    "large_product_past_2_63": (
        ("ede97299c49d0997", "8a420f727ca8d532", "0e221a85b964314f", "8bbdb20e28e02a03"),
        ("7a0af5702c2453b7", "f920270d5863f952", "b6085832d3b3d183", "29f5f9d0d71dfbec"),
        ("eac9d14eaba88f26", "cdcb9c4d001388f5", "407ae87034c2576d", "33869271bd573dd6"),
    ),
    "left_keys_outside_the_right_range": (
        ("ede97299c49d0997", "6fb0f82c3c781d58", "814ea1bdef0b0f7a", "05b809a091fb39b0"),
        ("7a0af5702c2453b7", "8ac59ea11225fca9", "f53f16ca75113b7e", "f60492541d2df1df"),
        ("eac9d14eaba88f26", "ce724180ef1b9493", "66d53883efeefa75", "44bed6ee2e377f1b"),
    ),
    "period4": (
        ("ede97299c49d0997", "93b93e594ef22701", "f2d6e562a240ab42", "bf74698584bd768f"),
        ("7a0af5702c2453b7", "92af4b4ab91f9f90", "865f7a728bab37ba", "050e7a8bd6ace8ee"),
        ("eac9d14eaba88f26", "49f8fb940b90ce48", "932fa304c0eb8d6c", "b390d78d493a3933"),
    ),
    "rational_D6": (
        ("ede97299c49d0997", "8e251e46d31981b4", "474148b51e0d04e8", "b0b03268e007fefb"),
        ("7a0af5702c2453b7", "3b9cf3783794b755", "b20324157841901a", "4dfcbfc703a4f238"),
        ("eac9d14eaba88f26", "9e15ce56d8833933", "9547b0515b56380e", "749568b40680c5d5"),
    ),
    "rational_period": (
        ("ede97299c49d0997", "8e251e46d31981b4", "e71f0859ccbbf3f4", "be562b5deec0e118"),
        ("7a0af5702c2453b7", "51866bf35d40d2fd", "a9ee6038b2df446b", "5d7be62eb05552ea"),
        ("eac9d14eaba88f26", "7a967c933d60bdbf", "00cb9e1f240f3cec", "8ca25145d2831ccb"),
    ),
    "two_symbols": (
        ("ede97299c49d0997", "b0fa00ad615304ba", "18989e106c896dcd", "f5728c7a8e867d5e"),
        ("7a0af5702c2453b7", "ed6588dde8441561", "d64861626cefbea4", "116cdf685032c72c"),
        ("eac9d14eaba88f26", "54f71a4220e9749f", "3bbbe1d5d7c11134", "f0c38936bbabe7af"),
    ),
    "two_symbols_period": (
        ("ede97299c49d0997", "bbf6a8972f24c8f3", "db1420bdb7324e52", "a78b53c95f1e80b2"),
        ("7a0af5702c2453b7", "1a70c01330d35456", "632db39517d7adff", "8a87152a09a4a92a"),
        ("eac9d14eaba88f26", "ed8ae864f8e68961", "39a544b7eaf399a6", "5d1f49e936052e23"),
    ),
}


def _match_digest(match) -> str:
    digest = hashlib.sha256()
    for a in match:
        digest.update(f"{a.dtype}{a.shape}".encode())
        digest.update(a.tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(FROZEN_ORACLE_MATCH))
def test_oracle_box_matches_keep_their_frozen_arrays(name):
    base = build_cocycle(ORACLE_COCYCLES[name], SZ, TWO_SYMBOLS).structural()
    got = []
    for window in (1, 2, 3):
        row = []
        for height in range(4):
            try:
                row.append(_match_digest(regularity._box_match(regularity._window_table(base, window), height)))
            except BudgetExceededError:
                row.append(None)
        got.append(tuple(row))
    assert tuple(got) == FROZEN_ORACLE_MATCH[name]


# D = 2**62 + 1 fits in int64, but a row holds the negated entry 2**62, so
# height times its half's absolute sum passes 2**63 from height 2 on
RATIONAL_ROW_PAST_2_63 = {"kind": "theta_diag", "diagonals": [[1, 2**62 + 1]]}


@pytest.mark.parametrize("height", [1, 2, 3])
def test_the_box_scan_refuses_a_rational_row_past_int64(height):
    """The overflow check covers the rational rows too; below it the scan
    agrees with the brute-force oracle."""
    base = build_cocycle(RATIONAL_ROW_PAST_2_63, SZ).structural()
    if height > 1:
        with pytest.raises(BudgetExceededError, match="int64 keys would overflow"):
            _box_array(base, 2, height)
        return
    rows = list(certified_row_range(base, list(range(-2, 3))))
    assert np.array_equal(_box_array(base, 2, height), brute_force_regular_vectors(base, 2, height, rows))


def test_the_half_grids_are_built_once_and_read_only():
    """A warm scan reads each (ncols, height) grid from one read-only
    array, and the key of a half is the grid's product with the folded
    coefficients, by outer sums."""
    base = build_cocycle(PERIOD4, SZ, BASIS).structural()
    first = regularity._box_match(regularity._window_table(base, 2), 2)
    again = regularity._box_match(regularity._window_table(base, 2), 2)
    assert first[0] is again[0] is regularity._grid(2, 2) and first[1] is again[1] is regularity._grid(3, 2)
    for grid in first[:2]:
        assert not grid.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            grid[0, 0] = 0
    assert regularity._grid(3, 2).tolist() == [list(v) for v in itertools.product(range(-2, 3), repeat=3)]
    rng = random.Random(4)
    for ncols, height in [(0, 1), (1, 3), (3, 2), (4, 1)]:
        w = [rng.randrange(-10**6, 10**6) for _ in range(ncols)]
        grid = regularity._grid(ncols, height).astype(np.int64)
        vals = np.arange(-height, height + 1, dtype=np.int64)
        assert regularity._grid_dot(vals, w, 7).tolist() == (grid @ np.array(w, dtype=np.int64) + 7).tolist()


@pytest.mark.parametrize("name", ["keys_near_2_63", "large_product_past_2_63", "two_symbols"])
def test_a_one_point_box_matches_the_zero_vector_with_itself(name):
    """At height 0 the box is the zero vector alone, which matches itself:
    no nonzero solution, also where the folded coefficients would pass
    2**63 if the spans were taken at height 0."""
    base = build_cocycle(ORACLE_COCYCLES[name], SZ, TWO_SYMBOLS).structural()
    for window in (1, 2, 3):
        left, right, rorder, lo, counts, ends = regularity._box_match(regularity._window_table(base, window), 0)
        assert (left.shape[0], right.shape[0], rorder.tolist(), lo.tolist(), counts.tolist(), ends.tolist()) == (1, 1, [0], [0], [1], [1])
        assert _box_array(base, window, 0).shape == (0, 2 * window + 1)


def _is_subsequence(part: list, whole: list) -> bool:
    rest = iter(whole)
    return all(any(row == other for other in rest) for row in part)


@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(ORACLE_COCYCLES))
def test_integer_rows_keep_a_subset_of_the_scaled_rows(name, window):
    """The constraint rows are the scaled rows that enlarge their span, in
    order: no combination, so no entry grows; none at all when D = 1."""
    base = build_cocycle(ORACLE_COCYCLES[name], SZ, TWO_SYMBOLS).structural()
    positions = list(range(-window, window + 1))
    rows = list(certified_row_range(base, positions))
    D, rat, sym = regularity._window_table(base, window).constraints
    D_all, rat_all, sym_all = scaled_constraint_rows(base, positions, rows)
    assert D == D_all and _is_subsequence(rat, rat_all)
    assert len(sym) == len(sym_all)
    for kept, (_, every) in zip(sym, sorted(sym_all.items())):
        assert _is_subsequence(kept, every)
        assert len(kept) == np.linalg.matrix_rank(np.array(every, dtype=float))
    if D == 1:
        assert rat == []


def test_period4_keys_on_two_rows():
    """PERIOD4 has D = 1 and 15 symbol rows of rank 2 at window 3."""
    base = build_cocycle(PERIOD4, SZ, BASIS).structural()
    positions = list(range(-3, 4))
    rows = list(certified_row_range(base, positions))
    D, rat, sym = regularity._window_table(base, 3).constraints
    assert (D, rat, [len(w) for w in sym]) == (1, [], [2])
    assert len(scaled_constraint_rows(base, positions, rows)[2]["r"]) == 15


ROW_WALK_BITSTREAMS = [
    {"kind": "bitstream", "pre": [1], "period": []},
    {"kind": "bitstream", "pre": [], "period": [1, 0]},
    {"kind": "bitstream", "pre": [0, 1], "period": [1, 1, 0]},
]
PRIME = {"kind": "theta_rule", "rule": "prime_reciprocal"}
# (number of records, first 16 hex digits of the sha256 of their lines) of
# `_row_walk_records`, recorded from the per-row angle sums that the entry
# table replaced
ROW_WALK_RECORD = (1012, "67ad1e436dfdac45")


def _row_walk_sample():
    """(cocycle, elements) pairs: each fixture with its element, candidates
    and witness (and, on a sum family, the radius-2 ball), every
    `ORACLE_COCYCLES` entry (symbolic rows, explicit windows) and three
    bitstreams on a ball, and the prime-reciprocal rule."""
    for fx in FIXTURES:
        G = get_group(fx.group)
        given = [fx.element, *fx.candidates, fx.expected.get("witness")]
        elements = [G.element_from_json(e) for e in given if isinstance(e, (dict, list))]
        if G.family in ("sum_z", "sum_z2"):
            elements += G.ball(2)
        yield build_cocycle(fx.cocycle, G, _BASIS), elements
    for name in sorted(ORACLE_COCYCLES):
        yield build_cocycle(ORACLE_COCYCLES[name], SZ, TWO_SYMBOLS), SZ.ball(2)
    for spec in ROW_WALK_BITSTREAMS:
        yield build_cocycle(spec, SZ2), SZ2.ball(3)
    yield build_cocycle(PRIME, SZ), SZ.ball(2)


def _row_walk_records() -> list[str]:
    """Each sample report's status, rule, witness and detail, then the
    prime rule's images over an explicit row window."""

    def record(rep) -> str:
        witness = None if rep.witness is None else rep.witness.group.element_to_json(rep.witness)
        return json.dumps([rep.status, rep.rule, witness, rep.detail], sort_keys=True)

    lines = [record(is_sigma_regular(sig, g)) for sig, elements in _row_walk_sample() for g in elements]
    prime = build_cocycle(PRIME, SZ)
    return lines + [repr(t_theta_image(prime, g, window=range(-3, 4))) for g in SZ.ball(1)]


def _digest(lines: list[str]) -> tuple[int, str]:
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@pytest.mark.parametrize("table_size", [groups.TABLE_SIZE, 3])
def test_row_walk_reports_are_equal_cold_warm_and_as_recorded(table_size, monkeypatch):
    """The reports read off the row table equal those of the per-row
    sums on a cold first call (no table on any cocycle) and on a warm
    repeat, also when the table evicts; no table passes `TABLE_SIZE`."""
    monkeypatch.setattr(groups, "TABLE_SIZE", table_size)
    bases = {id(b): b for b in (sig.structural() for sig, _ in _row_walk_sample())}.values()
    for base in bases:
        vars(base).pop("_tables", None)
    cold = _row_walk_records()
    assert any("_tables" in vars(b) for b in bases)
    assert _row_walk_records() == cold
    assert _digest(cold) == ROW_WALK_RECORD
    assert all(len(vars(b).get("_tables", ())) <= table_size for b in bases)


def test_the_box_scan_and_the_row_walk_share_one_entry_table():
    """The box scan's constraints and the row sums read one record per
    (positions, rows), whose entries are derived once."""
    base = build_cocycle(ORACLE_COCYCLES["two_symbols"], SZ, TWO_SYMBOLS).structural()
    positions = list(range(-2, 3))
    rows = certified_row_range(base, positions)
    vars(base).pop("_tables", None)
    table = regularity._window_table(base, 2)
    table.constraints
    tables = dict(vars(base)["_tables"])
    assert tables == {(tuple(positions), tuple(rows)): table}
    D = table.D
    values = (1, -2, 0, 3, 1)
    D_sums, rat, syms = regularity._row_sums(base, tuple(positions), rows, values)
    angles = list(zip(rows, rat, *syms))
    assert vars(base)["_tables"] == tables and D_sums == D and len(angles) == len(rows)
    for k, r, *cs in angles:
        want = Phase(0)
        for j, v in zip(positions, values):
            want = want * srow_phase(base, j, k).scale(v)
        assert base.phase((r, tuple(cs), D)) == want


def test_generators_fall_back_to_box_span(monkeypatch):
    """theta_diag [[1,5]] has kernel vectors with entries up to 5, beyond
    height 2, so the generators come from the box vectors, whose span must
    match the brute-force oracle's."""
    sig = build_cocycle({"kind": "theta_diag", "diagonals": [[1, 5]]}, SZ)
    positions = list(range(-2, 3))
    rows = list(certified_row_range(sig, positions))
    kernel = regularity._window_table(sig.structural(), 2).kernel
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


def test_box_span_generators_are_the_hermite_basis_of_the_box_rows():
    """The window cocycle of the large-denominator test at height 2: the
    kernel basis has entries 1000003000000007, past the height, so the
    generators come from the box rows, as their Hermite basis 2e_0, 2e_1."""
    r = {"rat": [0, 1], "irr": {"r": [1, 4 * 10**18 + 9]}}
    spec = {"kind": "theta_window", "entries": [[0, 1, [1, 2]], [2, 3, r], [-2, -1, [1, 10**9 * 1000003 + 7]]]}
    sig = build_cocycle(spec, SZ, BASIS)
    kernel = regularity._window_table(sig.structural(), 2).kernel
    assert max(abs(v) for vec in kernel for v in vec) > 2
    raw, _ = regularity.regular_vectors_box_raw(sig, 2, 2)
    assert regularity._hermite_basis(raw.tolist(), 5) == [(0, 0, 2, 0, 0), (0, 0, 0, 2, 0)]
    gens, complete = regular_subgroup_generators(sig, 2, 2)
    assert complete and gens == [SZ.element(((0, 2),)), SZ.element(((1, 2),))]


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


def test_bitstream_box_scan_does_not_import_numpy():
    """The bit family's scan is a parity walk over Python ints."""
    script = (
        "import sys\n"
        "from twistlab.cocycles import build_cocycle\n"
        "from twistlab.groups import get_group\n"
        "from twistlab.regularity import regular_subgroup_generators, regular_vectors_in_box\n"
        "sig = build_cocycle({'kind': 'bitstream', 'pre': [], 'period': [1, 0]}, get_group({'family': 'sum_z2'}))\n"
        "gens, complete = regular_subgroup_generators(sig, 4, 1)\n"
        "print(len(gens), len(regular_vectors_in_box(sig, 4, 1)[0]), complete, 'numpy' in sys.modules)\n"
    )
    src = str(Path(twistlab.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["7", "127", "True", "False"]


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
    assert is_sigma_regular(sig, FZ.pair("", 15)).status == "regular"
    assert is_sigma_regular(sig, FZ.pair("", 3)).status == "not_regular"
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
    # 2*j - 3*l = 1 at j = -1: the witness walks the root backwards
    g = FZ.pair("a a a", 2)
    rep = is_sigma_regular(sig, g)
    assert rep.status == "not_regular" and rep.witness == FZ.pair("A", -1)
    w = rep.witness
    assert FZ.compose(g, w) == FZ.compose(w, g)
    assert sig.eval(g, w) != sig.eval(w, g)
    # a conjugated root a b A: the witness's root power (j = 2) is reduced
    g = FZ.pair("a b b b b b A", 3)
    rep = is_sigma_regular(sig, g)
    assert rep.status == "not_regular" and rep.witness == FZ.pair("a b b A", 1)
    w = rep.witness
    assert FZ.compose(g, w) == FZ.compose(w, g)
    assert sig.eval(g, w) != sig.eval(w, g)


def test_free_root():
    assert free_root(code_word((1, 1, 1))) == (code_word((1,)), 3)
    assert free_root(code_word((1, 2))) == (code_word((1, 2)), 1)
    assert free_root(code_word((1, 2, 1, 2))) == (code_word((1, 2)), 2)
    assert free_root(b"") == (b"", 1)
    # cyclically non-reduced powers: (aba^{-1})^2 written reduced
    word = code_word((1, 2, 2, -1))
    root, d = free_root(word)
    assert root == code_word((1, 2, -1)) and d == 2


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
    g = SAN.pair((0, 0), "a")
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


def test_sanov_fixed_vector_witness_is_the_hermite_vector():
    """The fixed vectors of a b A form the line through (2, 1); the witness
    is its Hermite generator, whose pivot is positive."""
    sig = build_cocycle({"kind": "sanov", "mu0": [1, 2], "mu1": [1, 3], "mu2": [1, 5]}, SAN)
    g = SAN.element_from_json({"v": [0, 1], "w": "a b A"})
    rep = is_regular_wrt_subgroup(sig, g, "base")
    assert rep.status == "not_regular"
    assert SAN.element_to_json(rep.witness) == {"v": [2, 1], "w": ""}
    assert SAN.compose(g, rep.witness) == SAN.compose(rep.witness, g)
    assert sig.eval(g, rep.witness) != sig.eval(rep.witness, g)


def _is_hermite(basis: list[tuple[int, ...]]) -> bool:
    """Pivots strictly increase and are positive; the entries above each
    pivot lie in [0, pivot)."""
    pivots = [next((t for t, v in enumerate(b) if v), None) for b in basis]
    if None in pivots or pivots != sorted(set(pivots)):
        return False
    return all(
        b[p] > 0 and all(0 <= a[p] < b[p] for a in basis[:i]) for i, (b, p) in enumerate(zip(basis, pivots))
    )


small_rows = lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=2)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_integer_kernel_spans_the_brute_force_solutions(data):
    """On random small systems the kernel basis is in Hermite form, solves
    the system, has the rank left by the exact rows, and spans exactly the
    solutions in [-6, 6]^n (when its own entries fit in that box)."""
    n = data.draw(st.integers(1, 4))
    D = data.draw(st.integers(1, 6))
    rat, exact = data.draw(small_rows(n)), data.draw(small_rows(n))
    basis = integer_kernel(D, [list(r) for r in rat], [list(r) for r in exact], n)
    assert _is_hermite(basis)
    grid = np.array(np.meshgrid(*[np.arange(-6, 7)] * n, indexing="ij")).reshape(n, -1).T
    ok = grid.any(axis=1)
    if rat:
        ok &= ((grid @ np.array(rat).T) % D == 0).all(axis=1)
    if exact:
        ok &= (grid @ np.array(exact).T == 0).all(axis=1)
    brute = grid[ok]
    rows = np.array(basis, dtype=np.int64).reshape(-1, n)
    for b in basis:
        assert all(sum(r * x for r, x in zip(row, b)) % D == 0 for row in rat)
        assert all(sum(r * x for r, x in zip(row, b)) == 0 for row in exact)
    assert len(basis) == n - (np.linalg.matrix_rank(np.array(exact)) if exact else 0)
    assert not integer_span_reduce(rows, brute).any()
    if rows.size == 0 or np.abs(rows).max() <= 6:
        assert not integer_span_reduce(brute, rows).any()


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_spanning_rows_keep_the_integer_kernel(data):
    """``_spanning_rows`` keeps exactly the rows that lower the index of the
    module mod D, or raise the rank over the rationals (repeats and sums of
    drawn rows mixed in), and the kernel basis stays the same."""
    n = data.draw(st.integers(1, 4))
    D = data.draw(st.integers(1, 6))
    row = st.lists(st.integers(-4, 4), min_size=n, max_size=n)

    def with_dependents(rows):
        picks = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3)) if rows else []
        extra = [[x + y for x, y in zip(rows[i % len(rows)], rows[j % len(rows)])] for i, j in picks]
        return rows + extra + rows[:1]

    rat = with_dependents(data.draw(st.lists(row, max_size=3)))
    exact = with_dependents(data.draw(st.lists(row, max_size=3)))

    def index(rows):  # [Z^n : span(rows) + D Z^n], the product of the echelon pivots
        lattice = _echelon_rows(rows + [[D * (t == i) for t in range(n)] for i in range(n)])
        return math.prod(abs(next(v for v in b if v)) for b in lattice)

    def rank(rows):
        return np.linalg.matrix_rank(np.array(rows, dtype=float)) if rows else 0

    kept_rat = regularity._spanning_rows(rat, n, D)
    kept_exact = regularity._spanning_rows(exact, n, None)
    assert kept_rat == [r for i, r in enumerate(rat) if index(rat[: i + 1]) < index(rat[:i])]
    assert kept_exact == [r for i, r in enumerate(exact) if rank(exact[: i + 1]) > rank(exact[:i])]
    if D == 1:
        assert kept_rat == []
    assert integer_kernel(D, kept_rat, kept_exact, n) == integer_kernel(D, rat, exact, n)


def _small_matrix(data, n: int, max_rows: int) -> list[list[int]]:
    """Up to max_rows drawn integer rows of length n, then an integer
    combination of them, so that rows inside the span come up too."""
    rows = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=max_rows))
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
    return rows + [[sum(c * r[t] for c, r in zip(coeffs, rows)) for t in range(n)]]


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_hermite_basis_is_the_hermite_form_of_the_rows(data):
    """``_hermite_basis`` is in Hermite form (positive pivots, entries above
    each pivot in [0, pivot), no zero rows) and spans exactly the rows;
    since a lattice has one Hermite form, shuffling the rows or appending
    an integer combination of them leaves it unchanged."""
    n = data.draw(st.integers(1, 4))
    rows = _small_matrix(data, n, 4)
    basis = regularity._hermite_basis([list(r) for r in rows], n)
    assert _is_hermite(basis)
    assert all(lattice_contains(basis, tuple(r)) for r in rows)
    assert not integer_span_reduce(np.array(rows), np.array(basis, dtype=np.int64).reshape(-1, n)).any()
    shuffled = data.draw(st.permutations(rows))
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    extra = [sum(c * r[t] for c, r in zip(coeffs, rows)) for t in range(n)]
    assert regularity._hermite_basis([list(r) for r in shuffled] + [extra], n) == basis


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_insert_grows_the_lattice_exactly_by_rows_outside_its_span(data):
    """``_insert`` returns False exactly when the row already lies in the
    integer span of the rows inserted before it (``integer_span_reduce``)."""
    n = data.draw(st.integers(1, 3))
    rows = _small_matrix(data, n, 4)
    rows.append(rows[0])
    basis: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        inside = not integer_span_reduce(np.array(rows[:i], dtype=np.int64).reshape(-1, n), np.array([row])).any()
        assert regularity._insert(basis, row) == (not inside), (rows[:i], row)


def _regularity_rule_literals() -> set[str]:
    """Every ``rule="..."`` string that regularity.py passes to a call."""
    tree = ast.parse(Path(regularity.__file__).read_text())
    return {
        kw.value.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for kw in node.keywords
        if kw.arg == "rule" and isinstance(kw.value, ast.Constant)
    }


def test_every_regularity_rule_fires_on_a_pinned_input():
    Z2 = get_group({"family": "zn", "n": 2})
    trivial = build_cocycle({"kind": "trivial"}, FZ)
    theta = build_cocycle({"kind": "theta_diag", "diagonals": [[1, 2]]}, SZ)
    skew = build_cocycle({"kind": "half_skew", "mu0": [1, 2]}, Z2)
    bs = build_cocycle({"kind": "bs", "lambda": [1, 2]}, BS)
    f2xz = build_cocycle({"kind": "f2xz", "mu": [1, 3], "nu": [1, 5]}, FZ)
    f2xz_half = build_cocycle({"kind": "f2xz", "mu": [1, 2], "nu": [1, 2]}, FZ)
    lift = build_cocycle({"kind": "lift", "base": {"kind": "theta_diag", "diagonals": [[1, 3]]}}, W)
    sanov = build_cocycle({"kind": "sanov", "mu0": [1, 3], "mu1": [1, 3], "mu2": [1, 5]}, SAN)
    sanov_mu1_zero = build_cocycle({"kind": "sanov", "mu0": [1, 3], "mu1": [0, 1], "mu2": [1, 5]}, SAN)
    pinned = {
        "identity": is_sigma_regular(f2xz, FZ.identity()),
        "symmetric_cocycle": is_sigma_regular(trivial, FZ.pair("a", 1)),
        "t_kernel_rows_vanish": is_sigma_regular(theta, SZ.element(((0, 2),))),
        "skew_form_kernel": is_sigma_regular(skew, Z2.vector(2, 0)),
        "central_power_kills_twist": is_sigma_regular(bs, BS.b_power(2)),
        "characters_trivial_on_power": is_sigma_regular(f2xz_half, FZ.pair("", 2)),
        "character_on_centralizer_vanishes": is_sigma_regular(f2xz, FZ.pair("a a a", 0)),
        "trivial_subgroup": is_regular_wrt_subgroup(f2xz, FZ.pair("a", 1), "trivial"),
        "central_twist_vanishes_on_power": is_regular_wrt_subgroup(bs, BS.word("b a a"), "center"),
        "character_vanishes_on_word": is_regular_wrt_subgroup(f2xz, FZ.pair("b b b b b", 0), "z"),
        "no_nontrivial_commuting_base_elements": is_regular_wrt_subgroup(lift, W.element(((), 1)), "base"),
        "no_fixed_lattice_vectors": is_regular_wrt_subgroup(sanov, SAN.pair((1, 0), "a b"), "base"),
        "twist_vanishes_on_fixed_vectors": is_regular_wrt_subgroup(sanov_mu1_zero, SAN.pair((1, 0), "a"), "base"),
    }
    for rule, report in pinned.items():
        assert report.status == "regular" and report.rule == rule, (rule, report)
    assert set(pinned) == _regularity_rule_literals()


DEFINITION_PHASES = ([1, 2], [1, 3], [1, 4], R)  # rational, and a symbol
BITSTREAMS = ({"pre": [1]}, {"period": [1]}, {"pre": [0, 1], "period": [0, 1]}, {"pre": [1], "period": [1, 0, 0]})


def _lift(base: dict) -> dict:
    return {"kind": "lift", "base": base}


# group spec and the cocycle specs on it whose regularity reports are checked
DEFINITION_CASES = {
    "sum_z": ({"family": "sum_z"}, [
        spec for p in DEFINITION_PHASES for spec in (
            {"kind": "theta_diag", "diagonals": [p]},
            {"kind": "theta_diag", "period": [p, [0, 1]]},
            {"kind": "theta_window", "entries": [[0, 1, p], [-1, 1, [1, 3]]]},
        )
    ]),
    "sum_z2": ({"family": "sum_z2"}, [{"kind": "bitstream", **bits} for bits in BITSTREAMS]),
    # ball(3) is the whole group: its rows are the indices below the modulus, not the line's
    "sum_z2_modulus_3": ({"family": "sum_z2", "modulus": 3}, [
        {"kind": "bitstream", **bits} for bits in (*BITSTREAMS, {"pre": [0, 0], "period": [1]})
    ]),
    "zn": ({"family": "zn", "n": 2}, [
        spec for p in DEFINITION_PHASES for spec in ({"kind": "antisym_theta", "theta": p}, {"kind": "half_skew", "mu0": p})
    ]),
    "bs_nn_2": ({"family": "bs_nn", "n": 2}, [{"kind": "bs", "lambda": p} for p in DEFINITION_PHASES]),
    "bs_nn_3": ({"family": "bs_nn", "n": 3}, [{"kind": "bs", "lambda": p} for p in DEFINITION_PHASES]),
    "sanov": ({"family": "sanov"}, [{"kind": "sanov", "mu0": p, "mu1": [1, 3], "mu2": [1, 5]} for p in DEFINITION_PHASES]),
    "free_times_z": ({"family": "free_times_z"}, [{"kind": "f2xz", "mu": p, "nu": [1, 3]} for p in DEFINITION_PHASES]),
    "wreath_Z": ({"family": "wreath", "base": "Z"}, [
        _lift({"kind": "theta_diag", "diagonals": [p]}) for p in DEFINITION_PHASES
    ]),
    "wreath_Z2": ({"family": "wreath", "base": "Z2"}, [_lift({"kind": "bitstream", **bits}) for bits in BITSTREAMS[2:]]),
    # the only bitstreams that are invariant around the 3-cycle vanish on it
    "wreath_Z2_acting_3": ({"family": "wreath", "base": "Z2", "acting": 3}, [
        _lift({"kind": "bitstream", "pre": [0, 0], "period": [1]}), _lift({"kind": "trivial"}),
    ]),
    "zn_semidirect": ({"family": "zn_semidirect", "A": [[2, 1], [1, 1]]}, [
        _lift(spec) for p in DEFINITION_PHASES for spec in ({"kind": "antisym_theta", "theta": p}, {"kind": "half_skew", "mu0": p})
    ]),
}


# the recognised subgroups of each family, by every name they answer to
DEFINITION_SUBGROUPS = {
    "wreath": ("base",),
    "zn_semidirect": ("base",),
    "sanov": ("base", "z2"),
    "bs_nn": ("center",),
    "free_times_z": ("z", "center"),
}


@pytest.mark.parametrize("group_spec, cocycle_specs", DEFINITION_CASES.values(), ids=DEFINITION_CASES)
def test_regularity_reports_agree_with_the_definition_on_a_ball(group_spec, cocycle_specs):
    """g is sigma-regular when sigma(g,h) = sigma(h,g) for every h that
    commutes with g (Kleppner, Duke Math. J. 1962).  Each report of
    `is_sigma_regular` at radius 3, for each g in ball(2), is checked against
    that definition with `compose`, `eval` and `ball` alone, so the
    certificate rules are checked without their family algebra:

    - `regular` and `no_witness_up_to` 3: no h in ball(3) commutes with g and
      has sigma(g,h) != sigma(h,g).  A ball can refute `regular`, never prove it.
    - `not_regular`: the witness commutes with g and its two phases differ.

    `is_regular_wrt_subgroup` on each recognised subgroup of the family
    (`DEFINITION_SUBGROUPS`, by each name it answers to) is checked the same
    way, over the subgroup's ball(3), and its witness must lie in the
    subgroup."""
    G = get_group(group_spec)
    near = G.ball(2)
    subs = {name: resolve_subgroup(G, name) for name in DEFINITION_SUBGROUPS.get(group_spec["family"], ())}
    pools = {"full": G.ball(3), **{name: sub.ball(3) for name, sub in subs.items()}}
    commuting = {
        (name, g): [h for h in pool if G.compose(g, h) == G.compose(h, g)] for name, pool in pools.items() for g in near
    }
    for spec in cocycle_specs:
        sigma = build_cocycle(spec, G)

        def asymmetric(g, h) -> bool:
            return sigma.eval(g, h) != sigma.eval(h, g)

        for (name, g), partners in commuting.items():
            rep = is_sigma_regular(sigma, g, 3) if name == "full" else is_regular_wrt_subgroup(sigma, g, name, 3)
            where = (spec, name, g, rep)
            if rep.status == "not_regular":
                w = rep.witness
                assert G.compose(g, w) == G.compose(w, g) and asymmetric(g, w), where
                assert name == "full" or subs[name].contains(w), where
            else:
                assert rep.status == "regular" or (rep.status, rep.radius) == ("no_witness_up_to", 3), where
                assert not any(asymmetric(g, h) for h in partners), where
