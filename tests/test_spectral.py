"""Twisted convolution, norm growth, truncated norms, domination, semifree sets."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    _phase_exact,
    convolution_power,
    convolve_reference,
    crc_coboundary,
    dense_matrix,
    dense_operator_norm,
    float_convolve_reference,
    path_graph_norm,
    tree_ball_adjacency_norm,
)

from twistlab import spectral
from twistlab.cocycles import (
    CoboundaryCocycle,
    CoboundaryFn,
    SimilarTwist,
    TrivialCocycle,
    build_cocycle,
    sigma_tilde,
)
from twistlab.errors import BudgetExceededError, ConfigurationError
from twistlab.groups import get_group
from twistlab.phase import IrrationalBasis, Phase
from twistlab.spectral import (
    ExactnessLost,
    FiniteFunction,
    NormReport,
    _product,
    build_truncated,
    check_domination,
    conjugation_bridge_check,
    convolve_sigma,
    operator_norm,
    r2_estimate,
    semifree_check,
    stable_rank_evidence,
    truncated_norm,
    truncated_norm_sequence,
)

BASIS = IrrationalBasis({"r": 0.3819660112501051})
R = {"rat": [0, 1], "irr": {"r": [1, 1]}}

Z = get_group({"family": "free", "rank": 1})
F2 = get_group({"family": "free", "rank": 2})
Z2 = get_group({"family": "zn", "n": 2})
AN = get_group({"family": "zn_semidirect", "A": [[2, 1], [1, 1]]})
SAN = get_group({"family": "sanov"})
BS22 = get_group({"family": "bs_nn", "n": 2})

TRIV_Z = TrivialCocycle(Z)
TRIV_F2 = TrivialCocycle(F2)


def test_delta_identity_is_neutral():
    sig = build_cocycle({"kind": "half_skew", "mu0": [1, 4]}, Z2)
    xi = FiniteFunction(Z2, {Z2.vector(1, 0): (2, 1), Z2.vector(0, 1): (0, -3)}, exact=True)
    de = FiniteFunction.delta(Z2.identity())
    out = convolve_sigma(de, xi, sig)
    assert out.coeffs == xi.coeffs


def test_exact_norms_and_absolute_values():
    """An exact Gaussian coefficient given as a pair keeps its parts; l1
    adds the moduli; |c| stays exact for a real or imaginary c and falls
    back to floats for any other."""
    a, b = F2.word("a"), F2.word("b")
    assert FiniteFunction.delta(a, (1, Fraction(-1, 2))).coeffs[a] == (1, Fraction(-1, 2))
    f = FiniteFunction(F2, {a: (3, 4), b: (0, -2)}, exact=True)
    assert f.l1() == 7.0
    g = FiniteFunction(F2, {a: (-3, 0), b: (0, -2)}, exact=True).abs_function()
    assert g.exact and g.coeffs == {a: (3, 0), b: (2, 0)}
    h = f.abs_function()
    assert not h.exact and h.coeffs == {a: 5.0, b: 2.0}


def test_convolution_of_functions_on_different_groups_is_refused():
    f = FiniteFunction.delta(F2.word("a"), exact=False)
    with pytest.raises(ConfigurationError, match="different groups"):
        convolve_sigma(f, FiniteFunction.delta(Z.word("a"), exact=False), TRIV_F2)
    with pytest.raises(ConfigurationError, match="different groups"):
        convolve_sigma(f, f, TRIV_Z)


def test_single_term_convolution_picks_up_the_phase():
    sig = build_cocycle({"kind": "half_skew", "mu0": [1, 4]}, Z2)
    f = FiniteFunction.delta(Z2.vector(1, 0))
    xi = FiniteFunction.delta(Z2.vector(0, 1))
    out = convolve_sigma(f, xi, sig)
    (g, c), = out.coeffs.items()
    assert g == Z2.vector(1, 1)
    # quarter-turn phase stays exact: mu0^(1/2) = eighth turn is not Gaussian,
    # so take mu0 = 1/4: sigma((1,0),(0,1)) has angle 1/8 -> falls back to float
    sig2 = build_cocycle({"kind": "half_skew", "mu0": [1, 2]}, Z2)
    out2 = convolve_sigma(f, xi, sig2)
    (g2, c2), = out2.coeffs.items()
    assert g2 == Z2.vector(1, 1)
    assert c2 == (0, 1)  # angle 1/4 is the Gaussian unit i


FZ = get_group({"family": "free_times_z"})
EXACT_PAIRS = [
    (F2, TRIV_F2),
    (BS22, build_cocycle({"kind": "bs", "lambda": [1, 4]}, BS22)),
    (FZ, build_cocycle({"kind": "f2xz", "mu": [1, 4], "nu": [1, 2]}, FZ)),
    (SAN, build_cocycle({"kind": "sanov", "mu0": [1, 2], "mu1": [1, 4], "mu2": [3, 4]}, SAN)),
]


def _random_function(G, rng, size: int) -> FiniteFunction:
    pool = G.ball(2)
    values = [1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]
    return FiniteFunction(
        G, {g: (rng.choice(values), rng.choice(values + [0])) for g in rng.sample(pool, size)}, exact=True
    )


@pytest.mark.parametrize("G, sig", EXACT_PAIRS, ids=["free2", "bs22", "f2xz", "sanov"])
def test_exact_convolution_equals_the_element_level_reference(G, sig):
    rng = random.Random(11)
    for _ in range(5):
        f, xi = _random_function(G, rng, 6), _random_function(G, rng, 9)
        out = convolve_sigma(f, xi, sig)
        assert out.exact
        assert list(out.coeffs.items()) == list(convolve_reference(f, xi, sig, 10**6).items())


def test_exact_convolution_drops_sums_that_cancel_to_zero():
    f = FiniteFunction(F2, {F2.word("a"): (1, 0), F2.word("A"): (1, 0)}, exact=True)
    xi = FiniteFunction(F2, {F2.word("a"): (1, 0), F2.word("A"): (-1, 0)}, exact=True)
    out = convolve_sigma(f, xi, TRIV_F2)
    assert F2.identity() not in out.coeffs
    assert out.coeffs == convolve_reference(f, xi, TRIV_F2, 10**6) == {F2.word("a a"): (1, 0), F2.word("A A"): (-1, 0)}


def test_coeffs_view_reads_the_payload_dict(monkeypatch):
    rng = random.Random(3)
    f, xi = _random_function(F2, rng, 6), _random_function(F2, rng, 9)
    out = convolve_sigma(f, xi, TRIV_F2)
    ref = convolve_reference(f, xi, TRIV_F2, 10**6)
    assert out.coeffs == ref and ref == out.coeffs and dict(out.coeffs) == ref
    assert list(out.coeffs) == list(ref) and list(out.coeffs.values()) == list(ref.values())
    assert out.coeffs != {**ref, next(iter(ref)): (99, 0)}
    flipped = dict(reversed(ref.items()))
    assert list(FiniteFunction(F2, flipped, exact=True).coeffs) == list(flipped)
    missing = F2.word("a a a a a a")  # the products lie in the radius-4 ball
    assert missing not in out.coeffs and out.coeffs.get(missing) is None
    with pytest.raises(KeyError):
        out.coeffs[missing]
    # an element of another group with the same payload, a bare payload and
    # a string are missing keys too
    a = F2.word("a")
    delta = FiniteFunction.delta(a)
    assert delta.coeffs[a] == (1, 0) and Z.word("a").data == a.data
    for other in (Z.word("a"), a.data, "a"):
        assert other not in delta.coeffs
        with pytest.raises(KeyError):
            delta.coeffs[other]
    monkeypatch.setattr(spectral, "Element", None)  # building an Element now fails
    assert len(out.coeffs) == len(ref)


def test_exact_convolution_falls_back_to_floats_off_the_quarter_turns():
    sig = build_cocycle({"kind": "bs", "lambda": [1, 3]}, BS22)
    rng = random.Random(5)
    f, xi = _random_function(BS22, rng, 5), _random_function(BS22, rng, 8)
    assert convolve_reference(f, xi, sig, 10**6) is None
    out = convolve_sigma(f, xi, sig)
    assert not out.exact
    ref = {h: c for h, c in float_convolve_reference(f, xi, sig).items() if c != 0}
    assert list(out.coeffs) == list(ref)
    for h, c in out.coeffs.items():
        assert c == pytest.approx(ref[h], rel=1e-12, abs=1e-12)


def test_exact_convolution_budget_error_counts_the_support():
    f = FiniteFunction(F2, {g: (1, 0) for g in F2.generators()}, exact=True)
    xi = FiniteFunction(F2, {g: (1, 0) for g in F2.ball(2)}, exact=True)
    with pytest.raises(BudgetExceededError) as got:
        convolve_sigma(f, xi, TRIV_F2, budget=20)
    with pytest.raises(BudgetExceededError) as want:
        convolve_reference(f, xi, TRIV_F2, 20)
    assert got.value.nodes == want.value.nodes == 21


def test_free_semigroup_powers_have_unit_coefficients():
    f = FiniteFunction(F2, {F2.word("a"): (1, 0), F2.word("b"): (1, 0)}, exact=True)
    p = convolution_power(f, 6, TRIV_F2)
    assert len(p.coeffs) == 2**6
    assert all(c == (1, 0) for c in p.coeffs.values())


def test_r2_semifree_exact():
    f = FiniteFunction(F2, {F2.word("a"): (1, 0), F2.word("b"): (1, 0)}, exact=True)
    rep = r2_estimate(f, TRIV_F2, 12)
    assert rep.exact
    assert rep.squared_norms == [2**n for n in range(1, 13)]
    for n, root in enumerate(rep.roots, start=1):
        assert abs(root - math.sqrt(2)) < 1e-12


def test_r2_single_point_orbit():
    f = FiniteFunction.delta(F2.word("a b"))
    rep = r2_estimate(f, TRIV_F2, 8)
    assert all(abs(r - 1.0) < 1e-12 for r in rep.roots)


def test_r2_central_binomials():
    f = FiniteFunction(Z, {Z.word("a"): (1, 0), Z.word("A"): (1, 0)}, exact=True)
    rep = r2_estimate(f, TRIV_Z, 10)
    assert rep.squared_norms == [math.comb(2 * n, n) for n in range(1, 11)]


def test_powers_stop_at_the_first_squared_norm_past_the_float_range():
    """(c a + c A)^n has squared norm c^(2n) C(2n,n): with c = 1e50 it is
    2e301 at n = 3 and past the float range at n = 4, where both sequences
    end, with that value last, however many powers were asked for."""
    f = FiniteFunction(Z, {Z.word("a"): 1e50, Z.word("A"): 1e50})
    rep = r2_estimate(f, TRIV_Z, 1000)
    assert len(rep.squared_norms) == len(rep.roots) == 4
    assert all(math.isfinite(s) for s in rep.squared_norms[:3]) and rep.squared_norms[3] == math.inf
    rows = check_domination(f, FiniteFunction.delta(Z.identity()), TRIV_Z, 1000)
    assert [r.n for r in rows] == [1, 2, 3, 4]
    assert rows[3].twisted_sq == rows[3].plain_sq == math.inf


def test_exact_squared_norms_past_the_float_range_keep_finite_roots():
    """With exact c = 10^50 the squared norms c^(2n) C(2n,n) leave the
    float range at n = 4 but stay exact, and each root, taken from their
    logarithms there, is finite and matches c C(2n,n)^(1/2n)."""
    c = 10**50
    f = FiniteFunction(Z, {Z.word("a"): (c, 0), Z.word("A"): (c, 0)}, exact=True)
    rep = r2_estimate(f, TRIV_Z, 10)
    assert rep.exact and rep.squared_norms == [math.comb(2 * n, n) * 10 ** (100 * n) for n in range(1, 11)]
    assert all(math.isfinite(r) for r in rep.roots) and rep.estimate == rep.roots[-1]
    for n, r in enumerate(rep.roots, 1):
        assert math.isclose(r, 1e50 * math.comb(2 * n, n) ** (1 / (2 * n)), rel_tol=1e-12)
    # with c = 10^400 the first root is past the float range too, and ends the sequence
    rep = r2_estimate(FiniteFunction.delta(Z.word("a"), 10**400), TRIV_Z, 10)
    assert (rep.squared_norms, rep.roots, rep.estimate) == ([10**800], [math.inf], math.inf)


def test_truncated_norm_partial_isometry():
    f = FiniteFunction.delta(Z.word("a"))
    for radius in (1, 3, 7):
        assert abs(truncated_norm(f, TRIV_Z, radius).value - 1.0) < 1e-9


@pytest.mark.parametrize(
    "G, spec",
    [(F2, {"kind": "trivial"}), (BS22, {"kind": "bs", "lambda": [1, 3]}), (BS22, {"kind": "bs", "lambda": R})],
    ids=["free2_trivial", "bs_third", "bs_r"],
)
def test_compressed_norms_depend_only_on_the_cohomology_class(G, spec):
    """For sigma' = sigma conj(db), U = diag(e(b)) commutes with every ball
    projection and U lambda_sigma'(f) U* = lambda_sigma(f e(-b)), so the two
    compressions have one norm at every radius.  b is rational, then uses
    the symbol r, which the first two cocycles do not."""
    sig = build_cocycle(spec, G, BASIS)
    f = FiniteFunction(G, {g: 1.0 for g in G.ball(1)})
    for b in (crc_coboundary(G), crc_coboundary(G, BASIS)):
        twisted = SimilarTwist(sig, b)
        fb = FiniteFunction(G, {g: b(g).inverse().to_complex() for g in G.ball(1)})
        for radius in (3, 5):
            want = truncated_norm(fb, sig, radius, tol=1e-13).value
            assert truncated_norm(f, twisted, radius, tol=1e-13).value == pytest.approx(want, rel=1e-10)


def test_symbolic_coboundary_exports_its_phases():
    """The coboundary of b on Z, with b(n) = n/3 for |n| <= 1 and n^2 r
    otherwise, has rational values before symbolic ones.  Its operator's
    entries are f(g) sigma(g, u).to_complex(); it is a diagonal unitary
    conjugate of a phased path graph, so it has the path graph's norm; and
    the exact convolution falls back to the float one."""

    def b(g):
        n = sum(g.data)
        return Phase(Fraction(n, 3)) if abs(n) <= 1 else Phase(0, {"r": n * n}, BASIS)

    db = CoboundaryCocycle(CoboundaryFn(Z, b, BASIS))
    f = FiniteFunction(Z, {Z.word("a"): 1, Z.word("A"): 1})
    op = build_truncated(f, db, 4)
    ball = op.elements
    want = []
    for row, col in zip(op.rows, op.cols):
        h, u = ball[row], ball[col]
        g = Z.compose(h, Z.invert(u))
        want.append(f.coeffs[g] * db.eval(g, u).to_complex())
    assert np.array_equal(op.vals, np.array(want))
    assert abs(truncated_norm(f, db, 10, tol=1e-10).value - path_graph_norm(21)) < 1e-7
    fx = FiniteFunction(Z, {Z.word("a"): (1, 0), Z.word("A"): (1, 0)}, exact=True)
    out = convolve_sigma(fx, fx, db)
    assert not out.exact
    for h, c in out.coeffs.items():
        terms = [db.eval(g, u).to_complex() for g in f.coeffs for u in f.coeffs if Z.compose(g, u) == h]
        assert c == pytest.approx(sum(terms))


def test_wide_support_branch_matches_the_dense_oracle():
    """The indicator of F2 x Z's radius-2 ball has more points (29) than
    the radius-1 ball it is compressed to (7), so the ball-pair sweep
    fills the columns: every pair lands in the support."""
    FZ = get_group({"family": "free_times_z"})
    sig = build_cocycle({"kind": "f2xz", "mu": [1, 3], "nu": [1, 5]}, FZ)
    f = FiniteFunction(FZ, {g: 1 for g in FZ.ball(2)})
    assert len(f.coeffs) == 29
    op = build_truncated(f, sig, 1)
    ball = op.elements
    assert op.size == 7 and op.nnz == 49
    want = np.zeros((7, 7), dtype=np.complex128)
    for i, h in enumerate(ball):
        for j, u in enumerate(ball):
            g = FZ.compose(h, FZ.invert(u))
            want[i, j] = f.coeffs[g] * sig.eval(g, u).to_complex()
    assert np.array_equal(dense_matrix(op), want)
    assert len(set(op.vals.tolist())) == 5


def test_truncated_norm_path_graph():
    f = FiniteFunction(Z, {Z.word("a"): 1, Z.word("A"): 1})
    for radius in (3, 10, 25):
        want = path_graph_norm(2 * radius + 1)
        got = truncated_norm(f, TRIV_Z, radius, tol=1e-10).value
        assert abs(got - want) < 1e-7


def test_truncated_norm_monotone_and_bounded():
    f = FiniteFunction(F2, {F2.word("a"): 1, F2.word("A"): 1, F2.word("b"): 1, F2.word("B"): 1})
    values = [truncated_norm(f, TRIV_F2, r, tol=1e-9).value for r in range(1, 7)]
    for a, b in zip(values, values[1:]):
        assert a <= b + 1e-9
    assert values[-1] <= f.l1() + 1e-9
    for r in range(1, 5):
        dense = dense_operator_norm(build_truncated(f, TRIV_F2, r))
        assert abs(dense - tree_ball_adjacency_norm(2, r)) < 1e-9


def test_operator_norm_matches_dense_oracle():
    rng = random.Random(0)
    f = FiniteFunction(
        F2,
        {g: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for g in list(F2.ball(2))[:6]},
    )
    op = build_truncated(f, TRIV_F2, 3)
    got = operator_norm(op, tol=1e-11, seed=3).value
    want = dense_operator_norm(op)
    assert abs(got - want) < 1e-6


def test_truncated_norm_with_twist_matches_dense_oracle():
    sig = build_cocycle({"kind": "lift", "base": {"kind": "antisym_theta", "theta": R}}, AN, BASIS)
    rng = random.Random(1)
    f = FiniteFunction(
        AN, {g: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for g in list(AN.ball(1))[:5]}
    )
    op = build_truncated(f, sig, 2)
    got = operator_norm(op, tol=1e-11, seed=1).value
    assert abs(got - dense_operator_norm(op)) < 1e-6


def test_operator_norm_converges_from_seeded_start():
    """One run from each seeded start vector converges, well inside the
    step budget, to the norm of the dense oracle."""
    f = FiniteFunction(F2, {F2.word("a"): 1, F2.word("A"): 1, F2.word("b"): 1, F2.word("B"): 1})
    op = build_truncated(f, TRIV_F2, 4)
    want = dense_operator_norm(op)
    for seed in (0, 5):
        rep = operator_norm(op, seed=seed)
        assert rep.converged and 0 < rep.iterations < 10**4
        assert abs(rep.value - want) < 1e-5
        assert operator_norm(op, seed=seed) == rep


def test_operator_norm_scales_by_powers_of_two_exactly():
    """The solver runs on 2^-shift M, so M and 2^k M give the same steps."""
    rng = random.Random(2)
    f = FiniteFunction(F2, {g: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for g in list(F2.ball(2))[:6]})
    op = build_truncated(f, TRIV_F2, 3)
    base = operator_norm(op, seed=4)
    for k in (-1000, -40, 7, 1020):
        scaled = operator_norm(op._replace(vals=op.vals * 2.0**k), seed=4)
        assert (scaled.converged, scaled.iterations) == (base.converged, base.iterations)
        assert scaled.value == math.ldexp(base.value, k)


def test_operator_norm_past_the_float_range_is_inf():
    """The solver runs on 2^-shift M, so only the final rescaling can pass
    the float range; the norm is then reported as inf."""
    f = FiniteFunction(F2, {F2.word(w): 1e308 for w in ("a", "A", "b", "B")})
    rep = operator_norm(build_truncated(f, TRIV_F2, 2))
    assert rep.value == math.inf and rep.converged


@pytest.mark.parametrize(
    "G, sigma, f_support",
    [
        (F2, TRIV_F2, ["a", "A", "b", "B"]),
        (BS22, build_cocycle({"kind": "bs", "lambda": R}, BS22, BASIS), ["a", "A", "b", "B", "a b"]),
    ],
    ids=["free2", "bs22"],
)
def test_truncated_norm_sequence_matches_per_radius(G, sigma, f_support):
    rng = random.Random(2)
    f = FiniteFunction(
        G, {G.element_from_json(w): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for w in f_support}
    )
    seq = truncated_norm_sequence(f, sigma, 5, tol=1e-12, seed=4)
    assert len(seq) == 5
    for r, rep in enumerate(seq, start=1):
        want = truncated_norm(f, sigma, r, tol=1e-12, seed=4)
        assert rep.size == want.size == len(G.ball(r))
        assert abs(rep.value - want.value) < 1e-9
    if G is BS22:
        # this family's ball order is not shortlex: a smaller ball is not a prefix
        assert G.ball(2) != G.ball(5)[: len(G.ball(2))]


@pytest.mark.parametrize(
    "G, cocycle, f_support",
    [
        (BS22, {"kind": "bs", "lambda": R}, ["a", "A", "b", "B", "a b"]),
        (
            get_group({"family": "free_times_z"}),
            {"kind": "f2xz", "mu": R, "nu": [1, 3]},
            [{"w": "a", "k": 0}, {"w": "B", "k": 1}, {"w": "", "k": -1}],
        ),
    ],
    ids=["bs22", "f2xz"],
)
def test_restrict_is_the_principal_submatrix_on_each_ball(G, cocycle, f_support):
    sigma = build_cocycle(cocycle, G, BASIS)
    rng = random.Random(5)
    f = FiniteFunction(
        G, {G.element_from_json(w): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for w in f_support}
    )
    top = 4
    op = build_truncated(f, sigma, top)
    full = dense_matrix(op)
    for r in range(0, top + 1):
        ball = G.ball(r)
        idx = np.array([op.elements.index(g) for g in ball], dtype=np.intp)
        sub = op.restrict(idx)
        assert sub.elements == ball and sub.size == len(ball)
        np.testing.assert_array_equal(dense_matrix(sub), full[np.ix_(idx, idx)])
        np.testing.assert_array_equal(dense_matrix(sub), dense_matrix(build_truncated(f, sigma, r)))


def test_matrix_export_has_the_same_entries():
    f = FiniteFunction(BS22, {BS22.word("a"): 1 + 2j, BS22.word("a b"): -1, BS22.word("B"): 0.5j})
    op = build_truncated(f, build_cocycle({"kind": "bs", "lambda": R}, BS22, BASIS), 3)
    m = op.matrix
    assert m.format == "csr" and m.shape == (op.size, op.size) and m.nnz == op.nnz
    np.testing.assert_array_equal(m.toarray(), dense_matrix(op))


def test_matvec_matches_the_dense_product():
    """The bincount product on rows of uneven length, empty rows included,
    with the entries in no particular order; M* is the same product with
    rows and columns swapped and the values conjugated."""
    rng = np.random.default_rng(7)
    n = 40
    dense = np.zeros((n, n), dtype=np.complex128)
    for i in rng.choice(n, size=30, replace=False):  # ten empty rows
        k = int(rng.integers(1, n))
        dense[i, rng.choice(n, size=k, replace=False)] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    rows, cols = np.nonzero(dense)
    shuffle = rng.permutation(len(rows))
    rows, cols = rows[shuffle], cols[shuffle]
    vals = dense[rows, cols]
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    np.testing.assert_allclose(_product(rows, cols, vals, n)(x), dense @ x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(_product(cols, rows, vals.conj(), n)(x), dense.conj().T @ x, rtol=0, atol=1e-12)


def test_operator_norm_with_empty_rows_and_columns():
    """delta_{aa} on the radius-1 ball of F2 has one entry (a <- A): every
    other row and column is empty."""
    op = build_truncated(FiniteFunction.delta(F2.word("a a"), exact=False), TRIV_F2, 1)
    assert op.nnz == 1 and op.size == 5
    rep = operator_norm(op, tol=1e-12)
    assert rep.converged
    assert abs(rep.value - dense_operator_norm(op)) < 1e-12


def test_operator_norm_of_an_operator_without_entries():
    op = build_truncated(FiniteFunction.delta(F2.word("a a a"), exact=False), TRIV_F2, 1)
    assert op.nnz == 0 and op.size == 5
    assert operator_norm(op) == NormReport(0.0, True, 0, 5)


RANDOM_TWISTS = [
    (F2, TRIV_F2, 3),
    (BS22, build_cocycle({"kind": "bs", "lambda": R}, BS22, BASIS), 3),
    (SAN, build_cocycle({"kind": "sanov", "mu0": R, "mu1": [1, 3], "mu2": [1, 5]}, SAN, BASIS), 2),
    (AN, build_cocycle({"kind": "lift", "base": {"kind": "antisym_theta", "theta": R}}, AN, BASIS), 2),
]


@pytest.mark.parametrize("G, sigma, radius", RANDOM_TWISTS, ids=["free2", "bs22", "sanov", "an_lift"])
def test_operator_norm_never_exceeds_the_dense_norm(G, sigma, radius):
    """The value is ||M x|| for a unit vector x: on random twisted operators
    it is at most the dense SVD norm, up to rounding, at every tolerance and
    step budget."""
    rng = random.Random(11)
    for trial in range(4):
        support = rng.sample(list(G.ball(2)), 6)
        f = FiniteFunction(G, {g: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for g in support})
        op = build_truncated(f, sigma, radius)
        want = dense_operator_norm(op)
        for tol, max_iter in ((1e-13, 10**4), (1e-8, 10**4), (1e-2, 10**4), (1e-13, 2)):
            rep = operator_norm(op, tol=tol, seed=trial, max_iter=max_iter)
            assert rep.value <= want * (1 + 1e-12)
            if max_iter > 2 and tol < 1e-8:
                assert rep.converged and rep.value >= want * (1 - 1e-9)


def test_a_rank_two_operator_breaks_down_at_the_exact_norm():
    """The radius-1 star of F2 (the identity joined to a, A, b and B) has
    rank 2 and norm 2: the Krylov space closes after two steps, and that
    breakdown stops the run as converged with the exact value."""
    f = FiniteFunction(F2, {F2.word(w): 1 for w in ("a", "A", "b", "B")})
    op = build_truncated(f, TRIV_F2, 1)
    assert np.linalg.matrix_rank(dense_matrix(op)) == 2
    rep = operator_norm(op)
    assert (rep.value, rep.converged, rep.iterations) == (2.0, True, 2)


def test_a_run_out_of_steps_is_not_converged_and_stays_below_the_norm():
    f = FiniteFunction(F2, {F2.word(w): 1 for w in ("a", "A", "b", "B")})
    op = build_truncated(f, TRIV_F2, 5)
    rep = operator_norm(op, max_iter=3)
    assert (rep.converged, rep.iterations) == (False, 3)
    assert 0 < rep.value < dense_operator_norm(op)


def test_the_warm_started_sequence_takes_fewer_steps_than_cold_solves():
    """Radius r starts from radius r - 1's Ritz vector, placed by element
    into the larger ball of BS(2,2), which is not a prefix of it."""
    sigma = build_cocycle({"kind": "bs", "lambda": R}, BS22, BASIS)
    f = FiniteFunction(BS22, {BS22.word(w): 1 for w in ("a", "A", "b", "B")})
    warm = truncated_norm_sequence(f, sigma, 5, seed=5)
    cold = [truncated_norm(f, sigma, r, seed=5) for r in range(1, 6)]
    assert sum(rep.iterations for rep in warm) < sum(rep.iterations for rep in cold)
    for w, c in zip(warm, cold):
        assert w.converged and c.converged
        assert abs(w.value - c.value) <= 1e-7 * c.value


def test_the_sequence_does_not_depend_on_a_larger_cached_ball():
    """With a larger ball of BS(2,2) cached, the operator's ball is served
    from it; the smaller balls' positions are still those in the operator's
    own ball (this family's balls are not prefixes of each other)."""
    sigma = build_cocycle({"kind": "bs", "lambda": R}, BS22, BASIS)
    f = FiniteFunction(BS22, {BS22.word(w): 1 for w in ("a", "A", "b", "B")})
    BS22._ball_cache.clear()
    alone = truncated_norm_sequence(f, sigma, 4, seed=5)
    BS22.ball(6)
    assert truncated_norm_sequence(f, sigma, 4, seed=5) == alone
    BS22._ball_cache.clear()


def test_domination_trivial_sigma_equality():
    f = FiniteFunction(Z2, {Z2.vector(1, 0): (2, 0), Z2.vector(0, 1): (1, 0)}, exact=True)
    xi = FiniteFunction.delta(Z2.identity())
    rows = check_domination(f, xi, TrivialCocycle(Z2), 4)
    assert all(r.exact and r.ok and r.twisted_sq == r.plain_sq for r in rows)


def test_domination_strict_with_cross_terms():
    sig = build_cocycle({"kind": "half_skew", "mu0": [1, 2]}, Z2)
    f = FiniteFunction(Z2, {Z2.vector(1, 0): (1, 0), Z2.vector(0, 1): (0, 1)}, exact=True)
    xi = FiniteFunction.delta(Z2.identity())
    rows = check_domination(f, xi, sig, 2)
    assert all(r.ok for r in rows)
    assert rows[1].twisted_sq < rows[1].plain_sq  # cancellation beats coefficient growth


def test_domination_random_passes():
    sig_an = build_cocycle({"kind": "lift", "base": {"kind": "antisym_theta", "theta": R}}, AN, BASIS)
    sig_sv = build_cocycle({"kind": "sanov", "mu0": R, "mu1": [1, 3], "mu2": [1, 5]}, SAN, BASIS)
    rng = random.Random(12)
    for G, sig in ((AN, sig_an), (SAN, sig_sv)):
        pool = list(G.ball(1))
        for _ in range(25):
            f = FiniteFunction(
                G, {g: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for g in rng.sample(pool, 3)}
            )
            xi = FiniteFunction(
                G, {g: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for g in rng.sample(pool, 2)}
            )
            rows = check_domination(f, xi, sig, rng.randint(1, 3))
            assert all(r.ok for r in rows)


def test_convolution_associativity_sampled():
    sig = build_cocycle({"kind": "sanov", "mu0": R, "mu1": [1, 3], "mu2": [1, 5]}, SAN, BASIS)
    rng = random.Random(4)
    pool = list(SAN.ball(1))
    for _ in range(10):
        fs = [
            FiniteFunction(SAN, {g: (rng.randint(-2, 2), rng.randint(-2, 2)) for g in rng.sample(pool, 2)}, exact=True).to_float()
            for _ in range(3)
        ]
        left = convolve_sigma(convolve_sigma(fs[0], fs[1], sig), fs[2], sig)
        right = convolve_sigma(fs[0], convolve_sigma(fs[1], fs[2], sig), sig)
        assert set(left.coeffs) == set(right.coeffs)
        for g in left.coeffs:
            assert abs(left.coeffs[g] - right.coeffs[g]) < 1e-9


def test_squared_powers_match_convolution_power():
    FZ = get_group({"family": "free_times_z"})
    sig = build_cocycle({"kind": "f2xz", "mu": R, "nu": [1, 3]}, FZ, BASIS)
    rng = random.Random(6)
    gens = [{"w": "a", "k": 0}, {"w": "B", "k": 0}, {"w": "", "k": 1}, {"w": "b", "k": -1}]
    f = FiniteFunction(
        FZ, {FZ.element_from_json(g): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for g in gens}
    )
    power = f
    for n in (1, 2, 4):
        power = convolve_sigma(power, power, sig)
        want = convolution_power(f, 2 * n, sig)
        assert set(power.coeffs) == set(want.coeffs)
        for g, c in want.coeffs.items():
            assert abs(power.coeffs[g] - c) < 1e-12


def test_conjugation_bridge_all_families():
    rng = random.Random(5)
    cases = []
    SZ = get_group({"family": "sum_z"})
    cases.append((SZ, build_cocycle({"kind": "theta_rule", "rule": "prime_reciprocal"}, SZ), 3))
    SZ2 = get_group({"family": "sum_z2"})
    cases.append((SZ2, build_cocycle({"kind": "bitstream", "pre": [1], "period": [1, 0]}, SZ2), 3))
    W = get_group({"family": "wreath", "base": "Z"})
    cases.append((W, build_cocycle({"kind": "lift", "base": {"kind": "theta_rule", "rule": "prime_reciprocal"}}, W), 3))
    L = get_group({"family": "wreath", "base": "Z2"})
    cases.append((L, build_cocycle({"kind": "lift", "base": {"kind": "bitstream", "pre": [], "period": [1, 0]}}, L), 3))
    cases.append((AN, build_cocycle({"kind": "lift", "base": {"kind": "antisym_theta", "theta": R}}, AN, BASIS), 2))
    cases.append((SAN, build_cocycle({"kind": "sanov", "mu0": R, "mu1": [1, 3], "mu2": [1, 5]}, SAN, BASIS), 2))
    BS = get_group({"family": "bs_nn", "n": 2})
    cases.append((BS, build_cocycle({"kind": "bs", "lambda": R}, BS, BASIS), 3))
    FZ = get_group({"family": "free_times_z"})
    cases.append((FZ, build_cocycle({"kind": "f2xz", "mu": R, "nu": [1, 3]}, FZ, BASIS), 3))
    cases.append((Z2, build_cocycle({"kind": "half_skew", "mu0": R}, Z2, BASIS), 3))
    for G, sig, radius in cases:
        pool = G.ball(radius)
        for _ in range(100):
            g, h = rng.choice(pool), rng.choice(pool)
            assert conjugation_bridge_check(sig, g, h), (G.family, g, h)


def test_semifree_examples():
    assert semifree_check([F2.word("a"), F2.word("b")], 7)[0]
    ok, collision = semifree_check([F2.word("a"), F2.word("A")], 2)
    assert not ok and collision is not None
    one, two = Z.word("a"), Z.word("a a")
    ok, collision = semifree_check([one, two], 3)
    assert not ok
    w1, w2 = collision
    # the colliding factor sequences really do multiply to the same element
    def prod(word):
        out = Z.identity()
        for i in word:
            out = Z.compose(out, [one, two][i])
        return out

    assert prod(w1) == prod(w2) and w1 != w2


def test_semifree_check_of_no_factors_and_its_budget():
    assert semifree_check([], 3) == (True, None)
    # {a, b} is semifree, so depth 4 forms 2 + 4 + 8 + 16 products; the 21st passes a budget of 20
    with pytest.raises(BudgetExceededError) as exc:
        semifree_check([F2.word("a"), F2.word("b")], 4, budget=20)
    assert exc.value.nodes == 21


def test_convolution_budget_guard():
    f = FiniteFunction(F2, {F2.word("a"): (1, 0), F2.word("b"): (1, 0)}, exact=True)
    for g in (f, f.to_float()):  # the exact path and the float one
        with pytest.raises(BudgetExceededError):
            convolution_power(g, 12, TRIV_F2, budget=1000)


def test_stable_rank_evidence_f2():
    F = [F2.identity(), F2.word("a")]
    rep = stable_rank_evidence(F2, TRIV_F2, F, search_radius=2, radius=6, seed=1, samples=2)
    assert rep["semifree_translate_found"]
    for run in rep["runs"]:
        assert run["margin"] is not None and run["margin"] >= -1e-9


def test_stable_rank_evidence_stops_when_the_power_outgrows_the_budget():
    """{a, b a, b b a, b b b a} is a prefix code, so it is semifree and f^4
    has 4^4 = 256 points: more than the budget of 200, which the radius-4
    ball (161 elements) and the depth-3 check (84 products) stay within."""
    F = [F2.word(w) for w in ("a", "b a", "b b a", "b b b a")]
    rep = stable_rank_evidence(F2, TRIV_F2, F, search_radius=0, radius=4, tol=1e-12, depth=3, node_budget=200, samples=1)
    assert rep["translate"] == ["a", "b a", "b b a", "b b b a"]
    (run,) = rep["runs"]
    assert run["stopped"] == "budget" and [row["n"] for row in run["proxies"]] == [1, 2]


def test_stable_rank_evidence_singleton():
    F = [Z.identity()]
    rep = stable_rank_evidence(Z, TRIV_Z, F, search_radius=1, radius=4, seed=0, samples=1)
    assert rep["semifree_translate_found"]
    run = rep["runs"][0]
    # a single point mass is a partial isometry: the proxy equals the 2-norm
    assert abs(run["final_proxy"] - run["l2"]) < 1e-6


def test_stable_rank_no_translate_in_abelian_lattice():
    Zn2 = get_group({"family": "zn", "n": 2})
    F = [Zn2.vector(0, 0), Zn2.vector(1, 0), Zn2.vector(0, 1)]
    rep = stable_rank_evidence(Zn2, TrivialCocycle(Zn2), F, search_radius=2, seed=0)
    assert not rep["semifree_translate_found"]
    assert "no semifree translate" in rep["detail"]


def test_unitarity_bridge_equals_sigma_tilde_phase():
    """The conjugated point mass carries exactly the anti-symmetrized phase."""
    sig = build_cocycle({"kind": "bs", "lambda": [1, 3]}, get_group({"family": "bs_nn", "n": 2}))
    G = sig.group
    rng = random.Random(8)
    pool = G.ball(2)
    for _ in range(50):
        g, h = rng.choice(pool), rng.choice(pool)
        assert conjugation_bridge_check(sig, g, h)
        # and numerically through the float convolution path
        lam_g = FiniteFunction.delta(g, exact=False)
        lam_h = FiniteFunction.delta(h, exact=False)
        ginv = G.invert(g)
        lam_ginv = FiniteFunction.delta(ginv, sig.eval(g, ginv).inverse().to_complex(), exact=False)
        lhs = convolve_sigma(lam_g, convolve_sigma(lam_h, lam_ginv, sig), sig)
        target = G.conjugate(g, h)
        assert set(lhs.coeffs) == {target}
        expect = sigma_tilde(sig, g, h).to_complex()
        assert abs(lhs.coeffs[target] - expect) < 1e-9


@pytest.mark.parametrize(
    "angle, unit",
    [
        (0, (1, 0)),
        (Fraction(1, 4), (0, 1)),
        (Fraction(1, 2), (-1, 0)),
        (Fraction(3, 4), (0, -1)),
        # the same quarter turns given outside [0, 1) or unreduced
        (3, (1, 0)),
        (Fraction(5, 4), (0, 1)),
        (Fraction(-1, 2), (-1, 0)),
        (Fraction(-1, 4), (0, -1)),
        (Fraction(6, 8), (0, -1)),
    ],
)
def test_phase_exact_quarter_turns(angle, unit):
    assert _phase_exact(Phase(angle)) == unit


@pytest.mark.parametrize(
    "phase",
    [Phase(Fraction(1, 3)), Phase(Fraction(3, 8)), Phase(0, {"r": 1}, BASIS), Phase(Fraction(1, 4), {"r": 1}, BASIS)],
)
def test_phase_exact_rejects_other_phases(phase):
    with pytest.raises(ExactnessLost):
        _phase_exact(phase)


def test_stable_rank_stops_when_power_leaves_ball():
    # translate {b, b a}: f^n lives on words of length >= n, so f^8 misses the radius-3 ball
    F = [F2.identity(), F2.word("a")]
    rep = stable_rank_evidence(F2, TRIV_F2, F, search_radius=3, radius=3, seed=3, samples=2)
    for run in rep["runs"]:
        assert run["stopped"] == "outside_ball"
        assert [row["n"] for row in run["proxies"]] == [1, 2, 4]
        assert all(row["proxy"] > 0 for row in run["proxies"])
        assert run["final_proxy"] == run["proxies"][-1]["proxy"]
        assert run["margin"] == run["l2"] - run["final_proxy"]


# (theta of `antisym_theta`, the norm of a + A + b + B) at rotation 2 theta = 1/2 and 1/3
HARPER_BAND_EDGES = [([1, 4], 2 * math.sqrt(2)), ([1, 6], 1 + math.sqrt(3))]


@pytest.mark.parametrize("theta, reference", HARPER_BAND_EDGES)
def test_rotation_algebra_compressions_stay_below_the_harper_band_edge(theta, reference):
    """Exact references for twisted compressions on Z^2.

    With `antisym_theta` theta, U = lambda_sigma(e1) and V = lambda_sigma(e2)
    satisfy UV = e^(2 pi i alpha) VU with alpha = 2 theta.  For alpha = p/q
    the rotation algebra is the algebra of sections of a q x q matrix
    bundle over the 2-torus (Rieffel, Pacific J. Math. 1981; Boca, Rotation
    C*-algebras and almost Mathieu operators, 2001), so ||U + U* + V + V*||
    is the largest norm of Harper's q x q symbol, taken at the band-edge
    phases (Chambers, Phys. Rev. 1965): 2 sqrt 2 at alpha = 1/2 and 1 + sqrt 3
    at alpha = 1/3.

    A ball compression is a corner of lambda_sigma(f), so no radius's value
    exceeds the reference; the margin covers only the rounding of a product
    of unit-modulus entries in doubles.  A corner of a larger ball contains
    the smaller one, so the exact compression norms do not decrease; the
    solver's values do not decrease up to its relative `tol`.  No lower band
    is asserted: none is proven here.
    """
    tol = 1e-8
    sigma = build_cocycle({"kind": "antisym_theta", "theta": theta}, Z2)
    f = FiniteFunction(Z2, {Z2.element_from_json(v): 1.0 for v in ([1, 0], [-1, 0], [0, 1], [0, -1])})
    reports = truncated_norm_sequence(f, sigma, 12, tol=tol)
    values = [rep.value for rep in reports]
    assert all(rep.converged for rep in reports)
    assert max(values) <= reference * (1 + 1e-12), (values, reference)
    assert all(b >= a * (1 - tol) for a, b in zip(values, values[1:])), values
