"""Normal forms, multiplication, conjugation, balls and lengths per family."""

import gc
import hashlib
import random
import weakref

import pytest
from hypothesis import given, strategies as st

from oracles import (
    bfs_ball,
    bs_concat_product,
    bs_letter_inverse,
    class_by_compose,
    code_word,
    commuting_by_compose,
    letter_exponents,
    letters,
    reduce_letters,
    sanov_word_matrix,
    tuple_sort_key,
)
from twistlab import _kernels, groups
from twistlab.errors import BudgetExceededError, FamilyMismatchError, SpecError
from twistlab.families.bs_nn import BaumslagSolitarNN, bs_exponent_sum
from twistlab.families.sanov import sanov_act
from twistlab.families.zn_semidirect import _mat_mul, _mat_vec
from twistlab.groups import Group, commuting_ball, conjugacy_class_partial, get_group, resolve_subgroup

F2 = get_group({"family": "free", "rank": 2})
F3 = get_group({"family": "free", "rank": 3})
Z = get_group({"family": "free", "rank": 1})
SZ = get_group({"family": "sum_z"})
SZ2 = get_group({"family": "sum_z2"})
W = get_group({"family": "wreath", "base": "Z"})
L = get_group({"family": "wreath", "base": "Z2"})
AN = get_group({"family": "zn_semidirect", "A": [[2, 1], [1, 1]]})
SAN = get_group({"family": "sanov"})
BS = get_group({"family": "bs_nn", "n": 2})
FZ = get_group({"family": "free_times_z"})
ALL = [F2, Z, SZ, SZ2, W, L, AN, SAN, BS, FZ]


def test_sum_z_compose():
    e1 = SZ.basis_element(1)
    assert SZ.compose(e1, e1) == SZ.element(((1, 2),))


def test_semidirect_matrix_compose():
    t = AN.pair((0, 0), 1)
    x = AN.pair((1, 0), 0)
    assert AN.compose(t, x) == AN.pair((2, 1), 1)


def test_bs_relation_forces_reduction():
    assert BS.word("a b b A") == BS.b_power(2)
    # sliding the central power: a b^2 a equals b^2 a^2
    assert BS.word("a b b a") == BS.compose(BS.b_power(2), BS.word("a a"))


def test_invert_examples():
    assert SZ.invert(SZ.identity()) == SZ.identity()
    g = SZ.element(((0, 1), (3, 2)))
    assert SZ.invert(g) == SZ.element(((0, -1), (3, -2)))
    x = W.pair(W.base_group().element_from_json({"2": 5, "-1": -3}), 4)
    assert W.compose(x, W.invert(x)) == W.identity()
    assert W.compose(W.invert(x), x) == W.identity()


def test_conjugate_examples():
    g = BS.word("a b")
    assert BS.conjugate(g, BS.identity()) == BS.identity()
    h = BS.word("b a")
    assert BS.conjugate(BS.identity(), h) == h
    # shift moves the lamp position by one
    t = W.element(((), 1))
    e0 = W.element((((0, 1),), 0))
    assert W.conjugate(t, e0) == W.element((((1, 1),), 0))
    # matrix action on the translation lattice
    v1 = SAN.pair((0, 0), "a")
    x = SAN.pair((0, 1), "")
    assert SAN.conjugate(v1, x) == SAN.pair((2, 1), "")


def test_ball_sizes_free_group():
    assert len(F2.ball(0)) == 1
    assert len(F2.ball(1)) == 5
    assert len(F2.ball(2)) == 17
    for r in range(5):
        assert len(F2.ball(r)) == 2 * 3**r - 1


def test_ball_rank_one():
    b = Z.ball(3)
    assert len(b) == 7
    assert {g.data for g in b} == {code_word([1] * k if k >= 0 else [-1] * -k) for k in range(-3, 4)}


def test_ball_budget_error():
    F2._ball_cache.clear()
    with pytest.raises(BudgetExceededError):
        F2.ball(8, node_budget=100)
    F2._ball_cache.clear()


def test_ball_budget_error_reports_the_shell_where_it_ran_out():
    # radius 9 window: 1 + 38 nodes in shells 0 and 1, then shell 2 overflows
    with pytest.raises(BudgetExceededError, match="exceeded 100 nodes at radius 2") as exc:
        SZ.ball(9, node_budget=100)
    assert (exc.value.nodes, exc.value.radius) == (101, 2)


@pytest.mark.parametrize(
    "G",
    ALL + [get_group({"family": "sum_z2", "modulus": 5}), get_group({"family": "wreath", "base": "Z2", "acting": 3})],
    ids=lambda G: G.key,
)
def test_ball_is_the_independent_bfs_ball_in_sort_key_order(G):
    for r in range(5):
        b = G.ball(r)
        assert set(b) == bfs_ball(G, r)
        keys = [G.sort_key(g.data) for g in b]
        assert all(a < c for a, c in zip(keys, keys[1:]))


@pytest.mark.parametrize(
    "spec", [{"family": "sum_z"}, {"family": "sum_z2"}, {"family": "zn", "n": 2}], ids=lambda s: s["family"]
)
def test_central_candidates_stream_the_ball_shell_by_shell(spec):
    G = get_group(spec)
    for r in range(4):
        assert list(G.central_candidates(r)) == [g for g in G.ball(r) if not g.is_identity()]


BS3 = get_group({"family": "bs_nn", "n": 3})


@pytest.mark.parametrize("G", [BS, BS3, FZ], ids=lambda G: G.key)
def test_central_candidates_are_the_center_of_the_ball(G):
    center = G.center()
    for r in range(6):
        assert list(G.central_candidates(r)) == [g for g in G.ball(r) if not g.is_identity() and center.contains(g)]


def test_no_group_family_defines_its_own_ball():
    families, todo = [], [Group]
    while todo:
        cls = todo.pop()
        families.extend(cls.__subclasses__())
        todo.extend(cls.__subclasses__())
    assert families
    assert [cls.__name__ for cls in families if "ball" in vars(cls)] == []


def test_ball_monotone_everywhere():
    for G in ALL:
        radii = [0, 1, 2]
        balls = [set(G.ball(r)) for r in radii]
        for small, big in zip(balls, balls[1:]):
            assert small <= big


def test_conjugacy_class_partial_examples():
    g = SZ.element(((2, 3),))
    assert conjugacy_class_partial(g, 4) == (g,)
    cls = conjugacy_class_partial(F2.word("a"), 1)
    assert set(cls) == {F2.word("a"), F2.word("b a B"), F2.word("B a b")}
    assert conjugacy_class_partial(BS.b_power(2), 3) == (BS.b_power(2),)


def test_commuting_ball_examples():
    assert commuting_ball(SZ2.basis_element(0), 2) == SZ2.ball(2)
    cb = commuting_ball(F2.word("a"), 2)
    assert set(cb) == {F2.identity(), F2.word("a"), F2.word("A"), F2.word("a a"), F2.word("A A")}
    # central element commutes with the whole ball
    assert set(commuting_ball(BS.b_power(2), 1)) == set(BS.ball(1))


def test_family_mismatch():
    with pytest.raises(FamilyMismatchError):
        F2.compose(F2.word("a"), Z.word("a"))


def test_normal_form_idempotence_and_group_laws():
    rng = random.Random(7)
    for G in ALL:
        pool = list(G.ball(2))
        for _ in range(30):
            g, h, k = (rng.choice(pool) for _ in range(3))
            assert G.compose(G.compose(g, h), k) == G.compose(g, G.compose(h, k))
            assert G.compose(g, G.invert(g)) == G.identity()
            assert G.conjugate(G.compose(g, h), k) == G.conjugate(g, G.conjugate(h, k))
            # re-normalization is the identity map
            assert G.element(g.data) == g


def test_britton_invariant():
    rng = random.Random(1)
    for _ in range(200):
        letters = [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 12))]
        flat = []
        for x in letters:
            flat.append(abs(x))
            flat.append(1 if x > 0 else -1)
        c, w = _kernels.bs_normalize(tuple(flat), 2)
        # no interior b-exponent is a multiple of 2, hence no pinch subword
        for i in range(0, len(w), 2):
            if w[i] == 2:
                assert w[i + 1] % 2 != 0
        # alternating syllables with nonzero exponents
        for i in range(0, len(w) - 2, 2):
            assert w[i] != w[i + 2]
        for i in range(0, len(w), 2):
            assert w[i + 1] != 0


def _bs_syllables(letters) -> tuple:
    return tuple(v for x in letters for v in (abs(x), 1 if x > 0 else -1))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_junction_bs_mul_equals_the_whole_word_normal_form(n):
    """Random normal forms, the second often starting with the inverse of a
    tail of the first, so that cancellation runs several syllables deep."""
    rng = random.Random(n)
    letters = (1, -1, 2, -2)
    for _ in range(600):
        u = [rng.choice(letters) for _ in range(rng.randint(0, 3 * n + 6))]
        tail = u[rng.randint(0, len(u)) :] if rng.random() < 0.7 else []
        v = [-x for x in reversed(tail)] + [rng.choice(letters) for _ in range(rng.randint(0, 2 * n))]
        ca, wa = _kernels.bs_normalize(_bs_syllables(u), n)
        cb, wb = _kernels.bs_normalize(_bs_syllables(v), n)
        ca, cb = ca + rng.randint(-2, 2), cb + rng.randint(-2, 2)
        assert _kernels.bs_mul(ca, wa, cb, wb, n) == bs_concat_product(ca, wa, cb, wb, n)


@pytest.mark.parametrize("n", [2, 3])
def test_bs_closed_form_inverse_on_the_radius_7_ball(n):
    G = get_group({"family": "bs_nn", "n": n})
    e = G.identity().data
    for g in G.ball(7):
        inv = G._inv(g.data)
        assert G._mul(inv, g.data) == e == G._mul(g.data, inv)
        assert inv == bs_letter_inverse(G, g.data)


@pytest.mark.parametrize("n", [2, 3])
def test_bs_exponent_slices_equal_letter_counts_on_the_radius_7_ball(n):
    G = get_group({"family": "bs_nn", "n": n})
    for g in G.ball(7):
        c, w = g.data
        a, b = letter_exponents(G, g.data)
        assert bs_exponent_sum(w, 1) == a and n * c + bs_exponent_sum(w, 2) == b
        assert G.exponents(g) == (a, b)


@pytest.mark.parametrize(
    "spec, radius",
    [
        ({"family": "free", "rank": 2}, 6),
        ({"family": "free", "rank": 3}, 6),
        ({"family": "sanov"}, 4),
        ({"family": "free_times_z"}, 6),
        ({"family": "bs_nn", "n": 2}, 6),
        ({"family": "bs_nn", "n": 3}, 6),
    ],
    ids=["free2", "free3", "sanov", "free_times_z", "bs_nn2", "bs_nn3"],
)
def test_byte_word_keys_order_balls_as_the_tuple_keys(spec, radius):
    G = get_group(spec)
    G._ball_cache.clear()
    b = G.ball(radius)
    assert list(b) == sorted(b, key=lambda g: tuple_sort_key(G, g.data))
    assert len({G.sort_key(g.data) for g in b}) == len(b)


@pytest.mark.parametrize("radius", range(5))
@pytest.mark.parametrize("G", ALL + [get_group({"family": "bs_nn", "n": 3})], ids=lambda G: G.key)
def test_class_and_commuting_ball_equal_the_compose_loops(G, radius):
    ball = bfs_ball(G, radius)
    for g in G.ball(2)[:15]:
        assert conjugacy_class_partial(g, radius) == class_by_compose(g, radius, ball)
        assert commuting_ball(g, radius) == commuting_by_compose(g, radius, ball)


def test_the_class_walk_answers_where_the_ball_outgrows_the_budget():
    """The class of a in BS(2,2) doubles with each layer: 2,048 elements at
    radius 11, where the ball holds 30,695.  The node budget counts the
    class elements walked, so 10,000 nodes answer and 1,000 do not."""
    g = BS.word("a")
    cls = conjugacy_class_partial(g, 11, node_budget=10_000)
    assert len(cls) == 2048 and cls == class_by_compose(g, 11)
    with pytest.raises(BudgetExceededError, match="^class enumeration exceeded 1000 nodes at radius 10$") as exc:
        conjugacy_class_partial(g, 11, node_budget=1000)
    assert (exc.value.nodes, exc.value.radius) == (1001, 10)


def test_kernel_package_reexports_pure_python_kernels():
    import twistlab
    from twistlab._kernels import _pyops

    assert twistlab.kernel_impl == "python"
    for name in ("IMPL", "free_reduce", "free_mul", "bs_normalize", "bs_mul"):
        assert getattr(_kernels, name) is getattr(_pyops, name)


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=30))
def test_free_reduction_is_idempotent_and_sound(signed):
    red = _kernels.free_reduce(signed)
    assert red == reduce_letters(signed)
    assert _kernels.free_reduce(letters(red)) == red
    # no adjacent cancelling pair survives
    assert all(red[i] != red[i + 1] ^ 1 for i in range(len(red) - 1))


@given(
    st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=15),
    st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=15),
)
def test_free_mul_matches_reduce(a, b):
    ra = _kernels.free_reduce(a)
    rb = _kernels.free_reduce(b)
    assert _kernels.free_mul(ra, rb) == _kernels.free_reduce(letters(ra) + letters(rb)) == reduce_letters(a + b)
    # full cancellation against the inverse, on either side
    inv = F3._inv(ra)
    assert inv == code_word(-x for x in reversed(letters(ra)))
    assert _kernels.free_mul(ra, inv) == b"" == _kernels.free_mul(inv, ra)
    # (a b^-1) b = a: the junction cancels all of b
    assert _kernels.free_mul(_kernels.free_mul(ra, F3._inv(rb)), rb) == ra


@pytest.mark.parametrize(
    "G, word",
    [(F2, lambda d: d), (F3, lambda d: d), (SAN, lambda d: d[1]), (FZ, lambda d: d[0])],
    ids=["free2", "free3", "sanov", "free_times_z"],
)
def test_ball_words_are_code_bytes(G, word):
    assert all(type(word(g.data)) is bytes for g in G.ball(3))


def test_wreath_lengths():
    # lamp at the origin then step right: a t has length 2
    g = W.compose(W.element((((0, 1),), 0)), W.element(((), 1)))
    assert W.length(g) == 2
    # lamp at +1 requires walking there and back or staying: t a t^-1
    h = W.element((((1, 1),), 0))
    assert W.length(h) == 3


@pytest.mark.parametrize("m", range(1, 7))
def test_finite_wreath_length_is_the_bfs_radius(m):
    FW = get_group({"family": "wreath", "base": "Z2", "acting": m})
    radius, shells = 0, {}
    while len(shells) < m * 2**m:
        for g in bfs_ball(FW, radius):
            shells.setdefault(g, radius)
        radius += 1
    assert all(FW.length(g) == r for g, r in shells.items())


def test_finite_wreath_order():
    FW = get_group({"family": "wreath", "base": "Z2", "acting": 3})
    ball, diameter = FW.whole()
    assert len(ball) == 24 and FW.ball(diameter) == ball and len(FW.ball(diameter - 1)) < 24


def test_element_json_roundtrip():
    cases = [
        (SZ, {"0": 1, "3": -2}),
        (SZ2, [0, 2]),
        (F2, "a b B a"),
        (BS, "b b a b A"),
        (W, {"x": {"1": 2}, "k": -1}),
        (AN, {"v": [1, -2], "k": 3}),
        (SAN, {"v": [2, 1], "w": "a B"}),
        (FZ, {"w": "a b", "k": -2}),
    ]
    for G, obj in cases:
        g = G.element_from_json(obj)
        assert G.element_from_json(G.element_to_json(g)) == g


def test_bad_specs_rejected():
    with pytest.raises(SpecError):
        get_group({"family": "nope"})
    with pytest.raises(SpecError):
        get_group({"family": "zn_semidirect", "A": [[2, 0], [0, 2]]})  # det 4
    with pytest.raises(SpecError):
        get_group({"family": "bs_nn", "n": 1})
    with pytest.raises(SpecError):
        resolve_subgroup(F2, "center")
    with pytest.raises(SpecError):
        get_group({"family": "zn", "n": 2}).vector(1)


def test_bs_nn_constructor_refuses_n_below_two_for_library_callers():
    with pytest.raises(SpecError) as err:
        BaumslagSolitarNN(1)
    assert err.value.path == "group.n"


def test_the_group_cache_is_keyed_by_the_spec_with_its_defaults_filled_in():
    """A spec that leaves an optional field out and one that gives it its
    default are the same group, with one ball cache."""
    assert get_group({"family": "free"}) is get_group({"family": "free", "rank": 2})
    assert get_group({"family": "zn"}) is get_group({"family": "zn", "n": 2})
    assert get_group({"family": "wreath"}) is get_group({"family": "wreath", "base": "Z"})
    assert get_group({"family": "bs_nn", "n": 3}) is not get_group({"family": "bs_nn"})


def test_a_full_group_cache_evicts_its_oldest_group_and_its_balls(monkeypatch):
    """The group cache keeps `TABLE_SIZE` groups; one more evicts the oldest,
    whose balls go with it, and a rebuilt group gives the same balls."""
    monkeypatch.setattr(groups, "_GROUP_CACHE", {})
    specs = [{"family": "zn", "n": n} for n in range(1, groups.TABLE_SIZE + 2)]
    for spec in specs[: groups.TABLE_SIZE]:
        get_group(spec)
    oldest = get_group(specs[0])
    old_ball = [g.data for g in oldest.ball(3)]
    assert 3 in oldest._ball_cache
    gone = weakref.ref(oldest)
    del oldest
    get_group(specs[-1])
    assert len(groups._GROUP_CACHE) == groups.TABLE_SIZE and specs[1]["n"] == get_group(specs[1]).n
    gc.collect()
    assert gone() is None  # nothing holds the evicted group or its ball cache
    rebuilt = get_group(specs[0])
    assert 3 not in rebuilt._ball_cache and [g.data for g in rebuilt.ball(3)] == old_ball


def test_a_spec_read_before_keeps_its_types_and_its_group(monkeypatch):
    """A spec read before is answered from its repr: `True` and `1.0` are
    still refused after `1` is in the table, every spelling of one group
    gives one object, and a spec that raises stores nothing."""
    monkeypatch.setattr(groups, "_GROUP_CACHE", {})
    monkeypatch.setattr(groups, "_SPEC_KEYS", {})
    one = get_group({"family": "zn", "n": 1})
    assert get_group({"family": "zn", "n": 1}) is one
    for value in (True, 1.0):
        with pytest.raises(SpecError, match="must be an integer") as exc:
            get_group({"family": "zn", "n": value})
        assert exc.value.path == "group.n"
    free = get_group({"family": "free"})
    assert get_group({"family": "free", "rank": 2}) is free
    assert get_group({"rank": 2, "family": "free"}) is get_group({"family": "free"}) is free
    tables = dict(groups._GROUP_CACHE), dict(groups._SPEC_KEYS)
    for bad in ({"family": "zn", "n": True}, {"family": "wreath", "base": "Q"}, {"family": "nope"}, "zn", [1]):
        with pytest.raises(SpecError):
            get_group(bad)
    assert (groups._GROUP_CACHE, groups._SPEC_KEYS) == tables


def test_a_spec_whose_group_was_evicted_builds_it_again(monkeypatch):
    """The spec memo holds table keys, not groups: once the table drops a
    group, a spec read before builds it again, and the memo is bounded."""
    monkeypatch.setattr(groups, "_GROUP_CACHE", {})
    monkeypatch.setattr(groups, "_SPEC_KEYS", {})
    monkeypatch.setattr(groups, "TABLE_SIZE", 3)
    first = get_group({"family": "zn", "n": 1})
    gone = weakref.ref(first)
    del first
    for n in range(2, 9):
        get_group({"family": "zn", "n": n})
    assert len(groups._GROUP_CACHE) == len(groups._SPEC_KEYS) == 3
    gc.collect()
    assert gone() is None
    assert get_group({"family": "zn", "n": 1}).n == 1
    groups._GROUP_CACHE.clear()  # every group evicted, every memo entry kept
    rebuilt = get_group({"family": "zn", "n": 8})
    assert rebuilt.n == 8 and get_group({"family": "zn", "n": 8}) is rebuilt


def test_zn_elements_print_as_their_coordinate_tuple():
    Z2 = get_group({"family": "zn", "n": 2})
    assert repr(Z2.vector(1, 2)) == "<zn:(1, 2)>"
    assert repr(get_group({"family": "zn", "n": 1}).vector(-3)) == "<zn:(-3,)>"


def test_subgroup_embeddings():
    sub = resolve_subgroup(BS, "center")
    two = sub.inner.element((2,))
    assert sub.embed(two) == BS.b_power(4)
    assert sub.contains(BS.b_power(4))
    assert not sub.contains(BS.word("a"))
    base = resolve_subgroup(W, "base")
    assert {g.data[1] for g in base.ball(2)} == {0}
    assert sub is BS.center()
    assert resolve_subgroup(FZ, "center").name == resolve_subgroup(FZ, "z").name == "z"
    assert resolve_subgroup(SAN, "z2").name == "base"
    assert resolve_subgroup(BS, "trivial").ball(2) == (BS.identity(),)
    assert all(G.center() is None for G in ALL if G not in (BS, FZ))


L3 = get_group({"family": "wreath", "base": "Z2", "acting": 3})
ROT = get_group({"family": "zn_semidirect", "A": [[0, -1], [1, 0]]})


@pytest.mark.parametrize("G", [W, L, L3, AN, ROT], ids=lambda G: G.key)
def test_acting_part_moves_the_base_by_act(G):
    """(e, k)(y, e) = (k.y, k) for the lamp shift and for A^k."""
    e, one = G.identity().data
    pool = G.ball(2)
    for k in sorted({g.data[1] for g in pool}):
        for y in {g.data[0] for g in pool}:
            assert G.compose(G.element((e, k)), G.element((y, one))) == G.element((G.act(k, y), k))


@pytest.mark.parametrize("A", [[[2, 1], [1, 1]], [[0, -1], [1, 0]], [[1, 1, 0], [0, 1, 1], [0, 0, 1]]])
def test_matrix_powers_are_the_repeated_products_in_one_bounded_table(A):
    """A^k equals the product of |k| factors A, or A^-1 for k < 0, and a
    large shift leaves at most `TABLE_SIZE` powers on the group."""
    G = get_group({"family": "zn_semidirect", "A": A})
    want = {0: tuple(tuple(int(i == j) for j in range(len(A))) for i in range(len(A)))}
    for k in range(1, 41):
        want[k], want[-k] = _mat_mul(want[k - 1], G.A), _mat_mul(want[1 - k], G.A_inv)
    assert all(G.matrix_power(k) == want[k] for k in range(-40, 41))
    big = G.matrix_power(10000)
    assert len(G._powers) <= groups.TABLE_SIZE
    assert _mat_mul(big, G.matrix_power(-10000)) == want[0] and big == _mat_mul(G.matrix_power(5000), G.matrix_power(5000))


@pytest.mark.parametrize("A, det", [([[2, 0], [0, 2]], 4), ([[0, 1, 0], [2, 0, 0], [0, 0, 1]], -2), ([[1, 2], [2, 4]], 0)])
def test_a_matrix_of_determinant_other_than_plus_or_minus_one_is_refused(A, det):
    with pytest.raises(SpecError, match=rf"group\.A: matrix determinant must be \+-1, got {det}$"):
        get_group({"family": "zn_semidirect", "A": A})


def test_a_twelve_by_twelve_unimodular_matrix_is_inverted_at_construction():
    """The determinant and inverse come from one elimination, so a 12 x 12
    matrix, out of reach of cofactor expansion, builds its group at once."""
    rng = random.Random(12)
    A = [[int(i == j) for j in range(12)] for i in range(12)]
    for _ in range(60):  # row additions keep the determinant 1
        (i, j), c = rng.sample(range(12), 2), rng.choice([-1, 1])
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]
    A[0], A[1] = A[1], A[0]
    G = get_group({"family": "zn_semidirect", "A": A})
    assert G.det == -1 and max(abs(x) for row in A for x in row) > 1
    assert _mat_mul(G.A, G.A_inv) == tuple(tuple(int(i == j) for j in range(12)) for i in range(12))


@pytest.mark.parametrize("G, name", [(W, "base"), (L, "base"), (L3, "base"), (AN, "base"), (SAN, "base"), (SAN, "z2")])
def test_base_subgroup_embeds_and_projects_back(G, name):
    sub = resolve_subgroup(G, name)
    assert sub.inner is G.base_group()
    one = G.identity().data[1]
    for h in sub.inner.ball(2):
        g = sub.embed(h)
        assert g.data == (h.data, one)
        assert sub.project(g) == h and sub.contains(g)
    for g in G.generators():
        assert (sub.project(g) is None) == (g.data[1] != one)


def test_free_group_rank_bounded_by_letters():
    F8 = get_group({"family": "free", "rank": 8})
    assert [F8.element_to_json(g) for g in F8.generators()][-2:] == ["h", "H"]
    for rank in (0, 9):
        with pytest.raises(SpecError, match="between 1 and 8"):
            get_group({"family": "free", "rank": rank})


_SANOV_WORDS = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12).map(
    _kernels.free_reduce
)
_SANOV_VECTORS = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


@given(_SANOV_WORDS, _SANOV_VECTORS)
def test_sanov_act_matches_word_matrix(word, v):
    assert sanov_act(word, v) == _mat_vec(sanov_word_matrix(word), v)


@given(_SANOV_WORDS, _SANOV_VECTORS)
def test_sanov_compose_with_inverse_is_identity(word, v):
    g = SAN.pair(v, word)
    assert SAN.compose(g, SAN.invert(g)).is_identity()
    assert SAN.compose(SAN.invert(g), g).is_identity()


@pytest.mark.parametrize(
    "G",
    ALL + [get_group({"family": "sum_z2", "modulus": 5}), get_group({"family": "wreath", "base": "Z2", "acting": 3})],
    ids=lambda G: G.key,
)
def test_smaller_balls_come_from_a_larger_cached_ball(G):
    """With the radius-4 ball cached, each smaller ball is read from it: the
    same tuple as a fresh enumeration, the independent BFS ball in strictly
    increasing key order, and the same budget error, also once the smaller ball is stored."""
    G._ball_cache.clear()
    fresh, errors = [], []
    for r in range(4):
        fresh.append(G.ball(r))
        G._ball_cache.clear()
        with pytest.raises(BudgetExceededError) as exc:
            G.ball(r, node_budget=len(fresh[r]) - 1)
        errors.append((str(exc.value), exc.value.nodes, exc.value.radius))
    G.ball(4)
    for r in range(4):
        assert r in G._ball_cache
        with pytest.raises(BudgetExceededError) as exc:
            G.ball(r, node_budget=len(fresh[r]) - 1)
        assert (str(exc.value), exc.value.nodes, exc.value.radius) == errors[r]
        b = G.ball(r)
        assert b == fresh[r]
        with pytest.raises(BudgetExceededError):  # a served ball still honours the budget
            G.ball(r, node_budget=len(b) - 1)
        assert set(b) == bfs_ball(G, r)
        keys = [G.sort_key(g.data) for g in b]
        assert all(a < c for a, c in zip(keys, keys[1:]))
    G._ball_cache.clear()


@pytest.mark.parametrize(
    "G", [F2, SZ, SZ2, get_group({"family": "zn", "n": 2}), W, AN, SAN, BS, FZ], ids=lambda G: G.family
)
def test_a_smaller_ball_is_the_elements_of_the_larger_that_entered_by_its_radius(G):
    """For r <= R, ball(r) and its entry radii are the elements of
    ball_entries(R) whose entry is at most r, in order: when ball(R) is
    enumerated first and when ball(r) was cached before it."""
    R = 3
    G._ball_cache.clear()
    ball, entries = G.ball_entries(R)
    served = [G.ball_entries(r) for r in range(R + 1)]
    for r in range(R + 1):
        G._ball_cache.clear()
        fresh = G.ball_entries(r)
        assert G.ball_entries(R) == (ball, entries)
        inside = [i for i, e in enumerate(entries) if e <= r]
        want = (tuple(ball[i] for i in inside), tuple(entries[i] for i in inside))
        assert fresh == served[r] == want == G.ball_entries(r)
        assert G.ball(r) == want[0]
    G._ball_cache.clear()


# sha256 of ball(4) as (payload, entry radius) pairs in ball order, and of every
# product and inverse over ball(2) x ball(2), recorded while `wreath` and
# `zn_semidirect` each wrote their own group law and sort key: the ball test
# above compares the order with the group's own key only, so it cannot see a
# changed key
Z_EXTENSION_DIGESTS = [
    (
        {"family": "wreath", "base": "Z"},
        "db8e43a34f4b95d84de5a35a94bd42e905a24bb51f3de1e619f801b213c1074e",
        "95ab5a3bea2789265be4e521ba8d384e9b1aae574c9c05e4a0d6ba74fa434304",
    ),
    (
        {"family": "wreath", "base": "Z2"},
        "a943a7068192f23589ade949c73372a264f924f146139530a80d3bd0f19dfb13",
        "fcf627c5bf18316453c03bb29d1fea833a09dc19f663a30fab0f7c5804aaf612",
    ),
    (
        {"family": "wreath", "base": "Z2", "acting": 3},
        "05a626d468baad8992683aee06668a4b10a2972940f10dfdb96b16f06af62a31",
        "ef56ebf3e556fc6c880d81a483ff2c2d2f655de9bcfbf54a03a1975e1b1a7882",
    ),
    (
        {"family": "zn_semidirect", "A": [[2, 1], [1, 1]]},
        "d945ae32e2e82341ba80d46b3a450183ad4411c81318bc7fbbf1d7c78e8ac16e",
        "37db0ce82ffe1006a1e3e16ed1b1f513ae751267922869b5b233dd662eeb88e4",
    ),
    (
        {"family": "zn_semidirect", "A": [[0, 1, 0], [0, 0, 1], [1, 1, 0]]},
        "7893563d759a88a72589248621354237fafe6ecc541bd4044d944740c105c652",
        "25c2ef2c5c0a1e19815c1c8d9a97fd23be383ac64a24e68a06c88e25c003a9d0",
    ),
]


@pytest.mark.parametrize(
    "spec, ball_digest, product_digest",
    Z_EXTENSION_DIGESTS,
    ids=["wreath_Z", "wreath_Z2", "wreath_Z2_acting_3", "zn_semidirect_2x2", "zn_semidirect_3x3"],
)
def test_z_extension_balls_and_products_match_their_frozen_digests(spec, ball_digest, product_digest):
    G = get_group(spec)
    ball, entries = G.ball_entries(4)
    near = G.ball(2)
    products = [G.compose(g, h).data for g in near for h in near] + [G.invert(g).data for g in near]

    def sha(obj) -> str:
        return hashlib.sha256(repr(obj).encode()).hexdigest()

    assert sha([(g.data, e) for g, e in zip(ball, entries)]) == ball_digest
    assert sha(products) == product_digest
