"""The fixture runner: witness re-validation, row matching, budget rows."""

import pytest

from twistlab import fixtures
from twistlab.fixtures import Fixture, _match, run_fixture

IRR_R = {"rat": [0, 1], "irr": {"r": [1, 1]}}

# classify on Z with the trivial cocycle: Kleppner fails at the generator
CLASSIFY_ON_Z = Fixture(
    id="classify_trivial_on_z",
    description="the integers untwisted: Kleppner fails with witness 1",
    group={"family": "zn", "n": 1},
    cocycle={"kind": "trivial"},
    command="classify",
    expected={"kleppner": "refuted", "witness": [1]},
)


def test_a_classify_witness_is_revalidated(monkeypatch):
    got = run_fixture(CLASSIFY_ON_Z)
    assert (got["kleppner"], got["witness"], got["witness_revalidated"]) == ("refuted", [1], True)
    assert _match(CLASSIFY_ON_Z.expected, got)
    monkeypatch.setattr(fixtures, "_try_refutation_witness", lambda *args: False)
    got = run_fixture(CLASSIFY_ON_Z)
    assert got["witness_revalidated"] is False
    assert not _match(CLASSIFY_ON_Z.expected, got)


REFUTED_B6 = {"kleppner": "refuted", "witness": "b b b b b b", "witness_revalidated": True}


@pytest.mark.parametrize(
    "expected, got, match",
    [
        ({"kleppner": "refuted", "witness": [0, 2]}, {"kleppner": "refuted", "witness": [0, 4], "witness_revalidated": True}, False),
        ({"kleppner": "refuted", "witness": [0, 2]}, {"kleppner": "refuted", "witness": [0, 2], "witness_revalidated": False}, False),
        ({"kleppner": "refuted"}, {"kleppner": "refuted", "witness": [0, 2], "witness_revalidated": False}, False),
        ({"kleppner": "certified", "witness": "b b b b b b"}, REFUTED_B6, False),  # d_bs_third_kleppner under --corrupt
        ({"kleppner": "refuted", "witness": "b b b b b b"}, REFUTED_B6, True),
        ({"relative_kleppner": "certified"}, {"relative_kleppner": "certified"}, True),
    ],
    ids=["witness_differs", "witness_failed", "refuted_unvalidated", "corrupted", "match", "match_without_witness"],
)
def test_match(expected, got, match):
    assert _match(expected, got) is match


def test_a_budget_that_runs_out_gives_a_budget_row():
    fx = Fixture(
        id="sanov_regular_small_budget",
        description="a regularity check on the lattice-by-free-group pair past its node budget",
        group={"family": "sanov"},
        cocycle={"kind": "sanov", "mu0": IRR_R, "mu1": [1, 3], "mu2": [1, 5]},
        command="regular",
        element={"v": [1, 0], "w": ""},
        expected={"status": "regular"},
    )
    got = run_fixture(fx, radius=9, node_budget=1000)
    assert got == {"budget_exceeded": True, "bound": 1001}
    assert not _match(fx.expected, got)


def test_the_matrix_checks_its_numeric_basis_once_per_process(monkeypatch):
    """The basis is built at import; running the matrix builds no other."""

    def refuse(values):
        raise AssertionError("an IrrationalBasis was built while running the matrix")

    monkeypatch.setattr(fixtures, "IrrationalBasis", refuse)
    report = fixtures.run_fixture_matrix()
    assert report["all_match"] and len(report["rows"]) == len(fixtures.FIXTURES)
