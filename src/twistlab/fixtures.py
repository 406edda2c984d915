"""Bundled fixture matrix: the concrete group/cocycle pairs with known
verdicts, used by the `fixtures` CLI command and the acceptance suite.

Every refuted expectation is re-validated through the regularity module,
independently of the decider's internal path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cocycles import build_cocycle
from .errors import BudgetExceededError
from .groups import get_group, resolve_subgroup
from .phase import IrrationalBasis
from .regularity import is_sigma_regular
from .verdicts import (
    _try_refutation_witness,
    _try_relative_witness,
    classify,
    decide_kleppner,
    decide_relative_kleppner,
)

# numeric stand-ins for the declared irrationals (export only; all decisions
# are exact and independent of these values)
BASIS = {"r": 0.3819660112501051, "s": 0.7071067811865476}

IRR_R = {"rat": [0, 1], "irr": {"r": [1, 1]}}
ONE_MINUS_R = {"rat": [1, 1], "irr": {"r": [-1, 1]}}


@dataclass
class Fixture:
    id: str
    description: str
    group: dict
    cocycle: dict
    command: str  # classify | kleppner | relative_kleppner | regular
    expected: dict
    subgroup: str | None = None
    element: dict | str | None = None
    candidates: list = field(default_factory=list)


FIXTURES: list[Fixture] = [
    Fixture(
        id="a_wreath_prime_reciprocal",
        description="integer wreath product with the prime-reciprocal diagonal lift",
        group={"family": "wreath", "base": "Z"},
        cocycle={"kind": "lift", "base": {"kind": "theta_rule", "rule": "prime_reciprocal"}},
        command="classify",
        expected={"kleppner": "certified", "unique_trace": "certified", "cstar_simple": "certified"},
    ),
    Fixture(
        id="b_period4_regular_element",
        description="period-4 irrational diagonals: e1+e3 is certified regular",
        group={"family": "sum_z"},
        cocycle={
            "kind": "theta_diag",
            "diagonals": [],
            "period": [IRR_R, [0, 1], ONE_MINUS_R, [0, 1]],
        },
        command="regular",
        element={"1": 1, "3": 1},
        expected={"status": "regular"},
    ),
    Fixture(
        id="b_period4_kleppner_refuted",
        description="period-4 irrational diagonals: Kleppner fails with witness e1+e3",
        group={"family": "sum_z"},
        cocycle={
            "kind": "theta_diag",
            "diagonals": [],
            "period": [IRR_R, [0, 1], ONE_MINUS_R, [0, 1]],
        },
        command="kleppner",
        candidates=[{"1": 1, "3": 1}],
        expected={"kleppner": "refuted", "witness": {"1": 1, "3": 1}},
    ),
    Fixture(
        id="c_lamplighter_single_bit",
        description="lamplighter with the single-bit stream: simple with unique trace",
        group={"family": "wreath", "base": "Z2"},
        cocycle={"kind": "lift", "base": {"kind": "bitstream", "pre": [1], "period": []}},
        command="classify",
        expected={"kleppner": "certified", "unique_trace": "certified", "cstar_simple": "certified"},
    ),
    Fixture(
        id="c_bitstream_odd_periodic",
        description="odd-support bitstream on the bit sum: periodic with period 2",
        group={"family": "sum_z2"},
        cocycle={"kind": "bitstream", "pre": [], "period": [1, 0]},
        command="kleppner",
        expected={"kleppner": "refuted", "witness": [0, 2], "detail": "period 2"},
    ),
    Fixture(
        id="d_bs_irrational",
        description="BS(2,2) with an irrational twisting unit",
        group={"family": "bs_nn", "n": 2},
        cocycle={"kind": "bs", "lambda": IRR_R},
        command="classify",
        expected={"kleppner": "certified", "unique_trace": "certified", "cstar_simple": "certified"},
    ),
    Fixture(
        id="d_bs_third_kleppner",
        description="BS(2,2) with a third root of unity: central witness b^6",
        group={"family": "bs_nn", "n": 2},
        cocycle={"kind": "bs", "lambda": [1, 3]},
        command="kleppner",
        expected={"kleppner": "refuted", "witness": "b b b b b b"},
    ),
    Fixture(
        id="d_bs_third_relative",
        description="BS(2,2) with a third root of unity: relative condition fails at a^3",
        group={"family": "bs_nn", "n": 2},
        cocycle={"kind": "bs", "lambda": [1, 3]},
        command="relative_kleppner",
        subgroup="center",
        expected={"relative_kleppner": "refuted", "witness": "a a a"},
    ),
    Fixture(
        id="e_sanov_irrational_mu0",
        description="lattice-by-free-group pair with irrational skew parameter",
        group={"family": "sanov"},
        cocycle={"kind": "sanov", "mu0": IRR_R, "mu1": [1, 3], "mu2": [1, 3]},
        command="classify",
        expected={"unique_trace": "certified", "cstar_simple": "certified"},
    ),
    Fixture(
        id="e_sanov_all_torsion",
        description="lattice-by-free-group pair with all parameters torsion",
        group={"family": "sanov"},
        cocycle={"kind": "sanov", "mu0": [1, 2], "mu1": [1, 3], "mu2": [1, 5]},
        command="classify",
        expected={"unique_trace": "refuted", "cstar_simple": "refuted"},
    ),
    Fixture(
        id="f_f2xz_nontorsion",
        description="free-times-integers with a nontorsion character value",
        group={"family": "free_times_z"},
        cocycle={"kind": "f2xz", "mu": IRR_R, "nu": [1, 3]},
        command="classify",
        expected={"kleppner": "certified", "unique_trace": "certified", "cstar_simple": "certified"},
    ),
    Fixture(
        id="f_f2xz_both_torsion",
        description="free-times-integers with both character values torsion",
        group={"family": "free_times_z"},
        cocycle={"kind": "f2xz", "mu": [1, 3], "nu": [1, 5]},
        command="kleppner",
        expected={"kleppner": "refuted"},
    ),
    Fixture(
        id="g_wreath_relative_infinite",
        description="lamplighter over the integers: relative condition holds for any stream",
        group={"family": "wreath", "base": "Z2"},
        cocycle={"kind": "lift", "base": {"kind": "bitstream", "pre": [1], "period": []}},
        command="relative_kleppner",
        subgroup="base",
        expected={"relative_kleppner": "certified"},
    ),
    Fixture(
        id="g_wreath_relative_finite",
        description="finite wreath product: relative condition fails",
        group={"family": "wreath", "base": "Z2", "acting": 3},
        cocycle={"kind": "trivial"},
        command="relative_kleppner",
        subgroup="base",
        expected={"relative_kleppner": "refuted"},
    ),
]


def _revalidate_refuted(fx: Fixture, group, sigma, witness, radius: int, node_budget: int) -> bool:
    """Re-check a witness with the deciders' own witness tests, which go
    through the regularity module whatever rule produced the witness."""
    if fx.command == "relative_kleppner":
        sub = resolve_subgroup(group, fx.subgroup or "base")
        return _try_relative_witness(sigma, sub, witness, radius, node_budget)
    return _try_refutation_witness(sigma, witness, radius, node_budget)


def run_fixture(fx: Fixture, radius: int = 6, node_budget: int = 10**6) -> dict:
    basis = IrrationalBasis(BASIS)
    group = get_group(fx.group)
    sigma = build_cocycle(fx.cocycle, group, basis)
    got: dict = {}
    witness = None
    try:
        if fx.command == "classify":
            candidates = [group.element_from_json(c) for c in fx.candidates]
            rep = classify(group, sigma, radius, node_budget, kleppner_candidates=candidates)
            got = {
                "kleppner": rep.kleppner.status,
                "unique_trace": rep.unique_trace.status,
                "cstar_simple": rep.cstar_simple.status,
            }
            witness = rep.kleppner.witness
            got["report"] = rep.to_json()
        elif fx.command == "kleppner":
            candidates = [group.element_from_json(c) for c in fx.candidates]
            v = decide_kleppner(group, sigma, radius, node_budget, candidates=candidates)
            got = {"kleppner": v.status, "report": v.to_json()}
            if v.detail:
                got["detail"] = v.detail
            witness = v.witness
        elif fx.command == "relative_kleppner":
            v = decide_relative_kleppner(group, fx.subgroup or "base", sigma, radius, node_budget)
            got = {"relative_kleppner": v.status, "report": v.to_json()}
            witness = v.witness
        else:  # regular
            g = group.element_from_json(fx.element)
            rep = is_sigma_regular(sigma, g, radius, node_budget)
            got = {"status": rep.status, "report": rep.to_json()}
    except BudgetExceededError as exc:
        got = {"budget_exceeded": True, "bound": exc.nodes or exc.radius}

    if witness is not None:
        got["witness"] = group.element_to_json(witness)
        got["witness_revalidated"] = _revalidate_refuted(
            fx, group, sigma, witness, radius, node_budget
        )
    return got


def _match(expected: dict, got: dict) -> bool:
    """Every expected key as expected, and any witness re-validated."""
    return all(got.get(k) == v for k, v in expected.items()) and got.get("witness_revalidated", True)


def run_fixture_matrix(
    radius: int = 6,
    node_budget: int = 10**6,
    corrupt: str | None = None,
) -> dict:
    """Execute the bundled matrix, one fixture after another; returns rows and an overall flag."""

    def one(fx: Fixture) -> dict:
        expected = dict(fx.expected)
        if corrupt == fx.id:
            expected = {
                k: ("refuted" if v == "certified" else "certified") if isinstance(v, str) and v in ("certified", "refuted") else v
                for k, v in expected.items()
            }
        got = run_fixture(fx, radius, node_budget)
        return {
            "fixture": fx.id,
            "description": fx.description,
            "expected": expected,
            "got": got,
            "match": _match(expected, got),
        }

    rows = [one(fx) for fx in FIXTURES]
    ok = all(r["match"] for r in rows)
    return {"rows": rows, "all_match": ok}
