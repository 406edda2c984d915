"""Command-line interface: dispatch, exit codes, determinism."""

import json
import math
import os
import time

import pytest

from conftest import SESSION_OPENBLAS_THREADS
from twistlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BS_ARGS = (
    "--group",
    '{"family":"bs_nn","n":2}',
    "--cocycle",
    '{"kind":"bs","lambda":{"rat":[0,1],"irr":{"r":[1,1]}}}',
    "--basis",
    '{"r":0.38}',
)


def test_classify_exit_zero(capsys):
    code, out, err = run_cli(capsys, "classify", *BS_ARGS)
    assert code == 0
    rep = json.loads(out)
    assert rep["kleppner"]["status"] == "certified"
    assert rep["kleppner"]["cite"]
    assert "kleppner=certified" in err


def test_verdict_kleppner_with_witness(capsys):
    code, out, _ = run_cli(
        capsys,
        "verdict",
        "kleppner",
        "--group",
        '{"family":"bs_nn","n":2}',
        "--cocycle",
        '{"kind":"bs","lambda":[1,3]}',
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["kleppner"]["status"] == "refuted"
    assert rep["kleppner"]["witness"] == "b b b b b b"


def test_relative_kleppner_subcommand(capsys):
    code, out, _ = run_cli(
        capsys,
        "verdict",
        "relative-kleppner",
        "--subgroup",
        "center",
        "--group",
        '{"family":"bs_nn","n":2}',
        "--cocycle",
        '{"kind":"bs","lambda":[1,3]}',
    )
    assert code == 0
    assert json.loads(out)["relative_kleppner"]["witness"] == "a a a"


@pytest.mark.parametrize(
    "g, status, rule",
    [("a a a a", "regular", "central_twist_vanishes_on_power"), ("a a", "not_regular", None)],
)
def test_regular_relative_to_k_and_the_subgroup(capsys, g, status, rule):
    """--k decides t relative to (k, H) through k^-1 t relative to H: on the
    BS(2,2) center with lambda = 1/3, a^3 is regular and a is not."""
    code, out, _ = run_cli(
        capsys,
        "regular",
        "--group",
        '{"family":"bs_nn","n":2}',
        "--cocycle",
        '{"kind":"bs","lambda":[1,3]}',
        "--g",
        json.dumps(g),
        "--k",
        '"a"',
        "--subgroup",
        "center",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == status and rep.get("rule") == rule
    assert rep["subject"] == g and rep["detail"].startswith("via k^-1 t = ")
    if status == "not_regular":
        assert rep["witness"] == "b b"


def test_regular_subcommand(capsys):
    code, out, _ = run_cli(
        capsys,
        "regular",
        "--group",
        '{"family":"sum_z"}',
        "--cocycle",
        '{"kind":"theta_rule","rule":"prime_reciprocal"}',
        "--g",
        '{"0":1}',
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "not_regular" and rep["witness"] == {"1": 1}


def test_malformed_spec_exit_one(capsys):
    code, out, err = run_cli(
        capsys,
        "verdict",
        "kleppner",
        "--group",
        '{"family":"sum_z"}',
        "--cocycle",
        '{"kind":"theta_window","entries":[[2,1,[1,2]]]}',
    )
    assert code == 1
    rep = json.loads(out)
    assert rep["path"] == "cocycle.entries[0]"
    assert "specification error" in err


@pytest.mark.parametrize("stream", ['"pre":[1,0]', '"pre":[1]', '"period":[1,0]'])
def test_non_invariant_lift_to_a_finite_wreath_product_is_refused(capsys, stream):
    code, out, err = run_cli(
        capsys,
        "classify",
        "--group",
        '{"family":"wreath","base":"Z2","acting":4}',
        "--cocycle",
        '{"kind":"lift","base":{"kind":"bitstream",%s}}' % stream,
    )
    assert code == 1
    assert json.loads(out)["path"] == "cocycle.base"
    assert "specification error" in err


@pytest.mark.parametrize("kind", ["bitstream", "lift", "sanov", "bs", "f2xz", "product"])
def test_cocycle_on_the_wrong_family_is_refused(capsys, kind):
    code, out, err = run_cli(
        capsys, "classify", "--group", '{"family":"zn","n":2}', "--cocycle", '{"kind":"%s"}' % kind
    )
    assert code == 1
    assert json.loads(out)["path"] == "cocycle.kind"
    assert "Traceback" not in err


def test_usage_error_exit_one(capsys):
    code, out, _ = run_cli(capsys, "verdict", "kleppner", "--group", '{"family":"sum_z"}')
    assert code == 1


def test_unknown_family_path(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--group", '{"family":"zzz"}', "--cocycle", '{"kind":"trivial"}'
    )
    assert code == 1
    assert json.loads(out)["path"] == "group.family"


def test_inconclusive_exit_two(capsys):
    # an opaque cocycle on a non-ICC family with a tiny budget: nothing fires
    code, out, _ = run_cli(
        capsys,
        "verdict",
        "relative-kleppner",
        "--subgroup",
        "base",
        "--group",
        '{"family":"zn_semidirect","A":[[1,1],[0,1]]}',  # not aperiodic (icc false)
        "--cocycle",
        '{"kind":"trivial"}',
        "--radius",
        "1",
    )
    assert code == 2
    assert json.loads(out)["relative_kleppner"]["status"] == "inconclusive"


def test_rank_three_semidirect_product_is_built_and_left_undecided(capsys):
    """A 3x3 matrix passes the determinant check by elimination, and
    no Kleppner rule decides the group, so the verdict is inconclusive."""
    group = '{"family":"zn_semidirect","A":[[2,1,0],[1,1,0],[0,0,1]]}'
    code, out, _ = run_cli(capsys, "verdict", "kleppner", "--group", group, "--cocycle", '{"kind":"trivial"}')
    assert code == 2
    assert json.loads(out)["kleppner"]["status"] == "inconclusive"


def test_theta_window_has_no_finite_bandwidth_and_the_kernel_scan_refutes(capsys):
    """Only e_1 and e_2 twist, so e_0 is regular and central."""
    window = '{"kind":"theta_window","entries":[[1,2,[1,3]]]}'
    code, out, _ = run_cli(capsys, "verdict", "kleppner", "--group", '{"family":"sum_z"}', "--cocycle", window)
    assert code == 0
    rep = json.loads(out)["kleppner"]
    assert (rep["status"], rep["rule"], rep["witness"]) == ("refuted", "kernel_scan", {"0": 1})


def _period_pair(first: dict, second: dict) -> tuple[str, ...]:
    period = [{"rat": [0, 1], "irr": {}, **first}, {"rat": [0, 1], "irr": {}, **second}]
    cocycle = json.dumps({"kind": "theta_diag", "diagonals": [], "period": period})
    return ("--group", '{"family":"sum_z"}', "--cocycle", cocycle, "--basis", '{"r":0.3819660112501051}')


# The scaled row entries are 2**62 + 1 and 2**62 - 1, so the int64 key of
# x_1 = x_2 = 2 is 2 * (2**62 + 1) + 2 * (2**62 - 1) = 2**64, which wraps to 0.
KEYS_PAST_INT64 = _period_pair({"irr": {"r": [1, 2**62 - 1]}}, {"irr": {"r": [1, 2**62 + 1]}})
# The rational parts' common denominator D does not fit in int64.
DENOMINATOR_PAST_INT64 = _period_pair({"rat": [1, 2**63 + 9], "irr": {"r": [1, 1]}}, {"irr": {"r": [1, 1]}})


@pytest.mark.parametrize("pair", [KEYS_PAST_INT64, DENOMINATOR_PAST_INT64], ids=["keys", "denominator"])
@pytest.mark.parametrize("command", [("verdict", "kleppner"), ("classify",)], ids=["kleppner", "classify"])
def test_box_scan_past_int64_is_inconclusive(capsys, pair, command):
    """A box scan whose int64 keys could wrap refuses; it neither refutes
    on wrapped keys nor leaves a traceback."""
    code, out, err = run_cli(capsys, *command, *pair, "--radius", "4")
    assert code == 2 and "Traceback" not in err
    rep = json.loads(out)["kleppner"]
    assert rep == {"status": "inconclusive", "bound": 4, "detail": "the box scan's int64 keys would overflow at height 1"}


def test_the_wrapped_key_vector_is_not_regular(capsys):
    """The vector that wrapped keys would certify, e_1 + e_2 times 2."""
    code, out, _ = run_cli(capsys, "regular", *KEYS_PAST_INT64, "--g", '{"1":2,"2":2}')
    assert code == 0 and json.loads(out)["status"] == "not_regular"


def test_spectral_norm_subcommand(tmp_path, capsys):
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps([{"g": "a", "re": 1}, {"g": "A", "re": 1}]))
    code, out, _ = run_cli(
        capsys,
        "spectral",
        "norm",
        "--group",
        '{"family":"free","rank":1}',
        "--cocycle",
        '{"kind":"trivial"}',
        "--f",
        str(fpath),
        "--radius",
        "5",
    )
    assert code == 0
    rep = json.loads(out)
    assert len(rep["sequence"]) == 5
    vals = [s["value"] for s in rep["sequence"]]
    assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))


def test_spectral_norm_of_coefficients_near_the_float_limit(tmp_path, capsys):
    fpath = tmp_path / "f.json"
    fpath.write_text('[{"g":"a","re":1e308,"im":1e308}]')
    code, out, _ = run_cli(
        capsys, "spectral", "norm", "--group", '{"family":"free","rank":2}', "--cocycle", '{"kind":"trivial"}',
        "--f", str(fpath), "--radius", "2",
    )
    assert code == 0
    rep = json.loads(out)
    assert all(r["converged"] for r in rep["sequence"])
    assert rep["value"] == pytest.approx(math.hypot(1e308, 1e308), rel=1e-12)


def test_spectral_norm_past_the_float_range_is_a_spec_error(tmp_path, capsys):
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps([{"g": g, "re": 1e308} for g in ("a", "A", "b", "B")]))
    code, out, _ = run_cli(
        capsys, "spectral", "norm", "--group", '{"family":"free","rank":2}', "--cocycle", '{"kind":"trivial"}',
        "--f", str(fpath), "--radius", "2",
    )
    assert code == 1
    assert json.loads(out) == {"error": "f: a norm exceeds the float range; scale the coefficients down", "path": "f"}


@pytest.mark.parametrize("M", ["inf", "5e-324"], ids=["infinite", "underflowing"])
def test_growth_decay_bound_past_the_float_range_is_a_spec_error(capsys, M):
    """An infinite bound would print `Infinity`; the smallest subnormal one
    makes bound * weighted norm round to zero, so every ratio is infinite."""
    code, out, err = run_cli(
        capsys, "growth", "decay", "--group", '{"family":"zn","n":1}', "--cocycle", '{"kind":"trivial"}',
        "--M", M, "--kappa", "1",
    )
    assert code == 1 and len(out.splitlines()) == 1 and "Traceback" not in err
    assert json.loads(out) == {
        "error": "M: the bound or a ratio exceeds the float range; choose a bound M nearer 1",
        "path": "M",
    }


HUGE_R = '{"irr":{"r":[%d,1]}}' % 10**400  # a coefficient past the float range


@pytest.mark.parametrize(
    "argv",
    [
        ("spectral", "norm", "--group", '{"family":"bs_nn","n":2}', "--cocycle", '{"kind":"bs","lambda":%s}' % HUGE_R),
        ("spectral", "r2", "--group", '{"family":"bs_nn","n":2}', "--cocycle", '{"kind":"bs","lambda":%s}' % HUGE_R),
        ("growth", "orbit", "--nu1", HUGE_R),
    ],
    ids=["spectral_norm", "spectral_r2", "growth_orbit"],
)
def test_a_coefficient_past_the_float_range_is_a_json_error(argv, tmp_path, capsys):
    """The exact phase is fine; its float export refuses, naming the symbol."""
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps([{"g": "a", "re": 1}, {"g": "b", "re": 1}]))
    files = ("--f", str(fpath)) if argv[0] == "spectral" else ()
    code, out, err = run_cli(capsys, *argv, "--basis", '{"r":0.3}', *files)
    assert code == 1
    assert json.loads(out) == {"error": "the coefficient of symbol 'r' is too large for a float", "path": ""}
    assert "Traceback" not in err


def test_a_symbol_term_past_2_53_is_a_json_error(tmp_path, capsys):
    """lambda = 10^20 r is a fine exact phase, but (c/D) * value is past
    2^53, where a float keeps no digit of the angle: the export refuses."""
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps([{"g": "a", "re": 1}, {"g": "b", "re": 1}]))
    code, out, err = run_cli(
        capsys, "spectral", "norm", "--group", '{"family":"bs_nn","n":2}',
        "--cocycle", '{"kind":"bs","lambda":{"irr":{"r":[%d,1]}}}' % 10**20,
        "--basis", '{"r":0.3819660112501051}', "--f", str(fpath), "--radius", "3",
    )
    assert code == 1
    assert json.loads(out) == {
        "error": "the coefficient of symbol 'r' times its value reaches 2**53: its angle has no float digit",
        "path": "",
    }
    assert "Traceback" not in err


def test_spectral_norm_rejects_nonpositive_radius(tmp_path, capsys):
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps([{"g": "a", "re": 1}]))
    for radius in ("0", "-2"):
        code, out, _ = run_cli(
            capsys,
            "spectral",
            "norm",
            "--group",
            '{"family":"free","rank":1}',
            "--cocycle",
            '{"kind":"trivial"}',
            "--f",
            str(fpath),
            "--radius",
            radius,
        )
        assert code == 1
        assert json.loads(out)["path"] == "radius"


def test_budget_exhaustion_reports_inconclusive(capsys):
    code, out, err = run_cli(
        capsys,
        "regular",
        "--group",
        '{"family":"sanov"}',
        "--cocycle",
        '{"kind":"sanov","mu0":{"rat":[0,1],"irr":{"r":[1,1]}},"mu1":[1,3],"mu2":[1,5]}',
        "--g",
        '{"v":[1,0],"w":""}',
        "--radius",
        "9",
        "--nodes",
        "1000",
    )
    assert code == 2
    rep = json.loads(out)
    assert rep["status"] == "inconclusive"
    assert rep["nodes"] > 1000 and 1 <= rep["radius"] <= 9
    assert "exceeded 1000 nodes" in rep["detail"]
    assert "inconclusive" in err


def test_finite_group_honours_the_node_budget(capsys):
    """The finite-group rule enumerates its balls under the caller's budget:
    (Z/2)^40 stops at the first ball past 20,000 nodes instead of walking
    millions of nodes under the default budget."""
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys,
        "verdict",
        "kleppner",
        "--group",
        '{"family":"sum_z2","modulus":40}',
        "--cocycle",
        '{"kind":"trivial"}',
        "--nodes",
        "20000",
    )
    assert time.perf_counter() - start < 5.0
    assert code == 2
    rep = json.loads(out)
    assert rep["status"] == "inconclusive"
    assert rep["nodes"] <= 20001 and rep["radius"] is not None


def test_wide_sum_family_windows_give_json_reports(capsys):
    """Windows of hundreds or thousands of indices are enumerated without a
    frame per index: the first shell refutes, a finite group's enumeration
    runs out of budget, and the trivial subgroup's witness comes from the
    radius-1 ball."""
    trivial = ("--cocycle", '{"kind":"trivial"}')
    wide = ("--group", '{"family":"sum_z2","modulus":5000}', *trivial)
    code, out, _ = run_cli(capsys, "verdict", "kleppner", "--group", '{"family":"sum_z"}', *trivial, "--radius", "600")
    assert code == 0
    rep = json.loads(out)["kleppner"]
    assert (rep["status"], rep["witness"]) == ("refuted", {"0": 1})

    code, out, _ = run_cli(capsys, "verdict", "kleppner", *wide, "--nodes", "20000")
    assert code == 2
    assert json.loads(out)["status"] == "inconclusive"

    code, out, _ = run_cli(capsys, "verdict", "relative-kleppner", "--subgroup", "trivial", *wide)
    assert code == 0
    rep = json.loads(out)["relative_kleppner"]
    assert (rep["status"], rep["witness"]) == ("refuted", [0])


@pytest.mark.parametrize(
    "group, cocycle, g, code, status",
    [
        (
            '{"family":"zn_semidirect","A":[[2,1],[1,1]]}',
            '{"kind":"lift","base":{"kind":"antisym_theta","theta":{"irr":{"r":[1,1]}}}}',
            {"v": [1, 0], "k": 5000},
            2,
            "no_witness_up_to",
        ),
        (
            '{"family":"sanov"}',
            '{"kind":"sanov","mu0":[1,3],"mu1":[1,3],"mu2":[1,5]}',
            {"v": [1, 0], "w": " ".join(["a"] * 1500)},
            0,
            "not_regular",
        ),
    ],
    ids=["zn_semidirect_k5000", "sanov_1500_letters"],
)
def test_long_elements_give_json_reports(capsys, group, cocycle, g, code, status):
    """A matrix power and a Sanov twist are built without a frame per
    step, so a shift of 5,000 or a word of 1,500 letters gets a report."""
    got, out, err = run_cli(
        capsys, "regular", "--group", group, "--cocycle", cocycle, "--g", json.dumps(g), "--radius", "1"
    )
    assert (got, json.loads(out)["status"]) == (code, status) and "Traceback" not in err


def test_searches_report_an_exhausted_budget_alike(capsys):
    exhausted = {"bound": 1, "detail": "search budget exhausted", "status": "inconclusive"}
    trivial = ("--cocycle", '{"kind":"trivial"}', "--nodes", "3")
    code, out, _ = run_cli(
        capsys, "verdict", "relative-kleppner", "--subgroup", "center", "--group", '{"family":"bs_nn","n":2}', *trivial
    )
    assert code == 2
    assert json.loads(out) == {"relative_kleppner": exhausted}
    code, out, _ = run_cli(capsys, "verdict", "kleppner", "--group", '{"family":"sum_z"}', *trivial)
    assert code == 2
    assert json.loads(out) == {"kleppner": exhausted}


def test_spectral_r2_and_domination(tmp_path, capsys):
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps([{"g": "a", "re": 1}, {"g": "b", "re": 1}]))
    code, out, _ = run_cli(
        capsys,
        "spectral",
        "r2",
        "--group",
        '{"family":"free","rank":2}',
        "--cocycle",
        '{"kind":"trivial"}',
        "--f",
        str(fpath),
        "--nmax",
        "6",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["squared_norms"][-1] == 64.0
    xipath = tmp_path / "xi.json"
    xipath.write_text(json.dumps([{"g": "", "re": 1}]))
    code, out, _ = run_cli(
        capsys,
        "spectral",
        "domination",
        "--group",
        '{"family":"free","rank":2}',
        "--cocycle",
        '{"kind":"trivial"}',
        "--f",
        str(fpath),
        "--xi",
        str(xipath),
        "--nmax",
        "3",
    )
    assert code == 0
    assert json.loads(out)["all_ok"]


def test_growth_class_on_a_finite_lamplighter_stays_in_its_budget(capsys):
    """Lengths on a finite lamplighter come from a closed form, not from a
    walk over its 30 * 2^30 elements."""
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys,
        "growth",
        "class",
        "--group",
        '{"family":"wreath","base":"Z2","acting":30}',
        "--g",
        '{"x":[0],"k":0}',
        "--radius",
        "2",
        "--nodes",
        "100",
    )
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert json.loads(out)["counts"]


def test_growth_orbit_subcommand(capsys):
    code, out, _ = run_cli(capsys, "growth", "orbit", "--nu1", "[1,5]", "--points", "100")
    assert code == 0
    rep = json.loads(out)
    assert rep["finite_certified"] and rep["orbit_size"] == 5


def test_growth_orbit_second_map(capsys):
    """phi2(z1, z2) = (z1 z2^2, nu2 z2) closes from (0, 0) after three steps
    for nu2 = 1/3: (0, 1/3), (2/3, 2/3), (0, 0)."""
    code, out, _ = run_cli(capsys, "growth", "orbit", "--nu1", "[1,5]", "--nu2", "[1,3]", "--map", "phi2", "--points", "100")
    assert code == 0
    rep = json.loads(out)
    assert rep["which"] == "phi2" and rep["finite_certified"] and rep["orbit_size"] == 3
    for which in ("phi2", "both"):
        code, out, _ = run_cli(capsys, "growth", "orbit", "--nu1", "[1,5]", "--map", which)
        assert code == 1 and json.loads(out)["path"] == "nu2"


def test_growth_orbit_irrational_start_is_not_certified(capsys):
    """Torsion nu does not make the orbit of an irrational start finite; the
    exact orbit walk is skipped and no size is reported."""
    code, out, _ = run_cli(
        capsys,
        "growth",
        "orbit",
        "--nu1",
        "[1,5]",
        "--start",
        '[{"irr":{"r":[1,1]}},[0,1]]',
        "--basis",
        '{"r":0.38}',
        "--points",
        "100",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["finite_certified"] is False
    assert "orbit_size" not in rep


def test_fixtures_and_negative_control(capsys):
    code, out, _ = run_cli(capsys, "fixtures")
    assert code == 0
    assert json.loads(out)["all_match"]
    code, out, _ = run_cli(capsys, "fixtures", "--corrupt", "d_bs_third_kleppner")
    assert code == 1
    rows = json.loads(out)["rows"]
    bad = [r for r in rows if r["fixture"] == "d_bs_third_kleppner"]
    assert bad and not bad[0]["match"]


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("TWISTLAB_BUDGET", "10")
    code, out, _ = run_cli(
        capsys,
        "verdict",
        "kleppner",
        "--group",
        '{"family":"free","rank":2}',
        "--cocycle",
        '{"kind":"trivial"}',
    )
    # budget does not matter for the ICC certificate
    assert code == 0 and json.loads(out)["kleppner"]["status"] == "certified"


def test_determinism_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "fixtures")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    code_a, out_a, _ = run_cli(capsys, "classify", *BS_ARGS)
    code_b, out_b, _ = run_cli(capsys, "classify", *BS_ARGS)
    assert out_a == out_b


SANOV_ARGS = (
    "--group",
    '{"family":"sanov"}',
    "--cocycle",
    '{"kind":"sanov","mu0":{"rat":[0,1],"irr":{"r":[1,1]}},"mu1":[1,3],"mu2":[1,5]}',
    "--basis",
    '{"r":0.38}',
)

_IMPORT_PROBE = """
import contextlib, io, json, os, sys
import twistlab.cli as cli

COMMANDS = {
    "regular": ["regular", *SANOV_ARGS, "--g", '{"v":[1,0],"w":""}', "--radius", "3"],
    "growth class": ["growth", "class", "--group", '{"family":"bs_nn","n":2}', "--g", '"a"', "--radius", "6"],
    "growth orbit": ["growth", "orbit", "--nu1", "[1,5]", "--points", "10"],
    "fixtures": ["fixtures"],
    "spectral norm": ["spectral", "norm", "--group", '{"family":"free","rank":1}',
                      "--cocycle", '{"kind":"trivial"}', "--f", F_PATH, "--radius", "2"],
    "spectral stable-rank": ["spectral", "stable-rank", "--group", '{"family":"free","rank":2}',
                             "--cocycle", '{"kind":"trivial"}', "--f", F_PATH, "--radius", "2"],
}

code = None
if COMMAND:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(COMMANDS[COMMAND])
twistlab = sorted(m.removeprefix("twistlab.") for m in sys.modules if m.startswith("twistlab."))
numeric = sorted(m for m in ("numpy", "numpy.random", "scipy") if m in sys.modules)
openblas = os.environ.get("OPENBLAS_NUM_THREADS")
print(json.dumps({"code": code, "numeric": numeric, "twistlab": twistlab,
                  "dataclasses": "dataclasses" in sys.modules, "openblas": openblas}))
"""

# the twistlab modules that `import twistlab.cli` loads
CLI_MODULES = ["_kernels", "_kernels._pyops", "cli", "cocycles", "errors", "groups", "phase"]
# what a word family's module adds besides itself: the families package and the free words
WORDS = ["families", "words"]
# per command ("" for the import alone): the layers and family modules it adds, and
# which of numpy, numpy.random (about 11 ms to import) and scipy it loads
COMMAND_MODULES = {
    "": ([], []),
    # the sanov cocycle restricts to the half-skew cocycle of zn, its base
    "regular": (["regularity", *WORDS, "families.sanov", "families.zn"], []),
    "growth class": (["growth", *WORDS, "families.bs_nn"], []),
    "growth orbit": (["growth"], []),
    # every family but free and zn_semidirect: those of the fixtures, and zn under sanov
    "fixtures": (
        [
            "fixtures", "regularity", "verdicts", *WORDS, "families.bs_nn", "families.free_times_z",
            "families.sanov", "families.sum_z", "families.sum_z2", "families.wreath", "families.zn",
        ],
        [],
    ),
    "spectral norm": (["spectral", *WORDS, "families.free"], ["numpy"]),
    "spectral stable-rank": (["spectral", *WORDS, "families.free"], ["numpy"]),
}


def _fresh_interpreter(script: str, unset: tuple[str, ...] = (), **setenv: str) -> dict:
    """The JSON object on the last stdout line of `script`, run by a fresh
    interpreter that imports twistlab from this tree, with the environment
    variables named in `unset` removed and those in `setenv` set."""
    import subprocess
    import sys
    from pathlib import Path

    import twistlab

    src = str(Path(twistlab.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for name in unset:
        env.pop(name, None)
    env.update(setenv)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_exact_commands_do_not_import_the_numeric_stack(tmp_path):
    """Each command in a fresh interpreter loads only its own layers and the
    modules of the families it names, the exact commands never load numpy,
    scipy or dataclasses, and the norm commands never load numpy.random.
    With OPENBLAS_NUM_THREADS unset, importing the CLI leaves it unset and
    every command runs with it set to 1."""
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps([{"g": "a", "re": 1}, {"g": "A", "re": 1}]))
    for command, (layers, numeric) in COMMAND_MODULES.items():
        script = f"SANOV_ARGS = {SANOV_ARGS!r}\nF_PATH = {str(fpath)!r}\nCOMMAND = {command!r}\n" + _IMPORT_PROBE
        want = {
            "code": 0 if command else None,
            "numeric": numeric,
            "twistlab": sorted(CLI_MODULES + layers),
            "dataclasses": False,
            "openblas": "1" if command else None,
        }
        got = _fresh_interpreter(script, unset=("OPENBLAS_NUM_THREADS",))
        if numeric:  # what numpy's own imports load is not the package's to pin
            del want["dataclasses"], got["dataclasses"]
        assert got == want, command


@pytest.mark.parametrize("user, want", [(None, "1"), ("3", "3")], ids=["unset", "user_value"])
def test_main_runs_openblas_on_one_thread_unless_the_user_set_it(user, want, capsys, monkeypatch):
    """`main` sets OPENBLAS_NUM_THREADS to 1 when it is unset and keeps a
    value the user set.  Teardown undoes the delenv, then the setenv, so it
    also removes what `main` set."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", user or "")
    if user is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    code, _, _ = run_cli(capsys, "growth", "orbit", "--nu1", "[1,5]", "--points", "1")
    assert code == 0 and os.environ["OPENBLAS_NUM_THREADS"] == want


def test_an_in_process_main_call_sets_openblas_threads(capsys):
    """The next test checks that this test's setting does not outlive it."""
    code, _, _ = run_cli(capsys, "growth", "orbit", "--nu1", "[1,5]", "--points", "1")
    assert code == 0 and os.environ.get("OPENBLAS_NUM_THREADS") == (SESSION_OPENBLAS_THREADS or "1")


def test_a_later_test_sees_the_session_openblas_threads():
    assert os.environ.get("OPENBLAS_NUM_THREADS") == SESSION_OPENBLAS_THREADS


_HASH_SEED_PROBE = """
import contextlib, io, json
import twistlab.cli as cli

outputs = []
for argv in ARGVS:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    outputs.append([code, out.getvalue()])
print(json.dumps(outputs))
"""


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    """Word payloads are bytes, whose hashes the hash seed salts: an order
    read off a set of payloads would differ between these two interpreters."""
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps([{"g": {"w": w, "k": k}, "re": 1} for w, k in (("a", 0), ("b", 0), ("", 1), ("B", 0))]))
    argvs = [
        ["spectral", "r2", "--group", '{"family":"free_times_z"}', "--cocycle", '{"kind":"f2xz","mu":[1,4],"nu":[1,2]}',
         "--f", str(fpath), "--nmax", "4"],
        ["regular", *SANOV_ARGS, "--g", '{"v":[0,0],"w":"a a"}', "--radius", "3"],
        ["growth", "class", "--group", '{"family":"free","rank":2}', "--g", '"a b"', "--radius", "5"],
    ]
    script = f"ARGVS = {argvs!r}\n" + _HASH_SEED_PROBE
    first, second = (_fresh_interpreter(script, PYTHONHASHSEED=seed) for seed in ("1", "2"))
    assert [code for code, _ in first] == [0, 0, 0]
    assert first == second


def test_a_family_loads_only_its_own_module():
    """Building a bs_nn pair imports the bs_nn module and the free words,
    and no other family's module: the spec tables load a family on first use."""
    script = (
        "import json, sys\n"
        "from twistlab.cocycles import build_cocycle\n"
        "from twistlab.groups import get_group\n"
        "G = get_group({'family': 'bs_nn', 'n': 2})\n"
        "sigma = build_cocycle({'kind': 'bs', 'lambda': [1, 3]}, G)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('twistlab.families', 'twistlab.words')))))\n"
    )
    assert _fresh_interpreter(script) == ["twistlab.families", "twistlab.families.bs_nn", "twistlab.words"]


def test_cli_sweep_matches_its_reference():
    """Each of the sweep's runs prints what its reference digest says.  The
    sweep's docstring says how to regenerate the reference after a change
    that alters an output on purpose."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import cli_sweep

    root = Path(cli_sweep.__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=path)
    cmd = [sys.executable, str(root / "tests" / "cli_sweep.py"), "--digests"]
    got = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=root, check=True).stdout.split()
    want = (root / "tests" / "cli_sweep_digests.txt").read_text().split()
    argvs = list(cli_sweep.argvs())
    assert len(want) == len(argvs), "the reference lists another set of runs than the sweep makes"
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), len(got))
    assert got == want, f"run {first} of {len(want)} differs from the reference: {argvs[min(first, len(argvs) - 1)]}"


def test_zero_denominator_phase_is_spec_error(capsys):
    code, out, err = run_cli(
        capsys,
        "regular",
        "--group",
        '{"family":"sum_z"}',
        "--cocycle",
        '{"kind":"theta_diag","diagonals":[],"period":[[1,0]]}',
        "--g",
        '{"0":1}',
    )
    assert code == 1
    rep = json.loads(out)
    assert "[1, 0]" in rep["error"] and "zero denominator" in rep["error"]
    assert "specification error" in err


def test_free_group_rank_above_eight_is_spec_error(capsys):
    code, out, _ = run_cli(
        capsys, "verdict", "kleppner", "--group", '{"family":"free","rank":9}', "--cocycle", '{"kind":"trivial"}'
    )
    assert code == 1
    assert json.loads(out) == {"error": "group.rank: free group rank must be between 1 and 8", "path": "group.rank"}


def test_relative_kleppner_sanov_base_with_candidate(capsys):
    code, out, _ = run_cli(
        capsys,
        "verdict",
        "relative-kleppner",
        "--subgroup",
        "base",
        *SANOV_ARGS,
        "--candidates",
        '[{"v":[1,0],"w":""}]',
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["relative_kleppner"]["status"] == "certified"
    assert rep["relative_kleppner"]["rule"] == "sanov_relk"


TRIVIAL_ON_Z = ("--group", '{"family":"zn","n":1}', "--cocycle", '{"kind":"trivial"}')


@pytest.mark.parametrize(
    "argv, env, path",
    [
        (("verdict", "kleppner", "--group", '{"family":"bs_nn","n":2}', "--cocycle", '{"kind":"bs","lambda":{"irr":3}}'), {}, "cocycle.lambda"),
        (("verdict", "kleppner", "--group", '{"family":"free","rank":"x"}', "--cocycle", '{"kind":"trivial"}'), {}, "group.rank"),
        (("verdict", "kleppner", "--group", '{"family":"bs_nn","n":"x"}', "--cocycle", '{"kind":"trivial"}'), {}, "group.n"),
        (("verdict", "kleppner", "--group", '{"family":"zn","n":"x"}', "--cocycle", '{"kind":"trivial"}'), {}, "group.n"),
        (("verdict", "kleppner", *TRIVIAL_ON_Z), {"TWISTLAB_BUDGET": "abc"}, "TWISTLAB_BUDGET"),
        (("verdict", "kleppner", "--group", '{"family":"zn","n":2}', "--cocycle", '{"kind":"antisym_theta"}'), {}, "cocycle.theta"),
        (("verdict", "kleppner", "--group", '{"family":"bs_nn","n":2}', "--cocycle", '{"kind":"antisym_theta","theta":[1,3]}'), {}, "cocycle"),
        (("spectral", "norm", *TRIVIAL_ON_Z, "--f", "{missing}"), {}, "f"),
        (("spectral", "norm", *TRIVIAL_ON_Z, "--f", "{no_g}"), {}, "f[0].g"),
        (("spectral", "norm", *TRIVIAL_ON_Z, "--f", "{re_text}"), {}, "f[0]"),
        (("spectral", "norm", *TRIVIAL_ON_Z, "--f", "{not_list}"), {}, "f"),
        (("verdict", "kleppner", "--group", '{"family":"sum_z"}', "--cocycle", '{"kind":"theta_window","entries":[[1,2]]}'), {}, "cocycle.entries[0]"),
        (("verdict", "kleppner", "--group", '{"family":"zn","n":-2}', "--cocycle", '{"kind":"trivial"}'), {}, "group.n"),
        (("growth", "orbit", "--nu1", "[1,5]", "--start", "5"), {}, "start"),
        (("growth", "orbit", "--nu1", "[1,5]", "--start", "[[0,1]]"), {}, "start"),
        (("growth", "orbit", "--nu1", "[1,5]", "--points", "0"), {}, "points"),
        (("verdict", "kleppner", *TRIVIAL_ON_Z, "--candidates", "5"), {}, "candidates"),
        (("growth", "class", "--group", '{"family":"zn","n":1}', "--g", "[1]", "--degrees", "3"), {}, "degrees"),
        (("growth", "class", "--group", '{"family":"zn","n":1}', "--g", "[1]", "--degrees", '"x"'), {}, "degrees"),
        (("growth", "class", "--group", '{"family":"zn","n":1}', "--g", "[1]", "--kappa", "(1+L)^abc"), {}, "kappa"),
        (("growth", "class", "--group", '{"family":"free","rank":2}', "--g", '"a"', "--kappa", "(1+L)^-5"), {}, "kappa"),
        (("verdict", "kleppner", "--group", '{"family":"free","rank":9}', "--cocycle", '{"kind":"trivial"}'), {}, "group.rank"),
        (("growth", "class", "--group", '{"family":"free","rank":2}', "--g", '"a"', "--radius", "-1"), {}, "radius"),
        (("verdict", "condition-x", "--group", '{"family":"bs_nn","n":2}', "--cocycle", '{"kind":"trivial"}', "--subgroup", "center"), {}, "subgroup"),
        (("spectral", "r2", *TRIVIAL_ON_Z, "--f", "{huge}"), {}, "f"),
        (("spectral", "domination", *TRIVIAL_ON_Z, "--f", "{huge}", "--xi", "{huge}"), {}, "f"),
        (("verdict", "kleppner", "--group", '{"family":"sum_z2","modulus":"x"}', "--cocycle", '{"kind":"trivial"}'), {}, "group.modulus"),
        (("verdict", "kleppner", "--group", '{"family":"sum_z2","modulus":0}', "--cocycle", '{"kind":"trivial"}'), {}, "group.modulus"),
        (("verdict", "kleppner", "--group", '{"family":"sum_z2","modulus":-2}', "--cocycle", '{"kind":"trivial"}'), {}, "group.modulus"),
        (("verdict", "kleppner", "--group", '{"family":"wreath","base":"Z2","acting":"x"}', "--cocycle", '{"kind":"trivial"}'), {}, "group.acting"),
        (("verdict", "kleppner", "--group", '{"family":"wreath","base":"Z2","acting":0}', "--cocycle", '{"kind":"trivial"}'), {}, "group.acting"),
        (("verdict", "kleppner", "--group", '{"family":"wreath","base":"Z2","acting":-3}', "--cocycle", '{"kind":"trivial"}'), {}, "group.acting"),
        (("verdict", "kleppner", "--group", '{"family":"wreath","base":"Q"}', "--cocycle", '{"kind":"trivial"}'), {}, "group.base"),
        (("verdict", "kleppner", "--group", '{"family":"wreath","base":"Z","acting":3}', "--cocycle", '{"kind":"trivial"}'), {}, "group.acting"),
        (("verdict", "kleppner", "--group", '{"family":"zn_semidirect","A":"x"}', "--cocycle", '{"kind":"trivial"}'), {}, "group.A"),
        (("verdict", "kleppner", "--group", '{"family":"zn_semidirect","A":[[1,"x"],[0,1]]}', "--cocycle", '{"kind":"trivial"}'), {}, "group.A"),
        (("verdict", "kleppner", "--group", '{"family":"zn_semidirect","A":[[1,1.5],[0,1]]}', "--cocycle", '{"kind":"trivial"}'), {}, "group.A"),
        (("verdict", "kleppner", "--group", '{"family":"zn_semidirect","A":[[2,0],[0,1]]}', "--cocycle", '{"kind":"trivial"}'), {}, "group.A"),
        (("verdict", "kleppner", "--group", '{"family":"sum_z"}', "--cocycle", '{"kind":"theta_window","entries":[["x",2,[0,1]]]}'), {}, "cocycle.entries[0]"),
        (("verdict", "kleppner", "--group", '{"family":"sum_z"}', "--cocycle", '{"kind":"theta_window","entries":[[1.5,2,[0,1]]]}'), {}, "cocycle.entries[0]"),
        (("verdict", "kleppner", "--group", '{"family":"sum_z"}', "--cocycle", '{"kind":"theta_window","entries":5}'), {}, "cocycle.entries"),
        (("verdict", "kleppner", "--group", '{"family":"sum_z2"}', "--cocycle", '{"kind":"bitstream","pre":5}'), {}, "cocycle.pre"),
        (("verdict", "kleppner", "--group", '{"family":"sum_z2"}', "--cocycle", '{"kind":"bitstream","period":[2]}'), {}, "cocycle.period"),
        (("verdict", "kleppner", "--group", '{"family":"sum_z"}', "--cocycle", '{"kind":"theta_diag","diagonals":5}'), {}, "cocycle.diagonals"),
        (("verdict", "kleppner", "--group", '{"family":"sum_z"}', "--cocycle", '{"kind":"theta_diag","period":5}'), {}, "cocycle.period"),
        (("growth", "class", "--group", '{"family":"zn","n":1}', "--g", "[1]", "--radius", "-1"), {}, "radius"),
        (("growth", "class", "--group", '{"family":"zn","n":1}', "--g", "[1]", "--degrees", '["x"]'), {}, "degrees"),
        (("regular", "--group", '{"family":"sum_z2"}', "--cocycle", '{"kind":"trivial"}', "--g", "[1,1]"), {}, "g"),
        (("regular", "--group", '{"family":"zn","n":2}', "--cocycle", '{"kind":"trivial"}', "--g", "[1]"), {}, "g"),
        (("regular", "--group", '{"family":"wreath","base":"Z2"}', "--cocycle", '{"kind":"trivial"}', "--g", "[1]"), {}, "g"),
        (("regular", "--group", '{"family":"zn_semidirect","A":[[2,1],[1,1]]}', "--cocycle", '{"kind":"trivial"}', "--g", "[1]"), {}, "g"),
        (("regular", "--group", '{"family":"free","rank":2}', "--cocycle", '{"kind":"trivial"}', "--g", '"a z"'), {}, "g"),
        (("regular", "--group", '{"family":"free","rank":2}', "--cocycle", '{"kind":"trivial"}', "--g", "5"), {}, "g"),
        (("regular", "--group", '{"family":"sanov"}', "--cocycle", '{"kind":"trivial"}', "--g", "5"), {}, "g"),
        (("regular", "--group", '{"family":"bs_nn","n":2}', "--cocycle", '{"kind":"trivial"}', "--g", "5"), {}, "g"),
        (("regular", "--group", '{"family":"free_times_z"}', "--cocycle", '{"kind":"trivial"}', "--g", "5"), {}, "g"),
        (("verdict", "kleppner", "--group", '{"family":"zn_semidirect"}', "--cocycle", '{"kind":"trivial"}'), {}, "group.A"),
        (("verdict", "kleppner", "--group", '{"family":"sum_z"}', "--cocycle", '{"kind":"theta_rule","rule":"nope"}'), {}, "cocycle.rule"),
        (("verdict", "kleppner", "--group", '{"family":"sum_z"}', "--cocycle", '{"kind":"theta_rule"}'), {}, "cocycle.rule"),
        (("verdict", "kleppner", "--group", '{"family":"zn_semidirect","A":[[1,1],[1,0]]}', "--cocycle", '{"kind":"lift","base":{"kind":"half_skew","mu0":[1,3]}}'), {}, "cocycle.base"),
        (("verdict", "kleppner", "--group", '{"family":"sum_z"}', "--cocycle", '{"kind":"theta_diag","diagonal":[[1,3]]}'), {}, "cocycle.diagonal"),
        (("verdict", "kleppner", "--group", '{"family":"bs_nn","n":2}', "--cocycle", '{"kind":"bs","lambda":{"rat":[0,1],"irr":null}}'), {}, "cocycle.lambda"),
        (("verdict", "kleppner", "--group", '{"family":"bs_nn","n":2,"m":5}', "--cocycle", '{"kind":"trivial"}'), {}, "group.m"),
        (("verdict", "kleppner", "--group", '{"family":"sum_z"}', "--cocycle", '{"kind":"theta_rule","rule":null}'), {}, "cocycle.rule"),
        (("verdict", "kleppner", "--group", '{"family":"bs_nn","n":2}', "--cocycle", '{"kind":"bs","lambda":{"rational":[1,3]}}'), {}, "cocycle.lambda"),
        (("verdict", "kleppner", "--group", '{"family":"bs_nn","n":1}', "--cocycle", '{"kind":"trivial"}'), {}, "group.n"),
        (("verdict", "kleppner", "--group", '{"family":"bs_nn","n":2}', "--cocycle", '{"kind":"bs","lambda":[true,3]}'), {}, "cocycle.lambda"),
        (("verdict", "kleppner", "--group", '{"family":"zn","n":2,"z":1,"b":2}', "--cocycle", '{"kind":"trivial"}'), {}, "group.b"),
        (("verdict", "kleppner", "--group", '{"family":"sum_z2","modulus":null}', "--cocycle", '{"kind":"trivial"}'), {}, "group.modulus"),
        (("verdict", "kleppner", "--group", '{"family":"wreath"}', "--cocycle", '{"kind":"lift","base":{"kind":"theta_diag","diagonal":[]}}'), {}, "cocycle.base.diagonal"),
        (("verdict", "kleppner", "--group", '{"family":"free_times_z"}', "--cocycle", '{"kind":"product","left":{"kind":"bs","lambda":[1,3]},"right":{"kind":"trivial"}}'), {}, "cocycle.left.kind"),
        (("regular", "--group", '{"family":"wreath"}', "--cocycle", '{"kind":"trivial"}', "--g", '{"x":{"0":1},"k":1.7}'), {}, "g"),
        (("regular", "--group", '{"family":"wreath"}', "--cocycle", '{"kind":"trivial"}', "--g", '{"x":{"0":1},"k":"2"}'), {}, "g"),
        (("regular", "--group", '{"family":"sum_z"}', "--cocycle", '{"kind":"trivial"}', "--g", '{"0":1.5}'), {}, "g"),
        (("regular", "--group", '{"family":"sum_z"}', "--cocycle", '{"kind":"trivial"}', "--g", '{"1":1,"01":1}'), {}, "g"),
        (("regular", "--group", '{"family":"zn","n":1}', "--cocycle", '{"kind":"trivial"}', "--g", "[1.5]"), {}, "g"),
        (("regular", "--group", '{"family":"sum_z2"}', "--cocycle", '{"kind":"trivial"}', "--g", "[1.5]"), {}, "g"),
        (("regular", "--group", '{"family":"sanov"}', "--cocycle", '{"kind":"trivial"}', "--g", '{"v":[1.5,0],"w":""}'), {}, "g"),
        (("regular", "--group", '{"family":"sanov"}', "--cocycle", '{"kind":"trivial"}', "--g", '{"v":[1,0],"w":5}'), {}, "g"),
        (("regular", "--group", '{"family":"free_times_z"}', "--cocycle", '{"kind":"trivial"}', "--g", '{"w":5,"k":1}'), {}, "g"),
        (("regular", "--group", '{"family":"zn_semidirect","A":[[2,1],[1,1]]}', "--cocycle", '{"kind":"trivial"}', "--g", '{"v":[1],"k":1}'), {}, "g"),
        (("regular", "--group", '{"family":"wreath"}', "--cocycle", '{"kind":"trivial"}', "--g", '{"x":{},"k":0,"y":1}'), {}, "g"),
        (("regular", "--group", '{"family":"zn_semidirect","A":[[2,1],[1,1]]}', "--cocycle", '{"kind":"trivial"}', "--g", '{"v":[1,0],"k":0,"w":""}'), {}, "g"),
        (("regular", "--group", '{"family":"sanov"}', "--cocycle", '{"kind":"trivial"}', "--g", '{"v":[1,0],"w":"","k":0}'), {}, "g"),
        (("regular", "--group", '{"family":"free_times_z"}', "--cocycle", '{"kind":"trivial"}', "--g", '{"w":"a","k":1,"v":[]}'), {}, "g"),
        (("spectral", "r2", *TRIVIAL_ON_Z, "--f", "{unknown_part}"), {}, "f[0]"),
        (("spectral", "r2", *TRIVIAL_ON_Z, "--f", "{null_part}"), {}, "f[0]"),
        (("verdict", "kleppner", "--group", '{"family":"sum_z"}', "--cocycle", '{"kind":"theta_window","entries":[[0,1,[1,3]],[0,1,[1,2]]]}'), {}, "cocycle.entries[1]"),
        (("verdict", "kleppner", "--group", '{"family":"sum_z2"}', "--cocycle", '{"kind":"bitstream","pre":[true]}'), {}, "cocycle.pre[0]"),
        (("verdict", "kleppner", "--group", '{"family":"sum_z2"}', "--cocycle", '{"kind":"bitstream","pre":[1.0]}'), {}, "cocycle.pre[0]"),
        (("verdict", "kleppner", "--group", '{"family":"wreath"}', "--cocycle", '{"kind":"lift","base":{"kind":"theta_rule","rule":"nope"}}'), {}, "cocycle.base.rule"),
        (("verdict", "kleppner", "--group", '{"family":"wreath","base":"Z2"}', "--cocycle", '{"kind":"lift","base":{"kind":"bitstream","pre":[2]}}'), {}, "cocycle.base.pre"),
        (("spectral", "r2", *TRIVIAL_ON_Z, "--f", "{unit}", "--nmax", "0"), {}, "nmax"),
        (("spectral", "r2", *TRIVIAL_ON_Z, "--f", "{unit}", "--nmax", "-3"), {}, "nmax"),
        (("spectral", "domination", *TRIVIAL_ON_Z, "--f", "{unit}", "--xi", "{unit}", "--nmax", "0"), {}, "nmax"),
        (("spectral", "domination", *TRIVIAL_ON_Z, "--f", "{unit}", "--xi", "{unit}", "--nmax", "-3"), {}, "nmax"),
        (("verdict", "kleppner", *TRIVIAL_ON_Z, "--radius", "-1"), {}, "radius"),
        (("verdict", "relative-kleppner", *TRIVIAL_ON_Z, "--subgroup", "full", "--radius", "-1"), {}, "radius"),
        (("verdict", "condition-x", *TRIVIAL_ON_Z, "--subgroup", "full", "--radius", "-1"), {}, "radius"),
        (("classify", *TRIVIAL_ON_Z, "--radius", "-1"), {}, "radius"),
        (("regular", *TRIVIAL_ON_Z, "--g", "[1]", "--radius", "-1"), {}, "radius"),
        (("spectral", "stable-rank", *TRIVIAL_ON_Z, "--f", "{unit}", "--search-radius", "-1"), {}, "search-radius"),
        (("spectral", "stable-rank", *TRIVIAL_ON_Z, "--f", "{unit}", "--radius", "-1"), {}, "radius"),
        (("spectral", "norm", *TRIVIAL_ON_Z, "--f", "{unit}", "--tol", "nan"), {}, "tol"),
        (("spectral", "norm", *TRIVIAL_ON_Z, "--f", "{unit}", "--tol", "-1"), {}, "tol"),
        (("spectral", "stable-rank", *TRIVIAL_ON_Z, "--f", "{unit}", "--tol", "nan"), {}, "tol"),
        (("spectral", "stable-rank", *TRIVIAL_ON_Z, "--f", "{unit}", "--tol", "-0.5"), {}, "tol"),
        (("fixtures", "--radius", "-1"), {}, "radius"),
        (("fixtures", "--corrupt", "nope"), {}, "corrupt"),
    ],
    ids=[
        "irr_not_object",
        "free_rank_str",
        "bs_n_str",
        "zn_n_str",
        "budget_env_str",
        "theta_missing",
        "antisym_on_bs",
        "missing_f_file",
        "f_row_without_g",
        "f_re_not_number",
        "f_not_list",
        "theta_window_pair",
        "zn_n_negative",
        "orbit_start_int",
        "orbit_start_single",
        "orbit_points_zero",
        "candidates_int",
        "degrees_int",
        "degrees_str",
        "kappa_exponent_text",
        "kappa_exponent_negative",
        "free_rank_nine",
        "class_radius_negative",
        "condition_x_no_metadata",
        "r2_square_overflow",
        "domination_square_overflow",
        "sum_z2_modulus_str",
        "sum_z2_modulus_zero",
        "sum_z2_modulus_negative",
        "wreath_acting_str",
        "wreath_acting_zero",
        "wreath_acting_negative",
        "wreath_base_unknown",
        "wreath_acting_on_base_z",
        "semidirect_matrix_str",
        "semidirect_entry_str",
        "semidirect_entry_float",
        "semidirect_det_two",
        "theta_window_index_str",
        "theta_window_index_float",
        "theta_window_entries_int",
        "bitstream_pre_int",
        "bitstream_period_bit_two",
        "theta_diag_diagonals_int",
        "theta_diag_period_int",
        "abelian_class_radius_negative",
        "degrees_entry_str",
        "sum_z2_element_repeated_index",
        "zn_element_short",
        "wreath_element_not_object",
        "semidirect_element_not_object",
        "free_element_bad_letter",
        "free_element_not_str",
        "sanov_element_not_object",
        "bs_element_not_str",
        "free_times_z_element_not_object",
        "semidirect_matrix_missing",
        "theta_rule_unknown",
        "theta_rule_missing",
        "skew_lift_det_minus_one",
        "theta_diag_key_misspelled",
        "phase_irr_null",
        "bs_nn_unknown_key",
        "theta_rule_null",
        "phase_key_misspelled",
        "bs_nn_n_one",
        "phase_ratio_bool",
        "first_unknown_key_in_sorted_order",
        "sum_z2_modulus_null",
        "lift_base_key_misspelled",
        "product_left_on_the_wrong_family",
        "wreath_element_k_float",
        "wreath_element_k_str",
        "sum_z_element_value_float",
        "sum_z_element_index_repeated",
        "zn_element_float",
        "sum_z2_element_float",
        "sanov_element_vector_float",
        "sanov_element_word_int",
        "free_times_z_element_word_int",
        "semidirect_element_vector_short",
        "wreath_element_unknown_key",
        "semidirect_element_unknown_key",
        "sanov_element_unknown_key",
        "free_times_z_element_unknown_key",
        "f_row_unknown_key",
        "f_row_null_part",
        "theta_window_entry_repeated",
        "bitstream_bit_bool",
        "bitstream_bit_float",
        "nested_theta_rule_unknown",
        "nested_bitstream_bit_two",
        "r2_nmax_zero",
        "r2_nmax_negative",
        "domination_nmax_zero",
        "domination_nmax_negative",
        "kleppner_radius_negative",
        "relative_kleppner_radius_negative",
        "condition_x_radius_negative",
        "classify_radius_negative",
        "regular_radius_negative",
        "stable_rank_search_radius_negative",
        "stable_rank_radius_negative",
        "norm_tol_nan",
        "norm_tol_negative",
        "stable_rank_tol_nan",
        "stable_rank_tol_negative",
        "fixtures_radius_negative",
        "fixtures_corrupt_unknown",
    ],
)
def test_bad_inputs_are_json_spec_errors(argv, env, path, tmp_path, monkeypatch, capsys):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    files = {"missing": None, "no_g": '[{"re":1}]', "re_text": '[{"g":[1],"re":"x"}]', "not_list": '{"g":[1]}'}
    files["huge"] = '[{"g":[1],"re":1e308,"im":1e308}]'  # finite parts, squared modulus past the float range
    files["unknown_part"], files["null_part"] = '[{"g":[1],"c":[1,0]}]', '[{"g":[1],"re":null}]'
    files["unit"] = '[{"g":[1],"re":1}]'
    for name, text in files.items():
        if text is not None:
            (tmp_path / f"{name}.json").write_text(text)
        argv = [a.replace("{" + name + "}", str(tmp_path / f"{name}.json")) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    rep = json.loads(out)
    assert set(rep) == {"error", "path"}
    assert rep["path"] == path
    assert "Traceback" not in err


def _bad_int(option: str, value: str = "-1e3") -> str:
    return f"argv: argument --{option}: invalid int value: '{value}'"


@pytest.mark.parametrize(
    "argv, error",
    [
        (("verdict", "kleppner", *TRIVIAL_ON_Z, "--radius", "-1e3"), _bad_int("radius")),
        (("verdict", "kleppner", *TRIVIAL_ON_Z, "--nodes", "-1E+3"), _bad_int("nodes", "-1E+3")),
        (("spectral", "norm", *TRIVIAL_ON_Z, "--f", "{unit}", "--seed", "-1e3"), _bad_int("seed")),
        (
            ("spectral", "norm", *TRIVIAL_ON_Z, "--f", "{unit}", "--tol", "-1e-3"),
            "tol: the tolerance must be a nonnegative number, got -0.001",
        ),
        (("spectral", "r2", *TRIVIAL_ON_Z, "--f", "{unit}", "--nmax", "-1e3"), _bad_int("nmax")),
        (("spectral", "stable-rank", *TRIVIAL_ON_Z, "--f", "{unit}", "--search-radius", "-1e3"), _bad_int("search-radius")),
        (("growth", "class", "--group", '{"family":"zn","n":1}', "--g", "[1]", "--kmax", "-1e3"), _bad_int("kmax")),
        (("growth", "decay", *TRIVIAL_ON_Z, "--M", "-1e3"), "M: the decay bound must be positive"),
        (("growth", "decay", *TRIVIAL_ON_Z, "--trials", "-1e3"), _bad_int("trials")),
        (("growth", "orbit", "--nu1", "[1,5]", "--points", "-.5e1"), _bad_int("points", "-.5e1")),
    ],
    ids=["radius", "nodes", "seed", "tol", "nmax", "search_radius", "kmax", "M", "trials", "points"],
)
def test_a_negative_number_with_an_exponent_is_the_option_value(argv, error, tmp_path, capsys):
    """Each numeric option reads such a token as its value, which its own
    check then refuses: the token is not taken for an unknown option."""
    (tmp_path / "unit.json").write_text('[{"g":[1],"re":1}]')
    code, out, err = run_cli(capsys, *(a.replace("{unit}", str(tmp_path / "unit.json")) for a in argv))
    assert code == 1 and "Traceback" not in err
    assert json.loads(out) == {"error": error, "path": error.partition(":")[0]}


@pytest.mark.parametrize(
    "argv",
    [
        ("fixtures", "--seed", "1"),
        ("classify", *TRIVIAL_ON_Z, "--tol", "1e-3"),
        ("verdict", "condition-x", *TRIVIAL_ON_Z, "--subgroup", "center", "--candidates", "[]"),
        ("spectral", "r2", *TRIVIAL_ON_Z, "--f", "f.json", "--radius", "3"),
        ("growth", "class", "--group", '{"family":"zn","n":1}', "--g", "[1]", "--cocycle", '{"kind":"trivial"}'),
        ("growth", "orbit", "--nu1", "[1,5]", "--radius", "3"),
    ],
    ids=["fixtures_seed", "classify_tol", "condition_x_candidates", "r2_radius", "class_cocycle", "orbit_radius"],
)
def test_options_a_command_does_not_read_are_usage_errors(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    rep = json.loads(out)
    assert rep["path"] == "argv" and "unrecognized arguments" in rep["error"]
    assert "Traceback" not in err


def test_budget_env_is_ignored_without_a_budget(capsys, monkeypatch):
    monkeypatch.setenv("TWISTLAB_BUDGET", "abc")
    code, out, _ = run_cli(capsys, "growth", "orbit", "--nu1", "[1,5]", "--points", "10")
    assert code == 0 and json.loads(out)["finite_certified"]


def test_relative_kleppner_trivial_subgroup_honours_the_budget(capsys):
    """Any generator refutes the relative condition over the trivial
    subgroup; a radius-1 ball past the budget is not enumerated for it."""
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys,
        "verdict",
        "relative-kleppner",
        "--subgroup",
        "trivial",
        "--group",
        '{"family":"sum_z2","modulus":2000000}',
        "--cocycle",
        '{"kind":"trivial"}',
        "--nodes",
        "50",
    )
    assert time.perf_counter() - start < 5.0
    assert code == 0
    rep = json.loads(out.splitlines()[0])["relative_kleppner"]
    assert rep["status"] == "refuted" and rep["rule"] == "relk_trivial"
    assert rep["witness"] == [0]


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch):
    """`main` builds its parser once: a sequence of calls with usage errors
    between them gives each call the stdout and exit code of a fresh
    process, and no parser is built after the first call."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import twistlab
    from twistlab import cli

    usage_error = ["verdict", "relative-kleppner", *BS_ARGS]  # no --subgroup
    sequence = [
        usage_error,
        ["verdict", "relative-kleppner", "--subgroup", "center", *BS_ARGS],
        ["fixtures"],
        usage_error,
        ["classify", *BS_ARGS],
    ]
    built = []
    init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__", lambda self, *a, **k: built.append(self) or init(self, *a, **k))
    cli._parser.cache_clear()
    runs = []
    for i, argv in enumerate(sequence):
        runs.append(run_cli(capsys, *argv)[:2])
        if i == 0:
            first = len(built)
    assert first > 0 and len(built) == first
    assert [code for code, _ in runs] == [1, 0, 0, 1, 0]

    src = str(Path(twistlab.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for argv, run in zip(sequence, runs):
        proc = subprocess.run([sys.executable, "-m", "twistlab.cli", *argv], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == run, argv
