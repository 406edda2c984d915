"""Command-line interface: dispatch, exit codes, determinism."""

import json
import math

import pytest

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


def test_growth_orbit_subcommand(capsys):
    code, out, _ = run_cli(capsys, "growth", "orbit", "--nu1", "[1,5]", "--points", "100")
    assert code == 0
    rep = json.loads(out)
    assert rep["finite_certified"] and rep["orbit_size"] == 5


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
import contextlib, io, json, sys
import twistlab.cli as cli

def loaded():
    return sorted(m for m in ("numpy", "scipy") if m in sys.modules)

seen, codes = {"import": loaded()}, []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes.append(cli.main(["regular", *SANOV_ARGS, "--g", '{"v":[1,0],"w":""}', "--radius", "3"]))
    codes.append(cli.main(["growth", "class", "--group", '{"family":"bs_nn","n":2}', "--g", '"a"', "--radius", "6"]))
    codes.append(cli.main(["fixtures"]))
    seen["exact"] = loaded()
    codes.append(cli.main(["spectral", "norm", "--group", '{"family":"free","rank":1}',
                           "--cocycle", '{"kind":"trivial"}', "--f", F_PATH, "--radius", "2"]))
    seen["norm"] = loaded()
print(json.dumps({"seen": seen, "codes": codes}))
"""


def test_exact_commands_do_not_import_the_numeric_stack(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import twistlab

    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps([{"g": "a", "re": 1}, {"g": "A", "re": 1}]))
    src = str(Path(twistlab.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = f"SANOV_ARGS = {SANOV_ARGS!r}\nF_PATH = {str(fpath)!r}\n" + _IMPORT_PROBE
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rep["codes"] == [0, 0, 0, 0]
    assert rep["seen"] == {"import": [], "exact": [], "norm": ["numpy", "scipy"]}


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
    ],
)
def test_bad_inputs_are_json_spec_errors(argv, env, path, tmp_path, monkeypatch, capsys):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    files = {"missing": None, "no_g": '[{"re":1}]', "re_text": '[{"g":[1],"re":"x"}]', "not_list": '{"g":[1]}'}
    files["huge"] = '[{"g":[1],"re":1e308,"im":1e308}]'  # finite parts, squared modulus past the float range
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
