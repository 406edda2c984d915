"""The workloads' jobs: what each one asks twistlab, how a child process runs
it, and how the parent checks its output against a reference.

A job is a JSON-able dict.  ``kind`` is ``cli`` (argv for
``twistlab.cli.main``) or a library call (``r2``, ``classify``,
``generators``, ``box``, ``kleppner``).  ``check`` names the checker and
``ref`` carries the reference value with its source.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

R = {"rat": [0, 1], "irr": {"r": [1, 1]}}
ONE_MINUS_R = {"rat": [1, 1], "irr": {"r": [-1, 1]}}
BASIS = {"r": 0.3819660112501051}
TRIVIAL = {"kind": "trivial"}
PERIOD4 = {"kind": "theta_diag", "diagonals": [], "period": [R, [0, 1], ONE_MINUS_R, [0, 1]]}

FREE1 = {"family": "free", "rank": 1}
FREE2 = {"family": "free", "rank": 2}
SANOV = {"family": "sanov"}
F2XZ = {"family": "free_times_z"}
BS22 = {"family": "bs_nn", "n": 2}
WREATH = {"family": "wreath", "base": "Z"}
SUM_Z = {"family": "sum_z"}

SANOV_TWIST = {"kind": "sanov", "mu0": R, "mu1": [1, 3], "mu2": [1, 5]}

# standard generators with inverses, as element literals
GENERATORS = {
    "free2": ["a", "A", "b", "B"],
    "sanov": [
        {"v": [1, 0], "w": ""},
        {"v": [-1, 0], "w": ""},
        {"v": [0, 1], "w": ""},
        {"v": [0, -1], "w": ""},
        {"v": [0, 0], "w": "a"},
        {"v": [0, 0], "w": "A"},
        {"v": [0, 0], "w": "b"},
        {"v": [0, 0], "w": "B"},
    ],
    "f2xz": [
        {"w": "a", "k": 0},
        {"w": "A", "k": 0},
        {"w": "b", "k": 0},
        {"w": "B", "k": 0},
        {"w": "", "k": 1},
        {"w": "", "k": -1},
    ],
    "bs22": ["a", "A", "b", "B"],
}

# coefficient files for `spectral` commands: the indicator of a finite set
COEFFS = {name: [{"g": g, "re": 1.0} for g in gens] for name, gens in GENERATORS.items()}
COEFFS["free2_e_a"] = [{"g": "", "re": 1.0}, {"g": "a", "re": 1.0}]


def _cli(job_id: str, argv: list, check: str, ref=None, coeffs: str | None = None, seeded=False) -> dict:
    argv = [a if isinstance(a, str) else json.dumps(a) for a in argv]
    return {"id": job_id, "kind": "cli", "argv": argv, "coeffs": coeffs, "seeded": seeded, "check": check, "ref": ref}


def _norm(job_id: str, group: dict, cocycle: dict, coeffs: str, radius: int) -> dict:
    argv = ["spectral", "norm", "--group", group, "--cocycle", cocycle, "--radius", str(radius)]
    if cocycle is not TRIVIAL:
        argv += ["--basis", BASIS]
    return _cli(job_id, argv, "norm", coeffs=coeffs, seeded=True)


def _lib(job_id: str, kind: str, check: str, ref=None, **params) -> dict:
    return {"id": job_id, "kind": kind, "params": params, "check": check, "ref": ref}


# Recorded values come from the program at git 53117e3 with the same inputs.
RECORDED = "recorded from twistlab at git 53117e3"

NUMERIC_COLD = [
    _norm("norm_free2_r7", FREE2, TRIVIAL, "free2", 7),
    _norm("norm_sanov_r4", SANOV, SANOV_TWIST, "sanov", 4),
    _norm("norm_f2xz_r5", F2XZ, {"kind": "f2xz", "mu": R, "nu": [1, 3]}, "f2xz", 5),
    _norm("norm_bs22_r7", BS22, {"kind": "bs", "lambda": R}, "bs22", 7),
    _cli(
        "stable_rank_free2_e_a",
        ["spectral", "stable-rank", "--group", FREE2, "--cocycle", TRIVIAL, "--radius", "3"],
        "stable_rank",
        ref={"g": "b", "translate": ["b", "b a"], "source": RECORDED},
        coeffs="free2_e_a",
        seeded=True,
    ),
]

EXACT_COLD = [
    _lib("r2_free2_a_b_n14", "r2", "r2", ref="2^n", group=FREE2, cocycle=TRIVIAL, gens=["a", "b"], n=14),
    _lib("r2_z_n20", "r2", "r2", ref="C(2n,n)", group=FREE1, cocycle=TRIVIAL, gens=["a", "A"], n=20),
    _lib(
        "r2_f2xz_n6",
        "r2",
        "r2",
        ref={"squared_norms": [6, 58, 636, 7378, 88756, 1097380], "source": RECORDED},
        group=F2XZ,
        cocycle={"kind": "f2xz", "mu": [1, 4], "nu": [1, 2]},
        gens=GENERATORS["f2xz"],
        n=6,
    ),
    _lib(
        "r2_bs22_n9",
        "r2",
        "r2",
        ref={
            "squared_norms": [4, 28, 220, 1820, 15564, 136372, 1217472, 11031324, 101156908],
            "source": RECORDED,
        },
        group=BS22,
        cocycle={"kind": "bs", "lambda": [1, 4]},
        gens=GENERATORS["bs22"],
        n=9,
    ),
    _cli(
        "regular_sanov_r5",
        ["regular", "--group", SANOV, "--cocycle", SANOV_TWIST, "--g", {"v": [1, 0], "w": ""}, "--radius", "5"],
        "report",
        ref={"report": {"status": "not_regular", "subject": {"v": [1, 0], "w": ""}, "witness": {"v": [0, -1], "w": ""}}, "source": RECORDED},
    ),
    _cli(
        "growth_class_bs22_r9",
        ["growth", "class", "--group", BS22, "--g", "\"a\"", "--radius", "9"],
        "report",
        ref={"report": {"counts": {"1": 0, "2": 1, "3": 0, "4": 0, "5": 0, "6": 1, "7": 0, "8": 2}}, "source": RECORDED},
    ),
    # Budget exhaustion: the documented contract is an inconclusive JSON
    # report with exit code 2.
    _cli(
        "regular_sanov_budget",
        ["regular", "--group", SANOV, "--cocycle", SANOV_TWIST, "--g", {"v": [1, 0], "w": ""}, "--radius", "9", "--nodes", "1000"],
        "budget",
        ref={"exit": 2, "source": "documented CLI contract: JSON on stdout, exit 2 when the budget runs out"},
    ),
]

DECIDE_WARM = [
    _cli("fixtures", ["fixtures"], "fixtures", ref={"all_match": True, "rows": 14, "source": RECORDED}),
    _lib(
        "classify_wreath_r5",
        "classify",
        "fields",
        ref={"statuses": ["certified", "refuted", "inconclusive"], "source": RECORDED},
        group=WREATH,
        cocycle=TRIVIAL,
        radius=5,
    ),
    _lib("generators_p4_w3_h4", "generators", "fields", ref={"count": 5, "certified": True, "source": RECORDED}, window=3, height=4),
    _lib("generators_p4_w4_h3", "generators", "fields", ref={"count": 7, "certified": True, "source": RECORDED}, window=4, height=3),
    _lib("box_p4_w3_h4", "box", "fields", ref={"count": 29828, "certified": True, "source": RECORDED}, window=3, height=4),
    _lib("kleppner_p4", "kleppner", "fields", ref={"statuses": ["refuted", "kernel_scan"], "source": RECORDED}),
    _cli(
        "relative_kleppner_bs22",
        ["verdict", "relative-kleppner", "--subgroup", "center", "--group", BS22, "--cocycle", {"kind": "bs", "lambda": [1, 3]}],
        "report",
        ref={
            "report": {"relative_kleppner": {"status": "refuted", "rule": "bs_relk", "witness": "a a a"}},
            "source": RECORDED,
        },
    ),
]

WORKLOADS = {"numeric_cold": NUMERIC_COLD, "exact_cold": EXACT_COLD, "decide_warm": DECIDE_WARM}


# ---------------------------------------------------------------------------
# child side: turn a job into a zero-argument call
# ---------------------------------------------------------------------------


def _run_cli(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "output": out.getvalue()}


def prepare(job: dict, coeff_dir: str | None = None, seed: int | None = None):
    """Parse the job's specs (the set-up a user pays) and return the call."""
    from twistlab import cli, cocycles, groups, phase, regularity, spectral, verdicts

    if job["kind"] == "cli":
        argv = list(job["argv"])
        if job.get("coeffs"):
            argv += ["--f", str(Path(coeff_dir) / f"{job['coeffs']}.json")]
        if job.get("seeded"):
            argv += ["--seed", str(seed)]
        return lambda: _run_cli(cli, argv)

    p = job["params"]
    if job["kind"] == "r2":
        G = groups.get_group(p["group"])
        sigma = cocycles.build_cocycle(p["cocycle"], G)
        f = spectral.FiniteFunction(G, {G.element_from_json(g): (1, 0) for g in p["gens"]}, exact=True)

        def call():
            rep = spectral.r2_estimate(f, sigma, p["n"])
            return {"squared_norms": [int(v) if v == int(v) else str(v) for v in rep.squared_norms], "exact": rep.exact}

        return lambda: {"exit": 0, "output": call()}
    if job["kind"] == "classify":
        G = groups.get_group(p["group"])
        sigma = cocycles.build_cocycle(p["cocycle"], G)

        def call():
            rep = verdicts.classify(G, sigma, p["radius"])
            return {"statuses": [rep.kleppner.status, rep.unique_trace.status, rep.cstar_simple.status]}

        return lambda: {"exit": 0, "output": call()}
    SZ = groups.get_group(SUM_Z)
    sigma = cocycles.build_cocycle(PERIOD4, SZ, phase.IrrationalBasis(BASIS))
    if job["kind"] == "generators":

        def call():
            gens, certified = regularity.regular_subgroup_generators(sigma, p["window"], p["height"])
            return {"count": len(gens), "certified": certified}

        return lambda: {"exit": 0, "output": call()}
    if job["kind"] == "box":

        def call():
            found, certified = regularity.regular_vectors_in_box(sigma, p["window"], p["height"])
            return {"count": len(found), "certified": certified}

        return lambda: {"exit": 0, "output": call()}
    if job["kind"] == "kleppner":

        def call():
            v = verdicts.decide_kleppner(SZ, sigma)
            return {"statuses": [v.status, v.rule]}

        return lambda: {"exit": 0, "output": call()}
    raise ValueError(f"unknown job kind {job['kind']!r}")


# ---------------------------------------------------------------------------
# parent side: check a job's result
# ---------------------------------------------------------------------------

NORM_REFS = Path(__file__).with_name("norm_refs.json")
NORM_LOW = 1e-3  # power iteration stops on a 1e-8 relative step; allow this much below the reference
NORM_HIGH = 1e-9  # a certified lower bound may exceed the reference only by rounding


def _json(text: str):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def _check_norm(job, output, norm_refs):
    rep = _json(output)
    refs = norm_refs[job["id"]]["values"]
    seq = [row["value"] for row in rep["sequence"]]
    if len(seq) != len(refs):
        return f"{len(seq)} radii reported, {len(refs)} expected"
    for r, (got, want) in enumerate(zip(seq, refs), start=1):
        if got > want * (1 + NORM_HIGH) + 1e-12:
            return f"radius {r}: {got!r} exceeds the eigsh reference {want!r}"
        if got < want * (1 - NORM_LOW):
            return f"radius {r}: {got!r} is more than {NORM_LOW:g} below the eigsh reference {want!r}"
    if rep["value"] != seq[-1]:
        return "value differs from the last radius"
    return None


def _check_stable_rank(job, output, _):
    rep = _json(output)
    ref = job["ref"]
    if not rep.get("semifree_translate_found") or rep.get("g") != ref["g"] or rep.get("translate") != ref["translate"]:
        return f"translate {rep.get('g')!r}/{rep.get('translate')!r}, expected {ref['g']!r}/{ref['translate']!r}"
    for run in rep["runs"]:
        # unit coefficients on two points: l2 = sqrt(2); a compression norm is at most the l1 norm, 2
        if abs(run["l2"] - math.sqrt(2)) > 1e-12:
            return f"l2 {run['l2']!r} != sqrt(2)"
        for row in run["proxies"]:
            if not 0.0 <= row["proxy"] <= 2.0 + 1e-9:
                return f"proxy {row['proxy']!r} at n={row['n']} outside [0, 2]"
    return None


def _check_r2(job, output, _):
    n = job["params"]["n"]
    if job["ref"] == "2^n":
        want = [2**k for k in range(1, n + 1)]
    elif job["ref"] == "C(2n,n)":
        want = [math.comb(2 * k, k) for k in range(1, n + 1)]
    else:
        want = job["ref"]["squared_norms"]
    if not output["exact"]:
        return "exact path not taken"
    if output["squared_norms"] != want:
        return f"squared norms {output['squared_norms']} != {want}"
    return None


def _subset(want, got) -> bool:
    """Every key of `want` is in `got` with an equal value (recursively)."""
    if isinstance(want, dict):
        return isinstance(got, dict) and all(k in got and _subset(v, got[k]) for k, v in want.items())
    return want == got


def _check_report(job, output, _):
    want = job["ref"]["report"]
    got = _json(output)
    return None if _subset(want, got) else f"report {got} lacks {want}"


def _check_fixtures(job, output, _):
    rep = _json(output)
    if rep["all_match"] is not job["ref"]["all_match"] or len(rep["rows"]) != job["ref"]["rows"]:
        return f"all_match={rep['all_match']} over {len(rep['rows'])} rows"
    return None


def _check_fields(job, output, _):
    want = {k: v for k, v in job["ref"].items() if k != "source"}
    got = {k: output.get(k) for k in want}
    return None if got == want else f"{got} != {want}"


CHECKS = {
    "norm": _check_norm,
    "stable_rank": _check_stable_rank,
    "r2": _check_r2,
    "report": _check_report,
    "fixtures": _check_fixtures,
    "fields": _check_fields,
}

EXPECTED_EXIT = {"budget": 2}


def judge(job: dict, result: dict, norm_refs: dict) -> tuple[str, str]:
    """Classify a child's result as ("ok" | "failed" | "wrong", reason).

    A job fails if it raises or exits with the wrong code; it is wrong if it
    completes but its output does not match the reference."""
    want_exit = EXPECTED_EXIT.get(job["check"], 0)
    if result.get("error"):
        return "failed", result["error"]
    if result["exit"] != want_exit:
        return "failed", f"exit code {result['exit']}, expected {want_exit}"
    if job["check"] == "budget":
        try:
            json.loads(result["output"])
        except (ValueError, TypeError):
            return "wrong", "stdout is not a JSON report"
        return "ok", ""
    try:
        problem = CHECKS[job["check"]](job, result["output"], norm_refs)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problem = f"unreadable output: {exc!r}"
    return ("wrong", problem) if problem else ("ok", "")
