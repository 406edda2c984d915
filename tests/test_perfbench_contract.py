"""What the benchmark under `perfbench/` reads from the package.

The benchmark's tracer wraps package functions by name, its jobs call the
library and the CLI, and its micro costs call `compose`, cocycle `eval`,
Phase multiplication and export, and the word kernels.  No other test runs
that code, so a rename in the package would break the per-layer benchmark
silently.  This test runs one cheap job of each kind through `jobs.prepare`
in a fresh interpreter with the tracer installed, as `perfbench/child.py`
does, and checks the spans and counts it records; it makes the micro
costs' calls on a few pairs each, and checks that a Sanov value that uses
r still carries the basis that its export reads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import json, random, sys, tempfile
from pathlib import Path
sys.path.insert(0, "perfbench")
import twistlab
from tracer import Tracer
import jobs

tracer = Tracer()
tracer.install()
from twistlab import _kernels, spectral
from twistlab._kernels import _pyops  # micro._kernel_inputs reads it
from twistlab.cocycles import build_cocycle
from twistlab.groups import get_group
from twistlab.phase import IrrationalBasis, Phase

coeff_dir = tempfile.mkdtemp()
for name, rows in jobs.COEFFS.items():
    Path(coeff_dir, f"{name}.json").write_text(json.dumps(rows))
cheap = [
    "norm_free2_r7", "r2_z_n20", "regular_sanov_budget", "growth_class_bs22_r9", "fixtures",
    "classify_wreath_r5", "generators_p4_w3_h4", "box_p4_w3_h4", "kleppner_p4",
]
deck = {job["id"]: job for jobs_ in jobs.WORKLOADS.values() for job in jobs_}
norm_refs = json.loads(jobs.NORM_REFS.read_text())
judged = {}
for job_id in cheap:
    tracer.job = job_id
    result = jobs.prepare(deck[job_id], coeff_dir, 1)()
    judged[job_id] = [deck[job_id]["kind"], *jobs.judge(deck[job_id], result, norm_refs)]

G = get_group(jobs.FREE2)
f = spectral.FiniteFunction(G, {G.element_from_json(g): 1.0 for g in jobs.GENERATORS["free2"]})
nnz = int(spectral.build_truncated(f, build_cocycle(jobs.TRIVIAL, G), 2).matrix.nnz)

rng = random.Random(41)  # the calls of micro.unit_costs, on a few pairs each
basis = IrrationalBasis(jobs.BASIS)
micro_pairs = {
    "free": ({"family": "free", "rank": 2}, None),
    "sanov": ({"family": "sanov"}, {"kind": "sanov", "mu0": jobs.R, "mu1": [1, 3], "mu2": [1, 5]}),
    "free_times_z": ({"family": "free_times_z"}, {"kind": "f2xz", "mu": jobs.R, "nu": [1, 3]}),
    "bs_nn": ({"family": "bs_nn", "n": 2}, {"kind": "bs", "lambda": jobs.R}),
    "wreath": ({"family": "wreath", "base": "Z"}, {"kind": "lift", "base": {"kind": "theta_rule", "rule": "prime_reciprocal"}}),
    "sum_z": ({"family": "sum_z"}, jobs.PERIOD4),
}
micro = {}
for fam, (spec, cocycle) in micro_pairs.items():
    G = get_group(spec)
    ball = G.ball(2)
    pairs = [(rng.choice(ball), rng.choice(ball)) for _ in range(8)]
    if fam != "sum_z":
        micro[f"compose.{fam}"] = [G.compose(g, h).group is G for g, h in pairs]
    if cocycle is not None:
        values = [build_cocycle(cocycle, G, basis).eval(g, h) for g, h in pairs]
        micro[f"eval.{fam}"] = [isinstance(v, Phase) for v in values]
        if fam == "sanov":
            symbolic = [v for v in values if "r" in v.syms]
micro["phase.mul"] = [isinstance(p * q, Phase) for p, q in zip(symbolic, reversed(symbolic))]
micro["phase.to_complex"] = [p.basis == basis and abs(abs(p.to_complex()) - 1) < 1e-12 for p in symbolic]

rng = random.Random(0)  # the shapes of micro._kernel_inputs, fewer of them
words = [tuple(rng.choice((1, -1, 2, -2)) for _ in range(60)) for _ in range(20)]
reduced = [_pyops.free_reduce(w) for w in words]
syls = [tuple(x for _ in range(12) for x in (rng.choice((1, 2)), rng.choice((-3, -2, -1, 1, 2, 3)))) for _ in range(20)]
kernels = {
    "free_reduce": [_kernels.free_reduce(w) == r for w, r in zip(words, reduced)],
    "free_mul": [isinstance(_kernels.free_mul(a, b), bytes) for a, b in zip(reduced, reversed(reduced))],
    "bs_normalize": [len(_kernels.bs_normalize(s, 2)) == 2 for s in syls],
}
print(json.dumps({
    "judged": judged,
    "spans": sorted({s[0] for s in tracer.spans}),
    "counts": dict(tracer.counts),
    "nnz": nnz,
    "kernels": kernels,
    "micro": micro,
    "kernel_impl": twistlab.kernel_impl,
}))
"""

# every span that the cheap jobs above open, and the counts that must move
SPANS = {
    "groups.ball",
    "groups.commuting_ball",
    "groups.conjugacy_class_partial",
    "growth.class_growth_counts",
    "spectral.build_truncated",
    "spectral.operator_norm",
    "spectral.convolve_sigma",
    "regularity.generators",
    "regularity.is_sigma_regular",
    "verdicts.decide",
    "fixtures.matrix",
}
COUNTS = (
    "groups.ball.calls",
    "groups.ball.nodes",
    "spectral.build_truncated.nnz",
    "spectral.operator_norm.iterations",
    "spectral.convolve_sigma.pairs",
    "spectral.exact.attempts",
    "verdicts.requested",
)


def test_perfbench_tracer_jobs_and_kernels_find_what_they_read():
    # no bytecode: the test leaves nothing behind under perfbench/
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {kind for kind, *_ in out["judged"].values()} == {"cli", "r2", "classify", "generators", "box", "kleppner"}
    assert all(status == "ok" for _, status, _ in out["judged"].values()), out["judged"]
    assert SPANS <= set(out["spans"]), SPANS - set(out["spans"])
    assert all(out["counts"].get(key, 0) > 0 for key in COUNTS), out["counts"]
    assert out["nnz"] > 0
    assert all(ok and all(ok) for ok in out["kernels"].values()), out["kernels"]
    assert len(out["micro"]) == 12 and all(ok and all(ok) for ok in out["micro"].values()), out["micro"]
    assert isinstance(out["kernel_impl"], str)
