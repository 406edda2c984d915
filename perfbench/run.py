"""twistlab benchmark: closed-loop job workloads with one client.

    python3 perfbench/run.py --workload numeric_cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1            # every workload in turn
    python3 perfbench/run.py --compare OLD.json NEW.json

Run from the repository root.  Workloads (jobs in `jobs.py`):

- numeric_cold: float twisted numerics from the CLI (`spectral norm` over a
  radius sequence on four families, one `spectral stable-rank`), each job in
  a fresh process.
- exact_cold: exact arithmetic (library `r2_estimate` on four families, CLI
  `regular` and `growth class`, and a `regular` run whose node budget runs
  out), each job in a fresh process.
- decide_warm: the deciders in long-lived library sessions; an untimed
  warm-up pass fills the caches, then the job list is timed.

The seed orders the jobs of every pass and draws the solver seeds of the
numeric jobs.  A run makes `round(seconds / PASS_S)` passes over its
workload's jobs, one job at a time, so every run of a workload has the same
sample count.  decide_warm spreads its passes over three sessions so that
set-up is measured three times.  Every job's output is checked against a
reference (see `jobs.py`): `failed` counts jobs that raised, exited with a
wrong code or gave a wrong output, and `correct` is false when any output
contradicted its reference.

--trace 0 prints the end-to-end metrics; --trace 1 makes one untraced and
one traced pass and prints the per-layer metrics, including the tracing
overhead (traced / untraced wall time).  The last stdout line is a JSON
object with `correct`, `attempted`, `failed` and `metrics` (without
--workload, each workload's report ends with its own such line).  Each run also
writes `.perfbench/results/<workload>-seed<seed>-trace<t>.json` with the
environment (git sha, source digest, Python/numpy/scipy versions, nproc,
`twistlab.kernel_impl`, `TWISTLAB_KERNEL`) and every job's record;
`--compare` prints the ratios between two such files and refuses to
compare runs whose word kernels differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import tracer  # noqa: E402

# A run makes round(seconds / PASS_S) passes.  With --seconds 25 that is 5, 5
# and 15 passes (25, 35 and 105 jobs), enough for a tail percentile with ten
# samples beyond it.  On a 2-core box one pass takes about 7, 5.5 and 1.4 s.
PASS_S = {"numeric_cold": 5.0, "exact_cold": 5.0, "decide_warm": 1.7}
SESSIONS = 3  # decide_warm sessions per measured run
DEADLINE_S = 170.0  # every child is stopped before a run can exceed this

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "cpu_per_job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "twistlab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "TWISTLAB_KERNEL": os.environ.get("TWISTLAB_KERNEL"),
    }


# ---------------------------------------------------------------------------
# running children
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, workload: str):
        self.workload = workload
        self.deck = jobs.WORKLOADS[workload]
        self.by_id = {job["id"]: job for job in self.deck}
        self.norm_refs = json.loads(jobs.NORM_REFS.read_text())
        self.t0 = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.env["PYTHONHASHSEED"] = "0"  # set iteration order, hence traced counts, repeat exactly
        self.coeff_dir = WORK / "coeffs"
        self.coeff_dir.mkdir(parents=True, exist_ok=True)
        for name, rows in jobs.COEFFS.items():
            (self.coeff_dir / f"{name}.json").write_text(json.dumps(rows))
        self.records: list[dict] = []  # every executed job, checked
        self.kernel_impls: set[str] = set()

    def _spawn(self, mode: str, request: dict) -> tuple[dict, float, float, float]:
        """Run one child; returns (result, spawn time, end time, child cpu)."""
        remaining = DEADLINE_S - (time.monotonic() - self.t0)
        if remaining <= 1:
            raise TimeoutError("run deadline reached")
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t_spawn = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, json.dumps(request)],
            capture_output=True,
            text=True,
            env=self.env,
            cwd=ROOT,
            timeout=remaining,
        )
        t_end = time.monotonic()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            raise RuntimeError(f"benchmark child exited {proc.returncode}: {tail[0]}")
        res = json.loads(lines[-1])
        self.kernel_impls.add(res["kernel_impl"])
        return res, t_spawn, t_end, cpu

    def _record(self, job_id: str, res: dict, phase: str, **extra) -> dict:
        verdict, reason = jobs.judge(self.by_id[job_id], res, self.norm_refs)
        rec = {"id": job_id, "phase": phase, "verdict": verdict, "reason": reason, **extra}
        self.records.append(rec)
        return rec

    def cold_job(self, job_id: str, seed: int, trace: bool, phase: str) -> tuple[dict, dict]:
        request = {
            "job": self.by_id[job_id],
            "coeff_dir": str(self.coeff_dir),
            "seed": seed,
            "trace": trace,
            "tag": f"{phase}:{job_id}",
        }
        res, t_spawn, t_end, cpu = self._spawn("cold", request)
        rec = self._record(
            job_id,
            res,
            phase,
            seed=seed,
            latency_s=t_end - t_spawn,
            setup_s=res["t_ready"] - t_spawn,
            import_s=res["import_s"],
            cpu_s=cpu,
            maxrss_kb=res["maxrss_kb"],
        )
        return rec, res

    def session(self, orders: list[list[str]], trace: bool, phase: str) -> tuple[dict, dict]:
        request = {"deck": self.deck, "passes": orders, "trace": trace}
        res, t_spawn, t_end, _ = self._spawn("session", request)
        for r in res["warm"]:
            self._record(r["id"], r, f"{phase}:warm", latency_s=r["latency_s"], cpu_s=r["cpu_s"])
        timed = [
            self._record(r["id"], r, phase, latency_s=r["latency_s"], cpu_s=r["cpu_s"]) for r in res["timed"]
        ]
        summary = {
            "setup_s": res["t_ready"] - t_spawn,
            "import_s": res["import_s"],
            "wall_s": t_end - t_spawn,
            "timed_wall_s": res["timed_wall_s"],
            "maxrss_kb": res["maxrss_kb"],
            "timed": timed,
        }
        return summary, res


def _orders(rng: random.Random, deck: list[dict], passes: int) -> list[list[str]]:
    ids = [job["id"] for job in deck]
    return [rng.sample(ids, len(ids)) for _ in range(passes)]


def _job_seeds(rng: random.Random, orders: list[list[str]]) -> list[list[int]]:
    return [[rng.randrange(2**31) for _ in order] for order in orders]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond).  Fewer than 11 samples give the
    maximum with none beyond."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def measure(runner: Runner, seed: int, seconds: int) -> tuple[dict, list[str]]:
    rng = random.Random(seed)
    passes = max(1, round(seconds / PASS_S[runner.workload]))
    lines = []
    if runner.workload == "decide_warm":
        counts = [max(1, passes // SESSIONS + (s < passes % SESSIONS)) for s in range(SESSIONS)]
        sessions = [runner.session(_orders(rng, runner.deck, k), False, f"session{s}")[0] for s, k in enumerate(counts)]
        timed = [rec for s in sessions for rec in s["timed"]]
        busy = sum(s["timed_wall_s"] for s in sessions)
        setups = [s["setup_s"] for s in sessions]
        rss = max(s["maxrss_kb"] for s in sessions)
        lines.append(f"sessions: {SESSIONS}, timed passes {counts}, each session after one warm-up pass")
    else:
        orders = _orders(rng, runner.deck, passes)
        seeds = _job_seeds(rng, orders)
        t = time.monotonic()
        timed = [
            runner.cold_job(job_id, s, False, f"pass{p}")[0]
            for p, (order, row) in enumerate(zip(orders, seeds))
            for job_id, s in zip(order, row)
        ]
        busy = time.monotonic() - t
        setups = [rec["setup_s"] for rec in timed]
        rss = max(rec["maxrss_kb"] for rec in timed)
        lines.append(f"passes: {passes} over {len(runner.deck)} jobs, one fresh process per job")
    lat = [rec["latency_s"] for rec in timed]
    tail_v, tail_p, beyond = tail(lat)
    metrics = {
        "jobs_per_s": len(timed) / busy,
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail_v,
        "cpu_per_job_s": statistics.median(rec["cpu_s"] for rec in timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss / 1024.0,
    }
    n = len(timed)
    notes = {
        "jobs_per_s": f"n={n} jobs in {busy:.2f} s",
        "latency_p50_s": f"median, n={n}",
        "latency_tail_s": f"p{tail_p:.1f}, {beyond} samples beyond, n={n}",
        "cpu_per_job_s": f"median child user+sys, n={n}",
        "setup_s": f"median, n={len(setups)}",
        "peak_rss_mb": f"max over {len(setups)} processes",
    }
    for name, value in metrics.items():
        lines.append(f"{name} = {value:.6g} {END_TO_END_UNITS[name]} ({notes[name]})")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, lines


def trace_run(runner: Runner, seed: int) -> tuple[dict, list[str], list]:
    import micro

    rng = random.Random(seed)
    orders = _orders(rng, runner.deck, 1)
    children = []
    if runner.workload == "decide_warm":
        plain, _ = runner.session(orders, False, "untraced")
        traced, res = runner.session(orders, True, "traced")
        overhead = traced["wall_s"] / plain["wall_s"]
        imports = [plain["import_s"], traced["import_s"]]
        children.append(res)
    else:
        seeds = _job_seeds(rng, orders)[0]
        plain = [runner.cold_job(j, s, False, "untraced")[0] for j, s in zip(orders[0], seeds)]
        traced = []
        for j, s in zip(orders[0], seeds):
            rec, res = runner.cold_job(j, s, True, "traced")
            traced.append(rec)
            children.append(res)
        overhead = sum(r["latency_s"] for r in traced) / sum(r["latency_s"] for r in plain)
        imports = [r["import_s"] for r in plain + traced]

    spans, counts = [], {}
    for res in children:
        offset = len(spans)
        for name, start, end, parent, job in res["spans"]:
            spans.append([name, start, end, None if parent is None else parent + offset, job])
        for k, v in res["counts"].items():
            counts[k] = counts.get(k, 0) + v
    times = tracer.layer_times(spans)

    def total(name):
        return times.get(name, {}).get("total", 0.0)

    def own(name):
        return times.get(name, {}).get("self", 0.0)

    def ratio(num, den):
        return (num / den if den else 0.0), f"{num}/{den}"

    searched, answered = tracer.searched_share(spans)
    exact_ratio, exact_base = ratio(counts.get("spectral.exact.results", 0), counts.get("spectral.exact.attempts", 0))
    search_ratio, search_base = ratio(searched, answered)
    rule_ratio, rule_base = ratio(counts.get("verdicts.by_rule", 0), counts.get("verdicts.requested", 0))
    layer = {
        "trace.overhead": (overhead, "ratio"),
        "cli.import_s": (statistics.median(imports), "s"),
        "groups.ball.s": (own("groups.ball"), "s"),
        "groups.ball.nodes": (counts.get("groups.ball.nodes", 0), "count"),
        "groups.ball.calls": (counts.get("groups.ball.calls", 0), "count"),
        "groups.ball.hits": (counts.get("groups.ball.hits", 0), "count"),
        "groups.compose.calls": (counts.get("groups.compose.calls", 0), "count"),
        "groups.commuting_ball.s": (total("groups.commuting_ball"), "s"),
        "groups.conjugacy_class_partial.s": (total("groups.conjugacy_class_partial"), "s"),
        "phase.mul.calls": (counts.get("phase.mul.calls", 0), "count"),
        "phase.to_complex.calls": (counts.get("phase.to_complex.calls", 0), "count"),
        "cocycles.eval.calls": (counts.get("cocycles.eval.calls", 0), "count"),
        "spectral.build_truncated.s": (own("spectral.build_truncated"), "s"),
        "spectral.build_truncated.nnz": (counts.get("spectral.build_truncated.nnz", 0), "count"),
        "spectral.operator_norm.s": (total("spectral.operator_norm"), "s"),
        "spectral.operator_norm.iterations": (counts.get("spectral.operator_norm.iterations", 0), "count"),
        "spectral.convolve_sigma.s": (total("spectral.convolve_sigma"), "s"),
        "spectral.convolve_sigma.pairs": (counts.get("spectral.convolve_sigma.pairs", 0), "count"),
        "spectral.exact_ratio": (exact_ratio, "ratio"),
        "regularity.box_scan.s": (total("regularity.box_scan"), "s"),
        "regularity.box_scan.candidates": (counts.get("regularity.box_scan.candidates", 0), "count"),
        "regularity.box_scan.solutions": (counts.get("regularity.box_scan.solutions", 0), "count"),
        "regularity.generators.s": (own("regularity.generators"), "s"),
        "regularity.is_sigma_regular.s": (total("regularity.is_sigma_regular"), "s"),
        "regularity.search_ratio": (search_ratio, "ratio"),
        "verdicts.decide.s": (total("verdicts.decide"), "s"),
        "verdicts.rule_ratio": (rule_ratio, "ratio"),
        "verdicts.inconclusive": (counts.get("verdicts.inconclusive", 0), "count"),
        "growth.class_growth_counts.s": (total("growth.class_growth_counts"), "s"),
        "fixtures.matrix.s": (total("fixtures.matrix"), "s"),
    }
    sys.path.insert(0, str(SRC))
    for name, value in micro.unit_costs(seed).items():
        layer[name] = (value, "us")
    bases = {
        "spectral.exact_ratio": exact_base,
        "regularity.search_ratio": search_base,
        "verdicts.rule_ratio": rule_base,
    }
    lines = [f"tracing overhead: {overhead:.3f}x wall time (one traced pass / one untraced pass)"]
    for name, (value, unit) in layer.items():
        base = f" ({bases[name]})" if name in bases else ""
        lines.append(f"{name} = {value:.6g} {unit}{base}")
    return {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}, lines, spans


# ---------------------------------------------------------------------------
# comparison of two result files
# ---------------------------------------------------------------------------


def compare(old_path: str, new_path: str) -> int:
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    for key in ("workload", "trace"):
        if old[key] != new[key]:
            print(f"refusing to compare: {key} differs ({old[key]!r} vs {new[key]!r})")
            return 2
    ko, kn = old["env"]["kernel_impl"], new["env"]["kernel_impl"]
    if ko != kn:
        print(f"refusing to compare: word kernels differ ({ko!r} vs {kn!r})")
        return 2
    for name, row in new["metrics"].items():
        if name in old["metrics"]:
            a, b = old["metrics"][name]["value"], row["value"]
            change = f"{b / a:.3f}x" if a else "n/a"
            print(f"{name}: {a:.6g} -> {b:.6g} {row['unit']} ({change})")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> int:
    """Run one workload, print its report and, last, its result line."""
    runner = Runner(workload)
    spans = None
    if trace:
        metrics, lines, spans = trace_run(runner, seed)
    else:
        metrics, lines = measure(runner, seed, seconds)

    env = environment()
    if len(runner.kernel_impls) != 1:
        print(f"children used different word kernels: {sorted(runner.kernel_impls)}", file=sys.stderr)
        return 2
    env["kernel_impl"] = runner.kernel_impls.pop()
    attempted = len(runner.records)
    failed = sum(rec["verdict"] != "ok" for rec in runner.records)
    wrong = [rec for rec in runner.records if rec["verdict"] == "wrong"]

    print(f"workload {workload}, seed {seed}, trace {trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    print(f"fail_ratio = {failed / attempted:.4g} ({failed}/{attempted} jobs failed)")
    seen = set()
    for rec in runner.records:
        if rec["verdict"] != "ok" and (rec["id"], rec["reason"]) not in seen:
            seen.add((rec["id"], rec["reason"]))
            print(f"{rec['verdict']}: {rec['id']}: {rec['reason']}")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "jobs": runner.records,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if spans is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(jobs.WORKLOADS), help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "twistlab" / "__init__.py").is_file():
        print(f"twistlab sources not found under {SRC}", file=sys.stderr)
        return 2
    for workload in [args.workload] if args.workload else list(jobs.WORKLOADS):
        code = run_workload(workload, args.seed, args.seconds, args.trace)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
