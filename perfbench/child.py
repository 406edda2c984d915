"""Child process of the benchmark.

    python3 child.py cold '<request JSON>'     one job in a fresh interpreter
    python3 child.py session '<request JSON>'  a warm-up pass, then timed passes

Prints one JSON object on its last stdout line.  Times are taken with
`time.monotonic`, which on Linux is one clock for every process, so the
parent can measure set-up from the moment it spawned the child.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _attempt(call) -> dict:
    try:
        return call()
    except Exception as exc:  # a crash is a failed job, reported to the parent
        return {"exit": 1, "error": f"{type(exc).__name__}: {exc}"}


def main() -> int:
    mode, request = sys.argv[1], json.loads(sys.argv[2])
    t0 = time.monotonic()
    import twistlab
    import twistlab.cli  # noqa: F401  (the CLI imports every layer)

    import_s = time.monotonic() - t0
    import jobs

    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = {"import_s": import_s, "kernel_impl": twistlab.kernel_impl}

    if mode == "cold":
        job = request["job"]
        if tracer:
            tracer.job = request["tag"]
        call = jobs.prepare(job, request["coeff_dir"], request.get("seed"))
        out["t_ready"] = time.monotonic()
        out.update(_attempt(call))
    else:
        deck = {job["id"]: job for job in request["deck"]}

        def run(job_id: str, tag: str) -> dict:
            if tracer:
                tracer.job = tag
            t = time.perf_counter()
            c = _cpu()
            res = _attempt(jobs.prepare(deck[job_id]))
            res.update(id=job_id, latency_s=time.perf_counter() - t, cpu_s=_cpu() - c)
            return res

        out["warm"] = [run(job_id, f"warm:{job_id}") for job_id in deck]
        out["t_ready"] = time.monotonic()
        t = time.perf_counter()
        out["timed"] = [
            run(job_id, f"pass{p}:{job_id}") for p, order in enumerate(request["passes"]) for job_id in order
        ]
        out["timed_wall_s"] = time.perf_counter() - t

    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        out["spans"] = tracer.spans
        out["counts"] = dict(tracer.counts)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
