"""Unit costs (microseconds per call) of the hot primitives.

Operands are sampled with the run's seed from small Cayley balls of each
family; the word kernels run on the generated inputs of the repository's
kernel benchmark (`benchmarks/bench_kernels.py`, random seed 0).  Every cost
is the median over repeats of the mean time per call.
"""

from __future__ import annotations

import operator
import random
import statistics
import time

REPEATS = 5
SAMPLES = 1500


def _per_call_us(fn, operands, repeats: int = REPEATS) -> float:
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for ops in operands:
            fn(*ops)
        runs.append((time.perf_counter() - t0) / len(operands))
    return statistics.median(runs) * 1e6


def _pairs(rng: random.Random, ball, count: int = SAMPLES):
    return [(rng.choice(ball), rng.choice(ball)) for _ in range(count)]


def _kernel_inputs():
    """The inputs `benchmarks/bench_kernels.py` generates with random seed 0."""
    from twistlab._kernels import _pyops

    rng = random.Random(0)
    words = [tuple(rng.choice((1, -1, 2, -2)) for _ in range(60)) for _ in range(20000)]
    reduced = [_pyops.free_reduce(w) for w in words]
    pairs = list(zip(reduced, reversed(reduced)))
    syls = []
    for _ in range(20000):
        flat = []
        for _ in range(12):
            flat.append(rng.choice((1, 2)))
            flat.append(rng.choice((-3, -2, -1, 1, 2, 3)))
        syls.append(tuple(flat))
    return words, pairs, syls


def unit_costs(seed: int) -> dict[str, float]:
    from twistlab import _kernels
    from twistlab.cocycles import build_cocycle
    from twistlab.groups import get_group
    from twistlab.phase import IrrationalBasis

    from jobs import BASIS, PERIOD4, R

    rng = random.Random(seed)
    basis = IrrationalBasis(BASIS)
    families = {
        "free": ({"family": "free", "rank": 2}, 4, None),
        "sanov": ({"family": "sanov"}, 3, {"kind": "sanov", "mu0": R, "mu1": [1, 3], "mu2": [1, 5]}),
        "free_times_z": ({"family": "free_times_z"}, 3, {"kind": "f2xz", "mu": R, "nu": [1, 3]}),
        "bs_nn": ({"family": "bs_nn", "n": 2}, 4, {"kind": "bs", "lambda": R}),
        "wreath": (
            {"family": "wreath", "base": "Z"},
            3,
            {"kind": "lift", "base": {"kind": "theta_rule", "rule": "prime_reciprocal"}},
        ),
        "sum_z": ({"family": "sum_z"}, 3, PERIOD4),
    }
    eval_names = {"sanov": "sanov", "free_times_z": "f2xz", "bs_nn": "bs", "wreath": "lift", "sum_z": "theta_diag"}
    out: dict[str, float] = {}
    phases = []
    for fam, (spec, radius, cocycle) in families.items():
        G = get_group(spec)
        pairs = _pairs(rng, G.ball(radius))
        if fam != "sum_z":
            out[f"groups.compose.us.{fam}"] = _per_call_us(G.compose, pairs)
        if cocycle is not None:
            sigma = build_cocycle(cocycle, G, basis)
            out[f"cocycles.eval.us.{eval_names[fam]}"] = _per_call_us(sigma.eval, pairs)
            if fam == "sanov":
                phases = [sigma.eval(g, h) for g, h in pairs]
    phase_pairs = [(rng.choice(phases), rng.choice(phases)) for _ in range(SAMPLES)]
    out["phase.mul.us"] = _per_call_us(operator.mul, phase_pairs)
    out["phase.to_complex.us"] = _per_call_us(type(phases[0]).to_complex, [(p,) for p, _ in phase_pairs])

    words, pairs, syls = _kernel_inputs()
    out["kernels.free_reduce.us"] = _per_call_us(_kernels.free_reduce, [(w,) for w in words], 3)
    out["kernels.free_mul.us"] = _per_call_us(_kernels.free_mul, pairs, 3)
    out["kernels.bs_normalize.us"] = _per_call_us(_kernels.bs_normalize, [(s, 2) for s in syls], 3)
    return out
