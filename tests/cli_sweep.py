"""A fixed matrix of CLI runs, made in one process, one JSON line per run.

Each line holds the argv, the captured stdout and stderr and the exit code
(or the exception, if a run raised one).  Run it on two trees and compare
the files to show that a change leaves every report byte-identical:

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/cli_sweep.py > out.jsonl

With ``--digests`` it prints instead, per run, the first 16 hex digits of
the sha256 of its exit code (or exception), stdout and stderr.
``tests/test_cli.py`` runs it so and compares the lines with the reference
``tests/cli_sweep_digests.txt``.  A change that alters an output on purpose
regenerates the reference and says in CHANGES.md which outputs changed and
why:

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/cli_sweep.py --digests > tests/cli_sweep_digests.txt

pytest does not collect this file; it runs in about a second.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

from twistlab.cli import main

R = {"rat": [0, 1], "irr": {"r": [1, 1]}}
BASIS = '{"r": 0.3819660112501051}'
TRIVIAL = {"kind": "trivial"}

# (group, cocycles, elements): valid inputs of every family the deciders treat specially
GROUPS = [
    ({"family": "bs_nn", "n": 2}, [TRIVIAL, {"kind": "bs", "lambda": R}, {"kind": "bs", "lambda": [1, 3]}], ["b b", "a", "a b B"]),
    ({"family": "bs_nn", "n": 3}, [TRIVIAL, {"kind": "bs", "lambda": [1, 2]}], ["b b b", "a b"]),
    (
        {"family": "free_times_z"},
        [
            TRIVIAL,
            {"kind": "f2xz", "mu": [1, 3], "nu": [1, 5]},
            {"kind": "f2xz", "mu": R, "nu": [1, 3]},
            {"kind": "product", "left": TRIVIAL, "right": TRIVIAL},
        ],
        [{"w": "", "k": 2}, {"w": "a b", "k": 0}, {"w": "a", "k": 1}],
    ),
    (
        {"family": "sanov"},
        [TRIVIAL, {"kind": "sanov", "mu0": R, "mu1": [1, 3], "mu2": [1, 5]}],
        [{"v": [1, 0], "w": ""}, {"v": [0, 1], "w": "a"}],
    ),
    (
        {"family": "wreath", "base": "Z"},
        [TRIVIAL, {"kind": "lift", "base": {"kind": "theta_diag", "diagonals": [R]}}],
        [{"x": {"0": 1}, "k": 0}, {"x": {}, "k": 1}],
    ),
    (
        {"family": "wreath", "base": "Z2"},
        [TRIVIAL, {"kind": "lift", "base": {"kind": "bitstream", "pre": [1]}}],
        [{"x": [0], "k": 0}, {"x": [0, 1], "k": 1}],
    ),
    (
        {"family": "wreath", "base": "Z2", "acting": 3},
        [TRIVIAL, {"kind": "lift", "base": {"kind": "bitstream", "pre": [0]}}],
        [{"x": [0], "k": 0}, {"x": [], "k": 1}],
    ),
    (
        {"family": "zn_semidirect", "A": [[2, 1], [1, 1]]},
        [TRIVIAL, {"kind": "lift", "base": {"kind": "antisym_theta", "theta": R}}, {"kind": "lift", "base": {"kind": "antisym_theta", "theta": [1, 4]}}],
        [{"v": [1, 0], "k": 0}, {"v": [0, 1], "k": 1}],
    ),
    (
        {"family": "zn_semidirect", "A": [[0, -1], [1, 0]]},
        [TRIVIAL, {"kind": "lift", "base": {"kind": "antisym_theta", "theta": [1, 3]}}],
        [{"v": [1, 0], "k": 0}, {"v": [0, 0], "k": 2}],
    ),
    (
        {"family": "zn_semidirect", "A": [[1, 1], [0, 1]]},
        [TRIVIAL, {"kind": "lift", "base": {"kind": "half_skew", "mu0": [1, 3]}}],
        [{"v": [1, 0], "k": 0}, {"v": [0, 1], "k": 1}],
    ),
    (
        {"family": "sum_z"},
        [
            {"kind": "theta_diag", "diagonals": [R]},
            {"kind": "theta_diag", "diagonals": [[1, 2]]},
            {"kind": "theta_rule", "rule": "prime_reciprocal"},
        ],
        [{"0": 1}, {"1": 2, "-1": 1}],
    ),
    (
        {"family": "sum_z2"},
        [{"kind": "bitstream", "pre": [1]}, {"kind": "bitstream", "pre": [], "period": [1, 0]}],
        [[0], [0, 1]],
    ),
    ({"family": "free", "rank": 2}, [TRIVIAL], ["a", "a b A"]),
    ({"family": "free", "rank": 1}, [TRIVIAL], ["a", "a a"]),
]
SUBGROUPS = ("base", "center", "z", "z2", "full", "trivial", "nope")


def argvs():
    """The argv of every run, in a fixed order."""
    yield ["fixtures", "--radius", "3"]
    for group, cocycles, elements in GROUPS:
        g = json.dumps(group)
        for e in elements:
            yield ["growth", "class", "--group", g, "--g", json.dumps(e), "--radius", "3", "--kmax", "4"]
        for cocycle in cocycles:
            pair = ["--group", g, "--cocycle", json.dumps(cocycle), "--basis", BASIS]
            for extra in (["--radius", "3"], ["--radius", "5"], ["--radius", "5", "--nodes", "30"]):
                yield ["classify", *pair, *extra]
                yield ["verdict", "kleppner", *pair, *extra]
            for name in SUBGROUPS:
                yield ["verdict", "relative-kleppner", *pair, "--subgroup", name, "--radius", "3"]
                yield ["verdict", "condition-x", *pair, "--subgroup", name, "--radius", "2"]
            for e in elements:
                ge = ["--g", json.dumps(e), "--radius", "3"]
                yield ["regular", *pair, *ge]
                for name in SUBGROUPS:
                    yield ["regular", *pair, *ge, "--subgroup", name]
                    yield ["regular", *pair, *ge, "--subgroup", name, "--k", json.dumps(elements[0])]
    # the class of a in BS(2,2) at radius 11 holds 2,048 elements, its ball 30,695:
    # the class walk answers under 10,000 nodes and runs out under 1,000
    for nodes in ("10000", "1000"):
        yield ["growth", "class", "--group", '{"family": "bs_nn", "n": 2}', "--g", '"a"', "--radius", "11", "--kmax", "24", "--nodes", nodes]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    row: dict = {"argv": argv}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            row["exit"] = main(argv)
        except Exception as exc:  # a traceback is a finding too; record it and go on
            row["exception"] = f"{type(exc).__name__}: {exc}"
    row["stdout"], row["stderr"] = out.getvalue(), err.getvalue()
    return row


def digest(row: dict) -> str:
    """A short digest of everything a run printed or returned."""
    outcome = {k: v for k, v in row.items() if k != "argv"}
    return hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()[:16]


if __name__ == "__main__":
    os.environ.pop("TWISTLAB_BUDGET", None)
    digests = "--digests" in sys.argv[1:]
    for argv in argvs():
        row = run(argv)
        print(digest(row) if digests else json.dumps(row, sort_keys=True), flush=True)
