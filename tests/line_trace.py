"""List the lines of src/twistlab that no run reaches, using only the
standard library (``sys.settrace``).

It runs any of the Tier-1 suite, the CLI sweep (``tests/cli_sweep.py``,
with its output discarded) and the benchmark's jobs (every job of
``perfbench/jobs.py:WORKLOADS`` once, through ``jobs.prepare``, with
``jobs.COEFFS`` written to a temporary directory), in this process, and
records every line that a frame of a ``src/twistlab`` module executes.
Then it prints, per module, the executable lines (those the compiled code maps an instruction to) that
no frame reached, with the lines on `ALLOWLIST` printed apart.  It exits
with pytest's status when pytest fails, else 1 when a line off the
allowlist is unreached, else 0:

    PYTHONPATH=src python tests/line_trace.py            # Tier-1 and the sweep
    PYTHONPATH=src python tests/line_trace.py sweep      # the sweep alone
    PYTHONPATH=src python tests/line_trace.py sweep bench  # what no command or workload reaches
    PYTHONPATH=src python tests/line_trace.py tier1 -- -k cocycles

Arguments after ``--`` go to pytest.  Child processes that tests start are
not traced, so code that only a subprocess runs is listed as unreached.
Tracing makes the suite about three times slower.  pytest does not collect
this file; ``tests/test_source.py`` checks, without tracing, that every
`ALLOWLIST` entry names exactly one executable line.
"""

from __future__ import annotations

import contextlib
import json
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twistlab"

_STUB = "abstract family primitive of Group; every family overrides it"
# Lines left unreached on purpose, keyed by module (relative to PACKAGE) and
# the stripped source text of the line, with the reason.
ALLOWLIST: dict[tuple[str, str], str] = {
    ("groups.py", 'raise NotImplementedError("Group._identity_data")'): _STUB,
    ("groups.py", 'raise NotImplementedError("Group._mul")'): _STUB,
    ("groups.py", 'raise NotImplementedError("Group._inv")'): _STUB,
    ("groups.py", 'raise NotImplementedError("Group._generators")'): _STUB,
    ("groups.py", 'raise NotImplementedError("Group.sort_key")'): _STUB,
    ("groups.py", 'raise NotImplementedError("Group.length")'): _STUB,
    ("groups.py", 'raise NotImplementedError("Group.element_to_json")'): _STUB,
    ("groups.py", 'raise NotImplementedError("Group.element_from_json")'): _STUB,
    ("verdicts.py", 'raise AssertionError("periodicity witness failed re-validation")'): (
        "consistency check: the periodic bitstream witness is regular by construction"
    ),
    ("verdicts.py", 'raise AssertionError("inconsistent report: a certified property alongside refuted Kleppner")'): (
        "consistency check: Kleppner is necessary for both properties, so no rule certifies them past a refutation"
    ),
    ("spectral.py", "import numpy as np  # for annotations only"): "runs only under TYPE_CHECKING",
    ("cli.py", "from .spectral import FiniteFunction  # for annotations only"): "runs only under TYPE_CHECKING",
    ("growth.py", "from .spectral import FiniteFunction  # for annotations only"): "runs only under TYPE_CHECKING",
    ("cli.py", "sys.exit(main())"): (
        "runs only when the module is __main__; the tests that start it as a process are not traced"
    ),
    ("cocycles.py", 'raise NotImplementedError("Cocycle._angle")'): (
        "abstract primitive of Cocycle; every cocycle class overrides it"
    ),
    ("regularity.py", "m += 1  # unreachable for nonzero x; kept as a safety net"): (
        "the first row past the prime bound is nonzero for every nonzero x"
    ),
}


def executable_lines(path: Path) -> set[int]:
    """The lines that some instruction of the compiled module maps to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        stack.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


class LineTracer:
    """Collects the reached lines of every module under `PACKAGE`."""

    def __init__(self):
        self.hits: dict[str, set[int]] = {}  # resolved module path -> reached lines
        self._local: dict[str, object] = {}  # co_filename -> its line tracer, None outside the package

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self._local:
            path = Path(filename).resolve()
            self._local[filename] = self._line_tracer(str(path)) if path.is_relative_to(PACKAGE) else None
        return self._local[filename]

    def _line_tracer(self, path: str):
        hits = self.hits.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        return local

    @contextlib.contextmanager
    def active(self):
        sys.settrace(self)
        threading.settrace(self)
        try:
            yield
        finally:
            sys.settrace(None)
            threading.settrace(None)


def _ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for n in lines:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def allowlisted(path: Path) -> dict[str, list[int]]:
    """For each `ALLOWLIST` text of the module at `path`, the executable
    lines that carry it."""
    module = path.relative_to(PACKAGE).as_posix()
    texts = {text for mod, text in ALLOWLIST if mod == module}
    found: dict[str, list[int]] = {text: [] for text in texts}
    source = path.read_text().splitlines()
    for n in sorted(executable_lines(path)):
        if (text := source[n - 1].strip()) in found:
            found[text].append(n)
    return found


def report(hits: dict[str, set[int]]) -> int:
    """Print the unreached lines per module; return how many are off the allowlist."""
    unlisted = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path)
        missed = lines - hits.get(str(path.resolve()), set())
        allowed = missed & {n for ns in allowlisted(path).values() for n in ns}
        rest = sorted(missed - allowed)
        unlisted += len(rest)
        name = path.relative_to(ROOT).as_posix()
        print(f"{name}: {len(rest)} of {len(lines)} executable lines unreached, {len(allowed)} more allowlisted")
        if rest:
            print(f"    {_ranges(rest)}")
        if allowed:
            print(f"    allowlisted: {_ranges(sorted(allowed))}")
    return unlisted


def run_bench() -> None:
    """Every job of the benchmark's workloads, once, as its child process
    would run it (solver seed 0).  `perfbench/jobs.py` is run as a path, so
    no bytecode is written under `perfbench/`."""
    jobs = runpy.run_path(str(ROOT / "perfbench" / "jobs.py"))
    with tempfile.TemporaryDirectory() as coeff_dir:
        for name, rows in jobs["COEFFS"].items():
            Path(coeff_dir, f"{name}.json").write_text(json.dumps(rows))
        for deck in jobs["WORKLOADS"].values():
            for job in deck:
                jobs["prepare"](job, coeff_dir, seed=0)()


def main(argv: list[str]) -> int:
    runs, pytest_args = argv, []
    if "--" in argv:
        cut = argv.index("--")
        runs, pytest_args = argv[:cut], argv[cut + 1 :]
    runs = runs or ["tier1", "sweep"]
    if unknown := set(runs) - {"tier1", "sweep", "bench"}:
        raise SystemExit(f"unknown run(s) {sorted(unknown)}; choose among tier1, sweep and bench")
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    tracer = LineTracer()
    code = 0
    with tracer.active():
        if "tier1" in runs:
            import pytest

            code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *pytest_args])
        if "sweep" in runs:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                runpy.run_path(str(ROOT / "tests" / "cli_sweep.py"), run_name="__main__")
        if "bench" in runs:
            run_bench()
    unlisted = report(tracer.hits)
    return int(code) or int(unlisted > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
