"""List the lines of src/twistlab that no run reaches, using only the
standard library (``sys.settrace``).

It runs the Tier-1 suite, the CLI sweep (``tests/cli_sweep.py``, with its
output discarded) or both, in this process, and records every line that a
frame of a ``src/twistlab`` module executes.  Then it prints, per module,
the executable lines (those the compiled code maps an instruction to) that
no frame reached:

    PYTHONPATH=src python tests/line_trace.py            # Tier-1 and the sweep
    PYTHONPATH=src python tests/line_trace.py sweep      # the sweep alone
    PYTHONPATH=src python tests/line_trace.py tier1 -- -k cocycles

Arguments after ``--`` go to pytest.  Child processes that tests start are
not traced, so code that only a subprocess runs is listed as unreached.
Tracing makes the suite about three times slower.  pytest does not collect
this file.
"""

from __future__ import annotations

import contextlib
import os
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twistlab"


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


def report(hits: dict[str, set[int]]) -> None:
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - hits.get(str(path.resolve()), set()))
        name = path.relative_to(ROOT).as_posix()
        print(f"{name}: {len(missed)} of {len(lines)} executable lines unreached")
        if missed:
            print(f"    {_ranges(missed)}")


def main(argv: list[str]) -> int:
    runs, pytest_args = argv, []
    if "--" in argv:
        cut = argv.index("--")
        runs, pytest_args = argv[:cut], argv[cut + 1 :]
    runs = runs or ["tier1", "sweep"]
    if unknown := set(runs) - {"tier1", "sweep"}:
        raise SystemExit(f"unknown run(s) {sorted(unknown)}; choose tier1 and/or sweep")
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
    report(tracer.hits)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
