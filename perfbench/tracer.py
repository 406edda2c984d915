"""Spans and counters around calls into twistlab's public functions.

`Tracer.install()` wraps the public entry points of each layer in place:
module-level functions are replaced at every binding a twistlab module
holds (``cli`` and ``fixtures`` import deciders by name), and methods are
replaced on every class that defines them (``SumZ`` and ``SumZ2`` override
``Group.ball``).  Hot primitives (``compose``, cocycle ``eval``, phase
multiply and export) only count calls; the layers above them record spans.

A span is ``[name, start, end, parent, job]``: start and end come from
``time.perf_counter``, parent is the index of the enclosing span on the same
thread (None at the top), job is the id of the benchmark job that made the
call.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter

DECIDERS = ("decide_kleppner", "decide_relative_kleppner", "check_condition_x", "classify")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording -----------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """True when a span of this name is open on the calling thread."""
        return any(self.spans[i][0] == name for i in self._stack())

    def spanned(self, name: str, fn, before=None, after=None):
        """Wrap fn in a span; `before(args, kwargs)` returns state handed to
        `after(state, args, kwargs, result)`, which adds counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            stack = self._stack()
            with self._lock:
                idx = len(self.spans)
                self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else None, self.job])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if after:
                after(state, args, kwargs, result)
            return result

        return wrapper

    def counted(self, key: str, fn):
        count = self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(key)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    @staticmethod
    def _rebind(original, replacement) -> None:
        """Replace every module-level binding of `original` in twistlab."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("twistlab"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)

    def _wrap_function(self, module, name: str, make) -> None:
        original = getattr(module, name)
        self._rebind(original, make(original))

    @staticmethod
    def _wrap_method(base: type, name: str, make) -> None:
        classes = [base]
        while classes:
            cls = classes.pop()
            classes.extend(cls.__subclasses__())
            if name in cls.__dict__:
                setattr(cls, name, make(cls.__dict__[name]))

    def install(self) -> None:
        from twistlab import (
            cocycles,
            fixtures,
            groups,
            growth,
            phase,
            regularity,
            spectral,
            verdicts,
        )

        # hot primitives: counts only
        self._wrap_method(groups.Group, "compose", lambda f: self.counted("groups.compose.calls", f))
        self._wrap_method(cocycles.Cocycle, "eval", lambda f: self.counted("cocycles.eval.calls", f))
        self._wrap_method(phase.Phase, "__mul__", lambda f: self.counted("phase.mul.calls", f))
        self._wrap_method(phase.Phase, "to_complex", lambda f: self.counted("phase.to_complex.calls", f))

        # ball enumeration: cache hits are calls that find the radius cached
        def ball_before(args, kwargs):
            group, radius = args[0], args[1] if len(args) > 1 else kwargs.get("radius")
            hit = radius in getattr(group, "_ball_cache", {})
            self.count("groups.ball.calls")
            self.count("groups.ball.hits", hit)
            return hit

        def ball_after(hit, args, kwargs, result):
            if not hit:
                self.count("groups.ball.nodes", len(result))

        self._wrap_method(
            groups.Group, "ball", lambda f: self.spanned("groups.ball", f, ball_before, ball_after)
        )
        for name in ("commuting_ball", "conjugacy_class_partial"):
            self._wrap_function(groups, name, lambda f, n=name: self.spanned(f"groups.{n}", f))

        # operator assembly and the norm solver
        def nnz(_, args, kwargs, result):
            self.count("spectral.build_truncated.nnz", result.matrix.nnz)

        def iterations(_, args, kwargs, result):
            self.count("spectral.operator_norm.iterations", result.iterations)

        self._wrap_function(
            spectral, "build_truncated", lambda f: self.spanned("spectral.build_truncated", f, after=nnz)
        )
        self._wrap_function(
            spectral, "operator_norm", lambda f: self.spanned("spectral.operator_norm", f, after=iterations)
        )

        # twisted convolution: pairs multiplied, exact attempts and results
        def conv_after(_, args, kwargs, result):
            f, xi = args[0], args[1]
            self.count("spectral.convolve_sigma.pairs", len(f.coeffs) * len(xi.coeffs))
            if f.exact and xi.exact:
                self.count("spectral.exact.attempts")
                if result.exact:
                    self.count("spectral.exact.results")

        self._wrap_function(
            spectral, "convolve_sigma", lambda f: self.spanned("spectral.convolve_sigma", f, after=conv_after)
        )

        # kernel scan: box vectors considered and regular vectors found
        def box_after(_, args, kwargs, result):
            window, height = args[1], args[2]
            self.count("regularity.box_scan.candidates", (2 * height + 1) ** (2 * window + 1) - 1)
            self.count("regularity.box_scan.solutions", len(result[0]))

        self._wrap_function(
            regularity,
            "regular_vectors_box_raw",
            lambda f: self.spanned("regularity.box_scan", f, after=box_after),
        )
        self._wrap_function(
            regularity,
            "regular_subgroup_generators",
            lambda f: self.spanned("regularity.generators", f),
        )
        self._wrap_function(
            regularity, "is_sigma_regular", lambda f: self.spanned("regularity.is_sigma_regular", f)
        )

        # deciders: verdicts of outermost calls, by how they were settled
        def decide_before(args, kwargs):
            return self.inside("verdicts.decide")

        def decide_after(nested, args, kwargs, result):
            if nested:
                return
            found = (
                [result.kleppner, result.unique_trace, result.cstar_simple]
                if hasattr(result, "kleppner")
                else [result]
            )
            for v in found:
                self.count("verdicts.requested")
                if v.status == "inconclusive":
                    self.count("verdicts.inconclusive")
                elif v.rule:
                    self.count("verdicts.by_rule")

        for name in DECIDERS:
            self._wrap_function(
                verdicts, name, lambda f: self.spanned("verdicts.decide", f, decide_before, decide_after)
            )

        self._wrap_function(
            growth, "class_growth_counts", lambda f: self.spanned("growth.class_growth_counts", f)
        )
        self._wrap_function(
            fixtures, "run_fixture_matrix", lambda f: self.spanned("fixtures.matrix", f)
        )


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def layer_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: `total`, the summed duration of outermost spans of that
    name (no ancestor of the same name), and `self`, the summed duration
    minus the time covered by direct child spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        row = out.setdefault(name, {"total": 0.0, "self": 0.0})
        row["self"] += (end - start) - child_time[i]
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            row["total"] += end - start
    return out


def searched_share(spans: list[list]) -> tuple[int, int]:
    """(regularity answers that fell back to the commuting-ball search, all
    regularity answers), from the span tree."""
    searched = set()
    for name, _, _, parent, _ in spans:
        if name != "groups.commuting_ball":
            continue
        p = parent
        while p is not None:
            if spans[p][0] == "regularity.is_sigma_regular":
                searched.add(p)
                break
            p = spans[p][3]
    total = sum(1 for s in spans if s[0] == "regularity.is_sigma_regular")
    return len(searched), total
