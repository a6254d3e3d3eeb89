"""Instrumentation the benchmark installs around ratiosect from outside.

Two kinds of wrapper are patched into the package's module namespaces, so
each module sees them exactly where it would call the original:

* :class:`SolveLog` wraps the six solver entry points.  It times every
  solver call and keeps what the call returned, so the benchmark can give
  per-solve latency and check each answer.  It is the only wrapper in an
  untraced run: two clock reads and one tuple per solve.
* :class:`Tracer` wraps every public function that crosses a layer
  boundary (see ``TRACED``) plus the target callable.  Each call is a span;
  when a span closes it is folded, in memory, into its name's totals: calls,
  total time, and self time (its duration minus the time covered by its
  child spans).  A layer's self time is the sum over its functions.
"""

from __future__ import annotations

import math
import time
from functools import partial
from typing import Any, Callable, NamedTuple

from ratiosect import (
    active_search,
    benchsuite,
    brent,
    classify,
    core,
    expressions,
    polyfit,
    section_search,
)

#: Modules whose namespaces are searched for the functions to wrap.
MODULES = (
    core, classify, section_search, active_search, brent,
    expressions, polyfit, benchsuite,
)

#: Solver entry point -> the method name ``MethodSpec`` uses for it.
SOLVERS: dict[Callable, str] = {
    section_search.minimize_bisection: "bisect",
    section_search.minimize_golden: "golden",
    section_search.minimize_ratio_p: "ratio-p",
    active_search.minimize_ratio_a: "ratio-a",
    brent.brent_minimize: "brent",
    brent.brent_m_minimize: "brent-m",
}

#: Every function a traced run wraps, with its span name ``<layer>.<function>``.
TRACED: dict[Callable, str] = {
    core.stop_test: "core.stop_test",
    classify.detect_flat_bottom: "classify.detect_flat_bottom",
    classify.detect_monotone: "classify.detect_monotone",
    active_search.parabola_vertex: "active_search.parabola_vertex",
    expressions.parse_expression: "expressions.parse_expression",
    polyfit.fit_polynomial: "polyfit.fit_polynomial",
    benchsuite.benchmark_function: "benchsuite.benchmark_function",
    benchsuite.run_benchmark: "benchsuite.run_benchmark",
    benchsuite.sweep_ratio_c: "benchsuite.sweep_ratio_c",
    **{fn: f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}" for fn in SOLVERS},
}

#: Layers in report order; ``target`` is the user's callable.
LAYERS = (
    "core", "classify", "section_search", "active_search", "brent",
    "expressions", "polyfit", "benchsuite", "target",
)


class Patches:
    """Rebinds functions in the package's namespaces; :meth:`restore` (or
    leaving the ``with`` block) puts the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []
        self._current: dict[Callable, Callable] = {}

    def function(self, original: Callable,
                 make_wrapper: Callable[[Callable], Callable]) -> None:
        """Wrap ``original`` (or the wrapper already around it) and rebind
        every module-level name that pointed to the old callable."""
        inner = self._current.get(original, original)
        wrapper = make_wrapper(inner)
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is inner:
                    self.attribute(module, attr, wrapper)
        self._current[original] = wrapper

    def attribute(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        self._current.clear()

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()


class Solve(NamedTuple):
    """What one solver call was asked and what it returned.

    ``config`` is the ``MethodSpec.label`` of the call (``ratio-p(c=0.2)``,
    ``brent``).  ``error`` holds the message of an ``EvaluationError``;
    ``x_min`` is then NaN and ``evaluations`` the partial count.
    """

    config: str
    lo: float
    hi: float
    evaluations: int
    x_min: float
    status: str
    error: str | None

    def same_answer(self, other: "Solve") -> bool:
        """Same problem, count, status and bit-identical ``x_min``."""
        return self[:4] + self[5:] == other[:4] + other[5:] and (
            self.x_min.hex() == other.x_min.hex()
        )


class SolveLog:
    """Times every solver call and keeps the current pass's answers.

    Solves are identified by their position in the pass, so the log keeps,
    for each position, the best (lowest) duration over all passes.  Inside
    the timed region a call only appends raw fields; :meth:`take_pass`
    turns them into :class:`Solve` records outside it.
    """

    def __init__(self) -> None:
        self.best_us: list[float] = []
        self.attempted = 0
        self._raw: list[tuple] = []

    def install(self, patches: Patches) -> None:
        for fn, method in SOLVERS.items():
            patches.function(fn, partial(self._wrap, method=method))

    def _wrap(self, fn: Callable, method: str) -> Callable:
        clock = time.perf_counter
        raw = self._raw

        def recorded(obj, interval, tol, *args, **kwargs):
            before = obj.count
            t0 = clock()
            try:
                out = fn(obj, interval, tol, *args, **kwargs)
            except core.EvaluationError as exc:
                raw.append((clock() - t0, method, args, kwargs, interval,
                            obj.count - before, math.nan, "error", str(exc)))
                raise
            raw.append((clock() - t0, method, args, kwargs, interval,
                        obj.count - before, out.x_min, out.status.value, None))
            return out

        return recorded

    def take_pass(self) -> list[Solve]:
        """The answers recorded since the last call, in call order."""
        best = self.best_us
        best.extend([math.inf] * (len(self._raw) - len(best)))
        solves = []
        for i, (seconds, method, args, kwargs, interval, spent, x_min, status,
                error) in enumerate(self._raw):
            best[i] = min(best[i], seconds * 1e6)
            cfg = args[0] if args else kwargs.get("cfg")
            c = benchsuite.MethodSpec(method).effective_c if cfg is None else cfg.c
            label = method if c is None else f"{method}(c={c:g})"
            solves.append(Solve(label, interval.lo, interval.hi, spent, x_min,
                                status, error))
        self.attempted += len(self._raw)
        self._raw.clear()
        return solves


class Tracer:
    """Per-name span totals plus the recognizer counters."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counters = {
            "flat_points_scanned": 0, "flat_hits": 0,
            "monotone_confirmed": 0, "monotone_probe_evals": 0,
        }
        # Time covered by the children of each open span, innermost last;
        # the bottom entry collects the root spans.
        self._open: list[int] = [0]

    def install(self, patches: Patches) -> None:
        counters = self.counters

        def flat_after(args, result, _):
            counters["flat_points_scanned"] += len(args[0])
            counters["flat_hits"] += result is not None

        def monotone_before(args):
            return args[2].count

        def monotone_after(args, result, count_before):
            counters["monotone_probe_evals"] += args[2].count - count_before
            counters["monotone_confirmed"] += result is not None

        hooks = {
            classify.detect_flat_bottom: (None, flat_after),
            classify.detect_monotone: (monotone_before, monotone_after),
        }
        for fn, name in TRACED.items():
            before, after = hooks.get(fn, (None, None))
            patches.function(fn, partial(self.wrap, name, before=before, after=after))
        cls = core.CountingObjective
        patches.attribute(cls, "evaluate", self.wrap("core.evaluate", cls.evaluate))
        # Every target reaches the solvers through the wrapper's constructor.
        init = cls.__init__
        wrap = self.wrap
        patches.attribute(cls, "__init__",
                          lambda obj, target: init(obj, wrap("target.call", target)))

    def wrap(self, name: str, fn: Callable, before: Callable | None = None,
             after: Callable | None = None) -> Callable:
        """``fn`` traced as span ``name``; the hooks update counters outside
        the span."""
        for table in (self.calls, self.total_ns, self.self_ns):
            table.setdefault(name, 0)
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns
        open_spans = self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            open_spans.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                children = open_spans.pop()
                open_spans[-1] += span
                calls[name] += 1
                total_ns[name] += span
                self_ns[name] += span - children
            if after is not None:
                after(args, result, state)
            return result

        return traced

    def layer_self_ns(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for name, ns in self.self_ns.items():
            out[name.split(".", 1)[0]] += ns
        return out
