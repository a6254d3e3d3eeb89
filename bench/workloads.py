"""The three benchmark workloads and the oracles that check their answers.

A workload is a list of *units*, callables that each drive the public API
of ratiosect; one pass runs every unit once, and every pass issues the same
solves in the same order (its *plan*).  :meth:`Workload.check` compares one
pass's recorded solves with the plan and an oracle: a solve *fails* if it
raised ``EvaluationError``, ended ``budget_exhausted`` or missed its oracle.
A *problem* makes the whole run invalid: the solves deviate from the plan,
a count disagrees with ``tests/data/measured_counts.csv``, or what
``run_benchmark`` or ``sweep_ratio_c`` returned disagrees with the solves
behind it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from ratiosect import (
    CountingObjective,
    EvaluationError,
    Interval,
    MethodSpec,
    RatioConfig,
    Tolerance,
    active_search,
    benchmark_function,
    benchsuite,
    brent,
    e0,
    expressions,
    load_reference_minimizer,
    section_search,
)

from randexpr import draw_targets
from tracing import Solve

SUITE_TOL = Tolerance()

#: The paper's seven reference configurations, in table order.
SUITE_CONFIGS = (
    MethodSpec("bisect"),
    MethodSpec("golden"),
    MethodSpec("ratio-p", 0.5),
    MethodSpec("ratio-p", 0.2),
    MethodSpec("ratio-a", 0.001),
    MethodSpec("brent"),
    MethodSpec("brent-m", 0.2),
)

#: Staircase defects of the double-precision build, each a failed solve
#: that is counted, not excluded: the flat-bottom rule or bisection's tie
#: rule settles on a quantization step of the wall (release-gate C2).
KNOWN_DEFECTS = frozenset({
    ("suite", "bisect", "f14"),
    ("suite", "brent-m(c=0.2)", "f10"),
    ("sweep-c", "ratio-p(c=0.03)", "f14"),
})

#: random-expr: conditioned targets per pass, their tolerance, and the six
#: solvers at their default ratio (label, module, entry point, extra args).
RANDOM_TARGETS = 3000
RANDOM_TOL = Tolerance(max_evaluations=50_000)
RANDOM_SOLVERS = (
    ("bisect", section_search, "minimize_bisection", ()),
    ("golden", section_search, "minimize_golden", ()),
    ("ratio-p(c=0.2)", section_search, "minimize_ratio_p", (RatioConfig(0.2),)),
    ("ratio-a(c=0.001)", active_search, "minimize_ratio_a", (RatioConfig(1e-3),)),
    ("brent", brent, "brent_minimize", ()),
    ("brent-m(c=0.2)", brent, "brent_m_minimize", (RatioConfig(0.2),)),
)


@dataclass(frozen=True)
class Planned:
    """One solve a pass issues: its configuration, problem and interval."""

    config: str
    problem: str
    interval: Interval


@dataclass(frozen=True)
class Failure:
    workload: str
    config: str
    problem: str
    reason: str

    @property
    def known(self) -> bool:
        return (self.workload, self.config, self.problem) in KNOWN_DEFECTS


class Workload:
    """Subclasses set the attributes and define :meth:`miss`.

    :meth:`check_outputs` looks at what the experiment function returned
    on the latest pass; the runner fails the run separately if any pass's
    solves differ from the first pass's.
    """

    name: str
    plan: list[Planned]
    units: list[Callable[[], object]]
    #: Written into the result file alongside the metrics.
    inputs: dict

    def check(self, solves: list[Solve]) -> tuple[list[Failure], list[str]]:
        """Failed solves and run-invalidating problems of one full pass."""
        got = [(s.config, s.lo, s.hi) for s in solves]
        want = [(p.config, p.interval.lo, p.interval.hi) for p in self.plan]
        if got != want:
            return [], [f"{self.name}: the pass issued {len(got)} solves that "
                        f"differ from its plan of {len(want)}"]
        failures = []
        for solve, planned in zip(solves, self.plan):
            reason = solve.error or (
                solve.status if solve.status != "converged"
                else self.miss(planned.problem, solve.x_min)
            )
            if reason:
                failures.append(Failure(self.name, planned.config,
                                        planned.problem, reason))
        return failures, self.check_outputs(solves)

    def miss(self, problem: str, x_min: float) -> str | None:
        """Why ``x_min`` misses the problem's oracle, or ``None``."""
        raise NotImplementedError

    def check_outputs(self, solves: list[Solve]) -> list[str]:
        return []


def suite_miss(problem: str, x_min: float) -> str | None:
    """Within ``10*e0`` of the frozen minimizer, widened to its plateau."""
    ref = load_reference_minimizer(int(problem[1:]))
    bound = 10.0 * e0(SUITE_TOL, ref.x)
    if ref.plateau is not None:
        err = max(0.0, ref.plateau.lo - x_min, x_min - ref.plateau.hi)
    else:
        err = abs(x_min - ref.x)
    if err > bound:
        return f"x_min={x_min!r} is {err:.3e} from the oracle (allowed {bound:.1e})"
    return None


class Suite(Workload):
    """The paper's table: seven configurations on all 20 problems."""

    name = "suite"
    miss = staticmethod(suite_miss)

    def __init__(self, root: Path, seed: int):
        self.ids = tuple(range(1, 21))
        self.plan = [
            Planned(spec.label, f"f{fid}", benchmark_function(fid).interval)
            for spec in SUITE_CONFIGS for fid in self.ids
        ]
        self.units = [self._pass]
        self.inputs = {"configs": [s.label for s in SUITE_CONFIGS],
                       "ids": list(self.ids)}
        self.report = None
        path = root / "tests" / "data" / "measured_counts.csv"
        with path.open(newline="") as fh:
            self.measured = {
                (row["config"], f"f{row['function_id']}"): int(row["evaluations"])
                for row in csv.DictReader(fh)
            }

    def _pass(self) -> None:
        self.report = benchsuite.run_benchmark(SUITE_CONFIGS, self.ids)

    def check_outputs(self, solves: list[Solve]) -> list[str]:
        problems = []
        rows = self.report.rows
        for row, solve, planned in zip(rows, solves, self.plan):
            key = (planned.config, planned.problem)
            if (row.method, f"f{row.fid}") != key or row.evaluations != solve.evaluations:
                problems.append(f"suite: report row {row} disagrees with its solve")
            if self.measured.get(key) != solve.evaluations:
                problems.append(
                    f"suite: {key[0]}/{key[1]} took {solve.evaluations} "
                    f"evaluations, measured_counts.csv says {self.measured.get(key)}"
                )
        if len(rows) != len(self.plan) or len(self.measured) != len(self.plan):
            problems.append(f"suite: {len(rows)} report rows, "
                            f"{len(self.measured)} measured counts, "
                            f"{len(self.plan)} planned solves")
        return problems


class SweepC(Workload):
    """``sweep_ratio_c`` over ids 7-20, c = 0.01 ... 0.80 step 0.01."""

    name = "sweep-c"
    miss = staticmethod(suite_miss)

    def __init__(self, root: Path, seed: int):
        self.ids = tuple(range(7, 21))
        self.cs = [0.01 + i * 0.01 for i in range(80)]
        intervals = {fid: benchmark_function(fid).interval for fid in self.ids}
        self.plan = [
            Planned(f"ratio-p(c={c:g})", f"f{fid}", intervals[fid])
            for c in self.cs for fid in self.ids
        ]
        self.units = [self._pass]
        self.inputs = {"ids": list(self.ids), "c": [0.01, 0.80, 0.01],
                       "fit_degree": 5}
        self.result = None

    def _pass(self) -> None:
        self.result = benchsuite.sweep_ratio_c(self.ids)

    def check_outputs(self, solves: list[Solve]) -> list[str]:
        samples, poly = self.result
        per_c = len(self.ids)
        want = [
            (c, sum(s.evaluations for s in solves[i * per_c:(i + 1) * per_c]) / per_c)
            for i, c in enumerate(self.cs)
        ]
        problems = []
        if samples != want:
            problems.append("sweep-c: the (c, mean count) samples disagree "
                            "with the solves behind them")
        if poly.degree != 5 or not all(map(math.isfinite, poly.coefficients)):
            problems.append(f"sweep-c: bad smoothing fit {poly}")
        return problems


class RandomExpr(Workload):
    """Seeded ``a*|x - v|^p + k`` targets, parsed from text, six solvers."""

    name = "random-expr"

    def __init__(self, root: Path, seed: int):
        self.targets = draw_targets(seed, RANDOM_TARGETS, RANDOM_TOL)
        self.plan = [
            Planned(label, f"target {i}", t.interval)
            for i, t in enumerate(self.targets) for label, *_ in RANDOM_SOLVERS
        ]
        self.units = [partial(self._solve, t) for t in self.targets]
        self.inputs = {"seed": seed, "targets": RANDOM_TARGETS,
                       "max_evaluations": RANDOM_TOL.max_evaluations}
        self._by_problem = {f"target {i}": t for i, t in enumerate(self.targets)}

    @staticmethod
    def _solve(target) -> None:
        f = expressions.parse_expression(target.text)
        for _, module, entry, extra in RANDOM_SOLVERS:
            try:
                getattr(module, entry)(CountingObjective(f), target.interval,
                                       RANDOM_TOL, *extra)
            except EvaluationError:
                pass  # recorded by the solve log and failed by the check

    def miss(self, problem: str, x_min: float) -> str | None:
        t = self._by_problem[problem]
        if abs(x_min - t.v) > t.slack:
            return (f"x_min={x_min!r} is {abs(x_min - t.v):.3e} from v={t.v!r} "
                    f"(slack {t.slack:.1e}) on {t.text}")
        return None


WORKLOADS: dict[str, Callable[[Path, int], Workload]] = {
    "suite": Suite,
    "sweep-c": SweepC,
    "random-expr": RandomExpr,
}
