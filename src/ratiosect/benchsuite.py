"""The 20-problem benchmark suite, its reference data, and the experiments.

The suite pairs each problem id (1–20) with an evaluator, an uncertainty
interval, a class label (one constant, two monotone, three flat-bottomed,
fourteen strictly unimodal), published reference evaluation counts for
seven solver configurations, and an independently computed reference
minimizer.  Everything but the evaluators lives in the plain-text fixtures
file ``data/reference_data.txt``; the evaluators are authored here to
mirror the fixture expression strings operation for operation, so parsing
the expression and calling the built-in evaluator agree bit for bit.

Experiments:

* :func:`run_benchmark` — evaluation-count comparison across methods.
* :func:`sweep_ratio_c` — mean count vs. section ratio ``c``, smoothed
  with a degree-5 least-squares polynomial.
* :func:`sweep_ratio_a_exponent` — active-search totals for
  ``c = 10**(j/2)``, ``j = -15 … -2``.
* :func:`reference_minimizer` — the grid + golden-refinement oracle used
  to freeze the fixture minimizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Callable, Mapping, Sequence

from .active_search import minimize_ratio_a
from .brent import brent_m_minimize, brent_minimize
from .core import (
    CountingObjective,
    EvaluationError,
    FunctionClass,
    Interval,
    MinimizeOutcome,
    Point2,
    Tolerance,
)
from .polyfit import Polynomial, fit_polynomial
from .section_search import (
    GOLDEN_RATIO,
    RatioConfig,
    minimize_bisection,
    minimize_golden,
    minimize_ratio_p,
)

__all__ = [
    "BenchFunction",
    "BenchReport",
    "BenchRow",
    "MethodSpec",
    "ReferenceMinimizer",
    "benchmark_function",
    "benchmark_suite",
    "load_reference_minimizer",
    "reference_minimizer",
    "run_benchmark",
    "sweep_ratio_a_exponent",
    "sweep_ratio_c",
]

# Evaluators mirror the fixture expression strings operation for
# operation (same operators, same literal constants, powers via ``**``
# with float exponents) — the CLI parser must reproduce these bit for bit.
_EVALUATORS: dict[int, Callable[[float], float]] = {
    1: lambda x: 1.0,
    2: lambda x: 20.0 + 16.0 / x,
    3: lambda x: 1.5 + math.exp(x),
    4: lambda x: 1.5 + max(4.0 * math.cos(x), 1.0),
    5: lambda x: 1.2 + max(5.0 * math.exp(x) - 1.0, 1.0),
    6: lambda x: 1.5 + max(math.cos(4.0 - x ** 2.0), 0.5),
    7: lambda x: 1.5 + max(math.exp(-x), math.cos(x), x ** 4.0, x ** 2.0),
    8: lambda x: 0.2 + max(13.0 * (x - 2.0) ** 2.0, 20.0 * (x - 1.0)),
    9: lambda x: 1.2 + abs(x - 1.0),
    10: lambda x: 12.0 + 1000.0 * abs(x - 2.0) ** 8.4,
    11: lambda x: 0.3 + math.cos(x ** 2.0 + 2.0 * x - 3.0),
    12: lambda x: 0.2 + (x - 1.5) ** 2.0,
    13: lambda x: 100.0 + (1.0 - math.exp(x) * math.sin(x)) ** 2.0,
    14: lambda x: 1.2 - math.cos(x ** 2.0),
    15: lambda x: 1.2 + 5.0 * math.exp(-(x ** 2.0)) + x,
    16: lambda x: 1.2 + math.exp(-x) + 3.5 * math.sin(x),
    17: lambda x: 2.3 + 3.0 * math.exp(x) - x ** 2.0 + 5.0 * x,
    18: lambda x: 1.2 + 3.0 * math.cosh(x - 2.0) - 2.0 * math.sinh(x - 3.0),
    19: lambda x: 2.3 + (math.exp(3.0 - x) + 4.0 * (x - 2.0)) ** 2.0,
    20: lambda x: 1.2 + abs(x - 2.0) ** 3.6,
}

#: Fixture column keys for the reference-count table, in file order.
COUNT_KEYS = (
    "bisect",
    "golden",
    "ratio_p_c05",
    "ratio_p_c02",
    "ratio_a_c001",
    "brent",
    "brent_m_c02",
)

METHOD_NAMES = ("bisect", "golden", "ratio-p", "ratio-a", "brent", "brent-m")

_DEFAULT_C = {"ratio-p": 0.2, "ratio-a": 1e-3, "brent-m": 0.2}


@dataclass(frozen=True)
class BenchFunction:
    """One benchmark problem."""

    fid: int
    expression: str
    interval: Interval
    class_label: FunctionClass
    reference_counts: Mapping[str, int]
    evaluator: Callable[[float], float]


@dataclass(frozen=True)
class ReferenceMinimizer:
    """Frozen oracle result: minimizer, minimum, optional plateau."""

    x: float
    f: float
    plateau: Interval | None


@dataclass(frozen=True)
class MethodSpec:
    """A solver selection: method name plus, where applicable, the ratio.

    ``c`` must be omitted for ``bisect``, ``golden`` and ``brent``; for the
    ratio-taking methods it defaults to 0.2 (``ratio-p``, ``brent-m``) or
    0.001 (``ratio-a``).
    """

    name: str
    c: float | None = None

    def __post_init__(self) -> None:
        if self.name not in METHOD_NAMES:
            raise ValueError(f"unknown method {self.name!r}")
        if self.c is not None and self.name not in _DEFAULT_C:
            raise ValueError(f"method {self.name!r} takes no ratio parameter")

    @property
    def effective_c(self) -> float | None:
        if self.name in _DEFAULT_C:
            return self.c if self.c is not None else _DEFAULT_C[self.name]
        return None

    @property
    def label(self) -> str:
        c = self.effective_c
        return self.name if c is None else f"{self.name}(c={c:g})"

    @property
    def reference_key(self) -> str | None:
        """Fixture count-column key for this configuration, if one exists."""
        c = self.effective_c
        match (self.name, c):
            case ("bisect", None):
                return "bisect"
            case ("golden", None):
                return "golden"
            case ("ratio-p", 0.5):
                return "ratio_p_c05"
            case ("ratio-p", 0.2):
                return "ratio_p_c02"
            case ("ratio-a", 0.001):
                return "ratio_a_c001"
            case ("brent", None):
                return "brent"
            case ("brent-m", 0.2):
                return "brent_m_c02"
        return None


@dataclass(frozen=True)
class BenchRow:
    method: str
    fid: int
    evaluations: int
    x_min: float
    f_min: float
    classification: str
    status: str


@dataclass(frozen=True)
class BenchReport:
    """Rows in (method, id) order plus per-method totals and the pairwise
    total ratios."""

    rows: tuple[BenchRow, ...]
    totals: Mapping[str, int]
    ratios: Mapping[tuple[str, str], float]


@lru_cache(maxsize=1)
def _load_fixtures() -> tuple[
    dict[int, tuple[float, float, str, str]],
    dict[int, tuple[int, ...]],
    dict[int, tuple[float, float, float | None, float | None]],
]:
    functions: dict[int, tuple[float, float, str, str]] = {}
    counts: dict[int, tuple[int, ...]] = {}
    minimizers: dict[int, tuple[float, float, float | None, float | None]] = {}
    text = resources.files("ratiosect").joinpath("data/reference_data.txt").read_text()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, rest = line.split(None, 1)
        if kind == "function":
            fid_s, lo_s, hi_s, label, expression = rest.split(None, 4)
            functions[int(fid_s)] = (float(lo_s), float(hi_s), label, expression)
        elif kind == "counts":
            fields = rest.split()
            counts[int(fields[0])] = tuple(int(v) for v in fields[1:])
        elif kind == "minimizer":
            fid_s, x_s, f_s, plo_s, phi_s = rest.split()
            minimizers[int(fid_s)] = (
                float(x_s),
                float(f_s),
                None if plo_s == "-" else float(plo_s),
                None if phi_s == "-" else float(phi_s),
            )
        else:
            raise ValueError(f"unknown fixture record kind {kind!r}")
    return functions, counts, minimizers


def benchmark_function(fid: int) -> BenchFunction:
    """Look up one of the 20 suite problems by id."""
    functions, counts, _ = _load_fixtures()
    if fid not in functions:
        raise ValueError(f"benchmark id must be 1..20, got {fid!r}")
    lo, hi, label, expression = functions[fid]
    return BenchFunction(
        fid=fid,
        expression=expression,
        interval=Interval(lo, hi),
        class_label=FunctionClass(label),
        reference_counts=dict(zip(COUNT_KEYS, counts[fid])),
        evaluator=_EVALUATORS[fid],
    )


def benchmark_suite() -> list[BenchFunction]:
    return [benchmark_function(fid) for fid in range(1, 21)]


def load_reference_minimizer(fid: int) -> ReferenceMinimizer:
    """Frozen oracle minimizer for a suite problem (from the fixtures)."""
    _, _, minimizers = _load_fixtures()
    if fid not in minimizers:
        raise ValueError(f"no frozen reference minimizer for id {fid!r}")
    x, f, plo, phi = minimizers[fid]
    plateau = None if plo is None else Interval(plo, phi)
    return ReferenceMinimizer(x=x, f=f, plateau=plateau)


def solve_one(
    spec: MethodSpec,
    obj: CountingObjective,
    interval: Interval,
    tol: Tolerance,
) -> MinimizeOutcome:
    """Run the solver selected by ``spec`` on one objective."""
    if spec.name == "bisect":
        return minimize_bisection(obj, interval, tol)
    if spec.name == "golden":
        return minimize_golden(obj, interval, tol)
    if spec.name == "ratio-p":
        return minimize_ratio_p(obj, interval, tol, RatioConfig(spec.effective_c))
    if spec.name == "ratio-a":
        return minimize_ratio_a(obj, interval, tol, RatioConfig(spec.effective_c))
    if spec.name == "brent":
        return brent_minimize(obj, interval, tol)
    if spec.name == "brent-m":
        return brent_m_minimize(obj, interval, tol, RatioConfig(spec.effective_c))
    raise ValueError(f"unknown method {spec.name!r}")


def run_benchmark(
    methods: Sequence[MethodSpec],
    ids: Sequence[int],
    tol: Tolerance | None = None,
) -> BenchReport:
    """Run every (method, id) cell with a fresh objective wrapper.

    A cell whose objective fails to evaluate is recorded with status
    ``failed`` (its partial count still enters the totals) instead of
    aborting the whole run.
    """
    if not methods or not ids:
        raise ValueError("need at least one method and one function id")
    tol = tol or Tolerance()
    problems = [benchmark_function(fid) for fid in ids]
    rows: list[BenchRow] = []
    for spec in methods:
        for bf in problems:
            obj = CountingObjective(bf.evaluator)
            try:
                out = solve_one(spec, obj, bf.interval, tol)
            except EvaluationError:
                rows.append(BenchRow(
                    spec.label, bf.fid, obj.count, math.nan, math.nan, "", "failed",
                ))
                continue
            rows.append(BenchRow(
                spec.label, bf.fid, out.evaluations, out.x_min, out.f_min,
                out.classification.value, out.status.value,
            ))
    totals: dict[str, int] = {}
    for row in rows:
        totals[row.method] = totals.get(row.method, 0) + row.evaluations
    ratios = {
        (la, lb): totals[la] / totals[lb]
        for la in totals
        for lb in totals
        if la != lb and totals[lb] > 0
    }
    return BenchReport(rows=tuple(rows), totals=totals, ratios=ratios)


def sweep_ratio_c(
    ids: Sequence[int],
    c_from: float = 0.01,
    c_to: float = 0.80,
    step: float = 0.01,
    tol: Tolerance | None = None,
    fit_degree: int = 5,
) -> tuple[list[tuple[float, float]], Polynomial]:
    """Mean evaluation count of the passive ratio solver vs. the ratio c.

    Returns the ``(c, mean count)`` samples and the least-squares smoothing
    polynomial fitted through them.  A sample where some objective fails is
    dropped rather than failing the sweep.
    """
    if not 0.0 < c_from < c_to < 1.0:
        raise ValueError("need 0 < c_from < c_to < 1")
    tol = tol or Tolerance()
    problems = [benchmark_function(fid) for fid in ids]
    samples: list[tuple[float, float]] = []
    steps = int(round((c_to - c_from) / step))
    for i in range(steps + 1):
        c = c_from + i * step
        if c > c_to + 0.5 * step:
            break
        try:
            total = 0
            for bf in problems:
                obj = CountingObjective(bf.evaluator)
                out = minimize_ratio_p(obj, bf.interval, tol, RatioConfig(c))
                total += out.evaluations
        except EvaluationError:
            continue
        samples.append((c, total / len(problems)))
    poly = fit_polynomial([Point2(c, k) for c, k in samples], fit_degree)
    return samples, poly


def sweep_ratio_a_exponent(
    ids: Sequence[int],
    j_from: int = -15,
    j_to: int = -2,
    tol: Tolerance | None = None,
) -> list[tuple[int, float, int]]:
    """Active-search totals for ``c = 10**(j/2)`` over integer ``j``.

    Returns ``(j, c, total evaluations)`` rows.
    """
    if not -15 <= j_from <= j_to <= -2:
        raise ValueError("need -15 <= j_from <= j_to <= -2")
    tol = tol or Tolerance()
    problems = [benchmark_function(fid) for fid in ids]
    rows: list[tuple[int, float, int]] = []
    for j in range(j_from, j_to + 1):
        c = 10.0 ** (j / 2.0)
        try:
            total = 0
            for bf in problems:
                obj = CountingObjective(bf.evaluator)
                out = minimize_ratio_a(obj, bf.interval, tol, RatioConfig(c))
                total += out.evaluations
        except EvaluationError:
            continue
        rows.append((j, c, total))
    return rows


def _golden_refine(
    f: Callable[[float], float], a: float, b: float, width: float = 1e-12
) -> float:
    x1 = b - GOLDEN_RATIO * (b - a)
    x2 = a + GOLDEN_RATIO * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > width:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN_RATIO * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN_RATIO * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def _edge_bisect(
    f: Callable[[float], float],
    inside: float,
    outside: float,
    level: float,
    iterations: int = 80,
) -> float:
    """Boundary of the region where ``f(x) == level`` exactly, between a
    point inside it and a point outside it."""
    for _ in range(iterations):
        mid = 0.5 * (inside + outside)
        if mid == inside or mid == outside:
            break
        if f(mid) == level:
            inside = mid
        else:
            outside = mid
    return inside


def reference_minimizer(
    fid: int, grid_points: int = 1_000_000
) -> tuple[float, float, Interval | None]:
    """Independent oracle: dense grid scan plus golden refinement.

    Scans ``grid_points + 1`` equispaced abscissas (endpoints exact),
    tracking the bit-exact minimum ordinate.  Three or more grid points
    sharing the minimum mean a plateau: its edges are located by bisection
    and the plateau interval is returned alongside its midpoint.  A
    singleton (or a symmetric tie pair) is refined by golden section down
    to an interval of width 1e-12; a minimum on an interval endpoint is
    returned as that exact endpoint.
    """
    bf = benchmark_function(fid)
    f = bf.evaluator
    lo, hi = bf.interval.lo, bf.interval.hi
    n = grid_points
    h = (hi - lo) / n

    best_y = math.inf
    first = last = -1
    hits = 0
    for i in range(n + 1):
        if i == 0:
            x = lo
        elif i == n:
            x = hi
        else:
            x = lo + i * h
        y = f(x)
        if y < best_y:
            best_y = y
            first = last = i
            hits = 1
        elif y == best_y:
            last = i
            hits += 1

    def grid_x(i: int) -> float:
        if i <= 0:
            return lo
        if i >= n:
            return hi
        return lo + i * h

    if hits >= 3:
        # A genuine plateau.  Its edges lie between the outermost hits and
        # their non-hit neighbors.
        left = grid_x(first)
        if first > 0:
            left = _edge_bisect(f, left, grid_x(first - 1), best_y)
        right = grid_x(last)
        if last < n:
            right = _edge_bisect(f, right, grid_x(last + 1), best_y)
        plateau = Interval(left, right)
        return plateau.midpoint, best_y, plateau

    if first == 0 and last == 0:
        return lo, best_y, None
    if first == n and last == n:
        return hi, best_y, None
    x_star = _golden_refine(f, grid_x(first - 1), grid_x(last + 1))
    return x_star, f(x_star), None
