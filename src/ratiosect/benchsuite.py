"""The 20-problem benchmark suite, its reference data, and the experiments.

The suite pairs each problem id (1–20) with an evaluator, an uncertainty
interval, a class label (one constant, two monotone, three flat-bottomed,
fourteen strictly unimodal), published reference evaluation counts for
seven solver configurations, and an independently computed reference
minimizer, read back by :func:`load_reference_minimizer`.  Everything but
the evaluators lives in the plain-text fixtures file
``data/reference_data.txt``, read once into the records; the evaluators are authored here to mirror the
fixture expression strings operation for operation, so parsing the
expression and calling the built-in evaluator agree bit for bit.  The
dense-grid oracle that froze the minimizers is not part of the package: it
is ``scripts/freeze_reference_minimizers.py``, which rewrites them.

The records (:class:`BenchFunction`, :class:`ReferenceMinimizer`,
:class:`MethodSpec`, :class:`BenchReport`) are immutable slot classes;
:class:`BenchRow` is a ``NamedTuple``.

Experiments:

* :func:`run_benchmark` — evaluation-count comparison across methods.
* :func:`sweep_ratio_c` — mean count vs. section ratio ``c``, smoothed
  with a degree-5 least-squares polynomial.
* :func:`sweep_ratio_a_exponent` — active-search totals for
  ``c = 10**(j/2)``, ``j = -15 … -2``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from importlib import resources
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

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
    _Record,
)
from .polyfit import Polynomial, fit_polynomial
from .section_search import (
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

METHOD_NAMES = ("bisect", "golden", "ratio-p", "ratio-a", "brent", "brent-m")

_DEFAULT_C = {"ratio-p": 0.2, "ratio-a": 1e-3, "brent-m": 0.2}


class BenchFunction(_Record):
    """One benchmark problem; :func:`benchmark_function` builds each once,
    with read-only ``reference_counts``."""

    __slots__ = ("fid", "expression", "interval", "class_label",
                 "reference_counts", "evaluator")

    def __init__(self, fid: int, expression: str, interval: Interval,
                 class_label: FunctionClass, reference_counts: Mapping[str, int],
                 evaluator: Callable[[float], float]) -> None:
        super().__init__(fid, expression, interval, class_label, reference_counts,
                         evaluator)


class ReferenceMinimizer(_Record):
    """Frozen oracle result: minimizer, minimum, optional plateau."""

    __slots__ = ("x", "f", "plateau")

    def __init__(self, x: float, f: float, plateau: Interval | None) -> None:
        super().__init__(x, f, plateau)


class MethodSpec(_Record):
    """A solver selection: method name plus, where applicable, the ratio.

    ``c`` must be omitted for ``bisect``, ``golden`` and ``brent``; for the
    ratio-taking methods it defaults to 0.2 (``ratio-p``, ``brent-m``) or
    0.001 (``ratio-a``).
    """

    __slots__ = ("name", "c")

    def __init__(self, name: str, c: float | None = None) -> None:
        if name not in METHOD_NAMES:
            raise ValueError(f"unknown method {name!r}")
        if c is not None and name not in _DEFAULT_C:
            raise ValueError(f"method {name!r} takes no ratio parameter")
        super().__init__(name, c)

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
        return _REFERENCE_KEYS.get((self.name, self.effective_c))


#: The configurations with published reference counts: fixture
#: count-column key -> solver selection, in file order.
REFERENCE_CONFIGS = {
    "bisect": MethodSpec("bisect"),
    "golden": MethodSpec("golden"),
    "ratio_p_c05": MethodSpec("ratio-p", 0.5),
    "ratio_p_c02": MethodSpec("ratio-p", 0.2),
    "ratio_a_c001": MethodSpec("ratio-a", 0.001),
    "brent": MethodSpec("brent"),
    "brent_m_c02": MethodSpec("brent-m", 0.2),
}
COUNT_KEYS = tuple(REFERENCE_CONFIGS)
_REFERENCE_KEYS = {(spec.name, spec.effective_c): key
                   for key, spec in REFERENCE_CONFIGS.items()}


class BenchRow(NamedTuple):
    """One (method, id) cell of a :class:`BenchReport`: an immutable tuple."""

    method: str
    fid: int
    evaluations: int
    x_min: float
    f_min: float
    classification: str
    status: str


class BenchReport(_Record):
    """Rows in (method, id) order plus per-method totals and the pairwise
    total ratios."""

    __slots__ = ("rows", "totals", "ratios")

    def __init__(self, rows: tuple[BenchRow, ...], totals: Mapping[str, int],
                 ratios: Mapping[tuple[str, str], float]) -> None:
        super().__init__(rows, totals, ratios)


@lru_cache(maxsize=1)
def _fixtures() -> tuple[dict[int, BenchFunction], dict[int, ReferenceMinimizer]]:
    """One pass over ``data/reference_data.txt``: every suite problem and
    every frozen reference minimizer, built once as records, by id."""
    functions: dict[int, tuple[str, Interval, FunctionClass]] = {}
    counts: dict[int, Mapping[str, int]] = {}
    minimizers: dict[int, ReferenceMinimizer] = {}
    text = resources.files("ratiosect").joinpath("data/reference_data.txt").read_text()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, rest = line.split(None, 1)
        if kind == "function":
            fid_s, lo_s, hi_s, label, expression = rest.split(None, 4)
            functions[int(fid_s)] = (expression, Interval(float(lo_s), float(hi_s)),
                                     FunctionClass(label))
        elif kind == "counts":
            fid_s, *values = rest.split()
            counts[int(fid_s)] = MappingProxyType(dict(zip(COUNT_KEYS, map(int, values))))
        elif kind == "minimizer":
            fid_s, x_s, f_s, plo_s, phi_s = rest.split()
            plateau = None if plo_s == "-" else Interval(float(plo_s), float(phi_s))
            minimizers[int(fid_s)] = ReferenceMinimizer(float(x_s), float(f_s), plateau)
        else:
            raise ValueError(f"unknown fixture record kind {kind!r}")
    problems = {fid: BenchFunction(fid, *fields, counts[fid], _EVALUATORS[fid])
                for fid, fields in functions.items()}
    return problems, minimizers


def benchmark_function(fid: int) -> BenchFunction:
    """Look up one of the 20 suite problems by id; every call for an id
    returns the same object."""
    # The tables are keyed by int: True or 2.0 would find ids 1 and 2.
    is_id = fid.__class__ is not bool and isinstance(fid, int)
    problem = _fixtures()[0].get(fid) if is_id else None
    if problem is None:
        raise ValueError(f"benchmark id must be 1..20, got {fid!r}")
    return problem


def benchmark_suite() -> list[BenchFunction]:
    return [benchmark_function(fid) for fid in range(1, 21)]


def load_reference_minimizer(fid: int) -> ReferenceMinimizer:
    """Frozen oracle minimizer for a suite problem (from the fixtures);
    every call for an id returns the same record."""
    is_id = fid.__class__ is not bool and isinstance(fid, int)
    minimizer = _fixtures()[1].get(fid) if is_id else None
    if minimizer is None:
        raise ValueError(f"no frozen reference minimizer for id {fid!r}")
    return minimizer


def _solver(spec: MethodSpec) -> tuple[Callable[..., MinimizeOutcome], tuple]:
    """The solver ``spec`` selects and the arguments it takes after
    ``(obj, interval, tol)``: none, or the ``RatioConfig``, positionally.

    The solvers are looked up in this module's namespace on every call,
    never in a table built at import, so a solver rebound here (as a
    profiler does) is the one run.
    """
    solve = {
        "bisect": minimize_bisection,
        "golden": minimize_golden,
        "ratio-p": minimize_ratio_p,
        "ratio-a": minimize_ratio_a,
        "brent": brent_minimize,
        "brent-m": brent_m_minimize,
    }[spec.name]
    c = spec.effective_c
    return solve, () if c is None else (RatioConfig(c),)


def solve_one(
    spec: MethodSpec,
    obj: CountingObjective,
    interval: Interval,
    tol: Tolerance,
) -> MinimizeOutcome:
    """Run the solver selected by ``spec`` on one objective."""
    solve, args = _solver(spec)
    return solve(obj, interval, tol, *args)


def run_benchmark(
    methods: Sequence[MethodSpec],
    ids: Sequence[int],
    tol: Tolerance | None = None,
) -> BenchReport:
    """Run every (method, id) cell with a fresh objective wrapper.

    A cell whose objective fails to evaluate is recorded with status
    ``failed`` (its partial count still enters the totals) instead of
    aborting the whole run.  The totals are kept per label, so a repeated
    label or function id raises ``ValueError``.
    """
    if not methods or not ids:
        raise ValueError("need at least one method and one function id")
    labels = [spec.label for spec in methods]
    for what, items in (("method", labels), ("function id", ids)):
        if len(set(items)) < len(items):
            repeated = next(v for i, v in enumerate(items) if v in items[:i])
            raise ValueError(f"repeated {what} {repeated!r}")
    tol = tol or Tolerance()
    problems = [benchmark_function(fid) for fid in ids]
    rows: list[BenchRow] = []
    for spec, label in zip(methods, labels):
        solve, args = _solver(spec)
        for bf in problems:
            obj = CountingObjective(bf.evaluator)
            try:
                out = solve(obj, bf.interval, tol, *args)
            except EvaluationError:
                rows.append(BenchRow(
                    label, bf.fid, obj.count, math.nan, math.nan, "", "failed",
                ))
                continue
            # _value_ is the plain attribute behind an Enum's slower .value.
            rows.append(BenchRow(
                label, bf.fid, out.evaluations, out.x_min, out.f_min,
                out.classification._value_, out.status._value_,
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


def _total(
    solve: Callable[..., MinimizeOutcome],
    problems: Sequence[BenchFunction],
    tol: Tolerance,
    c: float,
) -> int | None:
    """Evaluations ``solve`` spends at ratio ``c`` over all ``problems``, or
    ``None`` if some objective fails to evaluate.  The sweeps pass the
    solver they look up when called, not one stored at import, so a solver
    rebound in this module's namespace (as a profiler does) is the one run."""
    cfg = RatioConfig(c)
    try:
        return sum(
            solve(CountingObjective(bf.evaluator), bf.interval, tol, cfg).evaluations
            for bf in problems
        )
    except EvaluationError:
        return None


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
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step!r}")
    tol = tol or Tolerance()
    problems = [benchmark_function(fid) for fid in ids]
    samples: list[tuple[float, float]] = []
    steps = int(round((c_to - c_from) / step))
    for i in range(steps + 1):
        c = c_from + i * step
        if c > c_to + 0.5 * step:
            break
        total = _total(minimize_ratio_p, problems, tol, c)
        if total is not None:
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
        total = _total(minimize_ratio_a, problems, tol, c)
        if total is not None:
            rows.append((j, c, total))
    return rows
