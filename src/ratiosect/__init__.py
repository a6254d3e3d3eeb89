"""Derivative-free univariate minimization by ratio-based interval sectioning.

Passive and active ratio-section solvers with built-in recognition of
degenerate inputs (constant stretches and monotone behavior), reference
bisection / golden-section / parabolic-interpolation baselines, and a
20-problem benchmark suite with frozen reference data.
"""

from .active_search import (
    BracketTriple,
    CollinearPointsError,
    minimize_ratio_a,
    parabola_vertex,
)
from .benchsuite import (
    BenchFunction,
    BenchReport,
    BenchRow,
    MethodSpec,
    ReferenceMinimizer,
    benchmark_function,
    benchmark_suite,
    load_reference_minimizer,
    run_benchmark,
    sweep_ratio_a_exponent,
    sweep_ratio_c,
)
from .brent import (
    GOLDEN_STEP,
    brent_m_minimize,
    brent_minimize,
)
from .classify import detect_flat_bottom, detect_monotone
from .core import (
    CountingObjective,
    EvaluationError,
    FunctionClass,
    Interval,
    MinimizeOutcome,
    Point2,
    SolveStatus,
    Tolerance,
    e0,
    stop_test,
)
from .expressions import Expression, ExpressionError, parse_expression
from .polyfit import (
    LinearSystem,
    Polynomial,
    SingularSystemError,
    fit_polynomial,
    gauss_solve,
)
from .section_search import (
    GOLDEN_RATIO,
    RatioConfig,
    minimize_bisection,
    minimize_golden,
    minimize_ratio_p,
)

__version__ = "0.1.0"

__all__ = [
    "BenchFunction",
    "BenchReport",
    "BenchRow",
    "BracketTriple",
    "CollinearPointsError",
    "CountingObjective",
    "EvaluationError",
    "Expression",
    "ExpressionError",
    "FunctionClass",
    "GOLDEN_RATIO",
    "GOLDEN_STEP",
    "Interval",
    "LinearSystem",
    "MethodSpec",
    "MinimizeOutcome",
    "Point2",
    "Polynomial",
    "RatioConfig",
    "ReferenceMinimizer",
    "SingularSystemError",
    "SolveStatus",
    "Tolerance",
    "benchmark_function",
    "benchmark_suite",
    "brent_m_minimize",
    "brent_minimize",
    "detect_flat_bottom",
    "detect_monotone",
    "e0",
    "fit_polynomial",
    "gauss_solve",
    "load_reference_minimizer",
    "minimize_bisection",
    "minimize_golden",
    "minimize_ratio_a",
    "minimize_ratio_p",
    "parabola_vertex",
    "parse_expression",
    "run_benchmark",
    "stop_test",
    "sweep_ratio_a_exponent",
    "sweep_ratio_c",
]
