"""Shared domain types for the univariate minimizers.

Every solver in this package works through a :class:`CountingObjective`:
a wrapper that counts objective evaluations and records them, in order,
as :class:`Point2` values.  The evaluation count is the performance metric
everything else reports, so the wrapper deliberately never caches — asking
for the same abscissa twice costs two evaluations.  A :class:`Point2` is
an immutable ``(x, y)`` tuple, so it also compares equal to a plain tuple.

Termination is shared across solvers: a run stops once the whole bracket
``[a, b]`` around the incumbent abscissa lies within twice the
position-dependent tolerance ``e0(x) = epsilon*|x| + floor``.  The
predicate is :func:`stop_test`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

_isfinite = math.isfinite
_tuple_new = tuple.__new__


class FunctionClass(Enum):
    """What kind of target a finished run (or a benchmark label) reports."""

    CONSTANT = "constant"
    MONOTONE_INCREASING = "monotone_increasing"
    MONOTONE_DECREASING = "monotone_decreasing"
    FLAT_BOTTOM = "flat_bottom"
    STRICT_INTERIOR = "strict_interior"


class SolveStatus(Enum):
    CONVERGED = "converged"
    BUDGET_EXHAUSTED = "budget_exhausted"


class EvaluationError(ValueError):
    """The objective failed to produce a finite value.

    Carries the offending abscissa in :attr:`x` so callers can report where
    the target broke down.
    """

    def __init__(self, x: float, message: str | None = None):
        super().__init__(message or f"objective evaluation failed at x={x!r}")
        self.x = x


class _XY(NamedTuple):
    x: float
    y: float


class Point2(_XY):
    """An evaluated point: abscissa ``x`` and ordinate ``y``.

    An immutable ``(x, y)`` tuple whose constructor rejects a non-finite
    coordinate with ``ValueError``.
    """

    __slots__ = ()

    def __new__(cls, x: float, y: float) -> Point2:
        if not (_isfinite(x) and _isfinite(y)):
            raise ValueError(f"non-finite point ({x!r}, {y!r})")
        return _tuple_new(cls, (x, y))

    @classmethod
    def _make(cls, iterable) -> Point2:  # also behind _replace
        return cls(*iterable)


@dataclass(frozen=True)
class Interval:
    """A non-degenerate closed interval ``[lo, hi]``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"non-finite interval [{self.lo!r}, {self.hi!r}]")
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo!r}, {self.hi!r}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class Tolerance:
    """Stopping policy shared by all solvers.

    ``epsilon`` is the relative tolerance, ``floor`` the absolute additive
    floor that keeps the tolerance positive near zero, and
    ``max_evaluations`` a hard budget that guards against non-terminating
    configurations.
    """

    epsilon: float = 1e-5
    floor: float = 1e-10
    max_evaluations: int = 1000

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon!r}")
        if not self.floor > 0.0:
            raise ValueError(f"floor must be positive, got {self.floor!r}")
        if self.max_evaluations < 1:
            raise ValueError("max_evaluations must be a positive integer")


def e0(tol: Tolerance, x: float) -> float:
    """Position-dependent tolerance ``epsilon*|x| + floor``.

    Strictly positive for every finite ``x`` and even in ``x``.
    """
    return tol.epsilon * abs(x) + tol.floor


def stop_test(a: float, b: float, m_x: float, tol: Tolerance) -> bool:
    """True once ``[a, b]`` lies entirely within ``2*e0(m_x)`` of ``m_x``.

    Requires ``a <= m_x <= b``.  Written as
    ``|m_x - (a+b)/2| + (b-a)/2 <= 2*e0(m_x)``: the left side is the
    distance from ``m_x`` to the farther endpoint.
    """
    return abs(m_x - 0.5 * (a + b)) + 0.5 * (b - a) <= 2.0 * e0(tol, m_x)


class CountingObjective:
    """Wraps a scalar target, counting and recording every evaluation.

    There is intentionally no memoization: the whole point of the wrapper
    is a faithful call count, and a cache would silently corrupt
    comparisons between solvers that revisit abscissas.

    An instance is single-run state — give each minimization its own
    wrapper and never share one between concurrent runs.
    """

    def __init__(self, target: Callable[[float], float]):
        self.target = target
        self.transcript: list[Point2] = []

    @property
    def count(self) -> int:
        """Number of evaluations performed so far (= transcript length)."""
        return len(self.transcript)

    def evaluate(self, x: float) -> Point2:
        """Evaluate the target at ``x``, record and return the point.

        Raises :class:`EvaluationError` if the target raises a domain or
        arithmetic error or returns a non-finite value; failed attempts are
        not counted and not recorded.
        """
        if not _isfinite(x):
            raise EvaluationError(x, f"non-finite abscissa {x!r}")
        try:
            # TypeError covers complex results: a negative base under a
            # fractional float power yields complex rather than raising.
            y = float(self.target(x))
        except EvaluationError:
            raise
        except (ValueError, TypeError, ArithmeticError) as exc:
            raise EvaluationError(x, f"objective raised {exc!r} at x={x!r}") from exc
        if not _isfinite(y):
            raise EvaluationError(x, f"objective returned {y!r} at x={x!r}")
        # Both coordinates are checked above; skip Point2's own check.
        point = _tuple_new(Point2, (x, y))
        self.transcript.append(point)
        return point


@dataclass(frozen=True)
class MinimizeOutcome:
    """What a solver hands back: the minimizer, its value, the cost, and
    the function-class verdict."""

    x_min: float
    f_min: float
    evaluations: int
    classification: FunctionClass
    status: SolveStatus

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED
