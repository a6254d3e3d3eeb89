"""Shared domain types for the univariate minimizers, and their driver.

Every solver in this package is a step generator that the private
:func:`_drive` runs on a :class:`CountingObjective`: a wrapper that counts
evaluations and records them, in order, as :class:`Point2` values.  The
count is the performance metric everything else reports, so the wrapper
never caches — asking for the same abscissa twice costs two evaluations.
A :class:`Point2` is an immutable ``(x, y)`` tuple, equal to a plain one.

Termination is shared across solvers and run by the driver alone: each
step a solver yields carries its bracket ``[a, b]`` and incumbent
abscissa, and the run stops once the whole bracket lies within twice the
position-dependent tolerance ``e0(x) = epsilon*|x| + floor`` of the
incumbent.  The predicate is :func:`stop_test`.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import partial
from typing import Any, Callable, Generator, NamedTuple

_isfinite = math.isfinite
_tuple_new = tuple.__new__
_partial_call = partial.__call__
_setattr = object.__setattr__


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


_CONVERGED = SolveStatus.CONVERGED


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


class _Record:
    """Base of the package's immutable records: the fields are the
    ``__slots__``, set once, in order, by ``_Record.__init__``, which each
    record's own ``__init__`` calls after checking its arguments.

    Gives the dataclass ``repr``, equality and hashing over the fields
    (records of different classes never compare equal), copying and
    pickling through the constructor, and an :class:`AttributeError` on
    setting or deleting any attribute.
    """

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Interval(_Record):
    """A non-degenerate closed interval ``[lo, hi]``."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        if not (_isfinite(lo) and _isfinite(hi)):
            raise ValueError(f"non-finite interval [{lo!r}, {hi!r}]")
        if not lo < hi:
            raise ValueError(f"empty interval [{lo!r}, {hi!r}]")
        super().__init__(lo, hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return halfway(self.lo, self.hi)

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi


class Tolerance(_Record):
    """Stopping policy shared by all solvers.

    ``epsilon`` is the relative tolerance, ``floor`` the absolute additive
    floor that keeps the tolerance positive near zero, and
    ``max_evaluations`` a hard budget that guards against non-terminating
    configurations.
    """

    __slots__ = ("epsilon", "floor", "max_evaluations")

    def __init__(self, epsilon: float = 1e-5, floor: float = 1e-10,
                 max_evaluations: int = 1000) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon!r}")
        # An infinite floor would meet every stop test at once.
        if not 0.0 < floor < math.inf:
            raise ValueError(f"floor must be positive and finite, got {floor!r}")
        # bool is an int subclass: True would be a budget of 1.
        if (max_evaluations.__class__ is bool or not isinstance(max_evaluations, int)
                or max_evaluations < 1):
            raise ValueError("max_evaluations must be a positive integer")
        super().__init__(epsilon, floor, max_evaluations)


def halfway(a: float, b: float) -> float:
    """``(a + b)/2`` for finite ``a`` and ``b``, finite even when ``a + b``
    overflows: then it is ``a/2 + b/2`` instead."""
    m = 0.5 * (a + b)
    return m if _isfinite(m) else 0.5 * a + 0.5 * b


def _section(a: float, b: float, r: float) -> float:
    """``a + r*(b - a)`` for finite ``a`` and ``b``, finite even when
    ``b - a`` overflows: then the step is taken from the half-width, twice."""
    w = b - a
    if _isfinite(w):
        return a + r * w
    step = r * (0.5 * b - 0.5 * a)
    return a + step + step


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
    return abs(m_x - halfway(a, b)) + 0.5 * (b - a) <= 2.0 * (
        tol.epsilon * abs(m_x) + tol.floor)


class CountingObjective:
    """Wraps a scalar target, counting and recording every evaluation.

    There is intentionally no memoization: the whole point of the wrapper
    is a faithful call count, and a cache would silently corrupt
    comparisons between solvers that revisit abscissas.

    An instance is single-run state — give each minimization its own
    wrapper and never share one between concurrent runs.

    ``target`` is kept as passed.  A :class:`functools.partial` subclass
    that keeps ``partial``'s ``__call__``, such as a parsed
    :class:`~ratiosect.expressions.Expression`, is called through a plain
    ``partial`` of the same function and arguments: before Python 3.12 a
    heap subclass of ``partial`` is called without vectorcall.
    """

    def __init__(self, target: Callable[[float], float]):
        self.target = target
        if isinstance(target, partial) and type(target).__call__ is _partial_call:
            target = partial(target.func, *target.args, **target.keywords)
        self._call = target
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
            y = float(self._call(x))
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


class MinimizeOutcome(NamedTuple):
    """What a solver hands back: the minimizer, its value, the cost, and
    the function-class verdict.

    An immutable tuple, like :class:`Point2`: it compares equal to a plain
    tuple of the same fields, and ``_replace`` gives a modified copy.
    """

    x_min: float
    f_min: float
    evaluations: int
    classification: FunctionClass
    status: SolveStatus

    @property
    def converged(self) -> bool:
        return self.status is _CONVERGED


def _drive(
    obj: CountingObjective,
    tol: Tolerance,
    steps: Generator[Any, Any, tuple[float, float, FunctionClass]],
    recognizer: Any = None,
    bracket_log: list[tuple[float, float]] | None = None,
) -> MinimizeOutcome:
    """Run a solver's step generator on ``obj``: the one place that runs
    the stop test, checks the budget, evaluates, feeds the recognizer and
    builds the outcome.

    ``steps`` yields steps ``(probe, a, b, m)`` and is sent what came of
    each probe.  A step whose incumbent abscissa ``m`` is not ``None`` has
    its bracket ``[a, b]`` appended to ``bracket_log`` (if given) and meets
    :func:`stop_test`, before the budget test: if the test passes, the
    probe is not evaluated, ``None`` is sent and the run is ``converged``.
    Setup probes and fallbacks carry ``m = None`` and meet neither.
    An abscissa gets its point, which ``recognizer`` (if any) has seen
    first; its first verdict ``(classification, point)`` ends the run, and
    each monotone probe it asks for is evaluated, given room for two, and
    handed to ``recognizer.probed``.  A batch, a pair of abscissas, gets
    its pair of points, unseen by the recognizer and evaluated only if the
    budget has room for both; the empty batch needs room for one and gets
    ``()``.  With no room, nothing is evaluated, ``None`` is sent and the
    run is ``budget_exhausted``.  Sent ``None``, the generator returns,
    after at most one fallback abscissa, its incumbent
    ``(x, y, classification)``.

    An :class:`EvaluationError` propagates unchanged: the run ends with no
    outcome, and the points it evaluated stay in ``obj.transcript``.
    """
    transcript = obj.transcript
    start = len(transcript)
    limit = start + tol.max_evaluations
    # Bound once per solve; the loop uses them on every probe.
    evaluate, send = obj.evaluate, steps.send
    observe = None if recognizer is None else recognizer.observe
    status, reply = _CONVERGED, None
    while True:
        try:
            x, a, b, m = send(reply)
        except StopIteration as stop:
            x, y, kind = stop.value
            break
        if m is not None:
            if bracket_log is not None:
                bracket_log.append((a, b))
            if stop_test(a, b, m, tol):
                reply = None
                continue
        if x.__class__ is not tuple:
            if len(transcript) < limit:
                reply = evaluate(x)
                if observe is not None and (found := observe(reply)) is not None:
                    # Not a verdict: the monotone check's endpoint probe, taken
                    # with room for two, then its inner probe if asked for.
                    if found.__class__ is not tuple and len(transcript) + 2 <= limit:
                        found = recognizer.probed(evaluate(found))
                        if found is not None and found.__class__ is not tuple:
                            found = recognizer.probed(evaluate(found))
                    if found.__class__ is tuple:
                        kind, (x, y) = found
                        break
            else:
                status, reply = SolveStatus.BUDGET_EXHAUSTED, None
        elif len(x) == 2 and len(transcript) + 2 <= limit:
            reply = evaluate(x[0]), evaluate(x[1])
        elif not x and len(transcript) < limit:
            reply = ()
        else:
            status, reply = SolveStatus.BUDGET_EXHAUSTED, None
    return MinimizeOutcome(x, y, len(transcript) - start, kind, status)
