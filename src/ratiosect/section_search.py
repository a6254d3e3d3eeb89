"""Segment-elimination solvers: bisection, golden section, ratio section.

All three shrink an uncertainty interval around the minimizer and stop via
the shared :func:`~ratiosect.core.stop_test`.  They differ in where the
next probe lands:

* :func:`minimize_bisection` — a symmetric probe pair straddling the
  midpoint at sub-tolerance separation; two evaluations per iteration.
* :func:`minimize_golden` — the classical golden-section rule; one
  evaluation per iteration, fixed contraction factor ``(sqrt(5)-1)/2``.
* :func:`minimize_ratio_p` — the passive ratio-section rule: the next
  probe divides the longer of the two sub-segments around the incumbent
  ``m`` at a configurable ratio ``c``, i.e. ``p.x = c*end + (1-c)*m.x``;
  one evaluation per iteration, including the first.  A probe that ties
  the incumbent replaces it.  The loop hosts the monotone and flat-bottom
  recognizers from :mod:`~ratiosect.classify`, so constants finish in 3
  evaluations and monotone targets in 6.

Every solver takes an optional ``bracket_log`` list and appends the
``(a, b)`` bracket after the initial setup and after each iteration, which
is how the tests observe contraction behavior without touching internals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classify import Recognizer
from .core import (
    CountingObjective,
    FunctionClass,
    Interval,
    MinimizeOutcome,
    Point2,
    SolveStatus,
    Tolerance,
    e0,
    stop_test,
)

#: Golden-section contraction factor, (sqrt(5) - 1) / 2.
GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RatioConfig:
    """Section ratio for the ratio-family solvers; must satisfy 0 < c < 1."""

    c: float

    def __post_init__(self) -> None:
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"section ratio must be in (0, 1), got {self.c!r}")


def _best_point(points: list[Point2]) -> Point2:
    # min() keeps the earliest point on ordinate ties, which makes results
    # deterministic under plateaus.
    return min(points, key=lambda p: p.y)


def minimize_bisection(
    obj: CountingObjective,
    interval: Interval,
    tol: Tolerance,
    *,
    bracket_log: list[tuple[float, float]] | None = None,
) -> MinimizeOutcome:
    """Dichotomous bisection: probe ``mid +- e0(mid)/2`` and keep the half
    whose probe is lower.

    A tie between the two probes keeps the half on the side of a strictly
    lower point when one is already known (unimodality puts the minimizer
    there).  A tie at the lowest level seen keeps the half whose bracket
    end has the lower ordinate: that half holds the vertex of the parabola
    through both ends and the tied pair.  When the ends are equal or not
    both evaluated yet, the tie keeps the left half.

    Two evaluations per iteration; no classification beyond
    ``strict_interior``.
    """
    a, b = interval.lo, interval.hi
    start = obj.count
    if bracket_log is not None:
        bracket_log.append((a, b))
    status = SolveStatus.CONVERGED
    # The earliest lowest point so far, and the ordinates at a and b
    # (None while that end is still an unevaluated interval end).
    best: Point2 | None = None
    ya: float | None = None
    yb: float | None = None
    while True:
        mid = 0.5 * (a + b)
        if stop_test(a, b, mid, tol):
            break
        if obj.count - start + 2 > tol.max_evaluations:
            status = SolveStatus.BUDGET_EXHAUSTED
            break
        delta = 0.5 * e0(tol, mid)
        p1 = obj.evaluate(mid - delta)
        p2 = obj.evaluate(mid + delta)
        if p1.y != p2.y:
            keep_left = p1.y < p2.y
        elif best is not None and best.y < p1.y:
            keep_left = best.x < mid
        else:
            keep_left = ya is None or yb is None or ya <= yb
        if keep_left:
            b, yb = p2.x, p2.y
        else:
            a, ya = p1.x, p1.y
        for p in (p1, p2):
            if best is None or p.y < best.y:
                best = p
        if bracket_log is not None:
            bracket_log.append((a, b))
    if best is None:
        # Converged before spending anything (degenerate-tiny input
        # interval): spend one evaluation so f_min is meaningful.
        best = obj.evaluate(0.5 * (a + b))
    return MinimizeOutcome(
        x_min=best.x,
        f_min=best.y,
        evaluations=obj.count - start,
        classification=FunctionClass.STRICT_INTERIOR,
        status=status,
    )


def minimize_golden(
    obj: CountingObjective,
    interval: Interval,
    tol: Tolerance,
    *,
    bracket_log: list[tuple[float, float]] | None = None,
) -> MinimizeOutcome:
    """Golden-section search: one evaluation per iteration after the
    initial interior pair, interval contracting by ``GOLDEN_RATIO``."""
    a, b = interval.lo, interval.hi
    start = obj.count
    if bracket_log is not None:
        bracket_log.append((a, b))
    if tol.max_evaluations < 2:
        p = obj.evaluate(0.5 * (a + b))
        return MinimizeOutcome(
            p.x, p.y, obj.count - start, FunctionClass.STRICT_INTERIOR,
            SolveStatus.BUDGET_EXHAUSTED,
        )
    if math.isfinite(b - a):
        p1 = obj.evaluate(b - GOLDEN_RATIO * (b - a))
        p2 = obj.evaluate(a + GOLDEN_RATIO * (b - a))
    else:  # b - a overflows: scale the half-width and take the step twice
        step = GOLDEN_RATIO * (0.5 * b - 0.5 * a)
        p1 = obj.evaluate(b - step - step)
        p2 = obj.evaluate(a + step + step)
    status = SolveStatus.CONVERGED
    while True:
        live = p1 if p1.y <= p2.y else p2
        if stop_test(a, b, live.x, tol):
            break
        if obj.count - start + 1 > tol.max_evaluations:
            status = SolveStatus.BUDGET_EXHAUSTED
            break
        if p1.y <= p2.y:
            b = p2.x
            p2 = p1
            p1 = obj.evaluate(b - GOLDEN_RATIO * (b - a))
        else:
            a = p1.x
            p1 = p2
            p2 = obj.evaluate(a + GOLDEN_RATIO * (b - a))
        if bracket_log is not None:
            bracket_log.append((a, b))
    best = _best_point(obj.transcript[start:])
    return MinimizeOutcome(
        x_min=best.x,
        f_min=best.y,
        evaluations=obj.count - start,
        classification=FunctionClass.STRICT_INTERIOR,
        status=status,
    )


def minimize_ratio_p(
    obj: CountingObjective,
    interval: Interval,
    tol: Tolerance,
    cfg: RatioConfig,
    *,
    bracket_log: list[tuple[float, float]] | None = None,
) -> MinimizeOutcome:
    """Passive ratio-section search with the fast recognizers.

    Starts from the interval midpoint.  Each iteration probes the longer
    of the two sub-segments around the incumbent ``m`` (ties pick the
    right one) at ``p.x = c*end + (1-c)*m.x`` — one evaluation per
    iteration, including the first.  A probe no higher than ``m`` becomes
    the incumbent, so a tie cuts away only the shorter side; on a
    staircase wall, keeping ``m`` would cut away a ``(1-c)`` share of the
    longer side, which may hold the bottom.  After every evaluation a
    :class:`~ratiosect.classify.Recognizer` checks the run for a flat
    bottom; when the run first holds four distinct abscissas it runs the
    monotone recognizer once.  With ``c = 0.5`` the probe is
    always the midpoint of the longer segment and the behavior mirrors
    bisection.
    """
    a, b = interval.lo, interval.hi
    start = obj.count
    if bracket_log is not None:
        bracket_log.append((a, b))
    recognizer = Recognizer(obj, interval, tol)
    m = obj.evaluate(0.5 * (a + b))
    status = SolveStatus.CONVERGED
    while True:
        # Either the shared stop test or "the longer side has shrunk to
        # tolerance" ends the refinement.
        if stop_test(a, b, m.x, tol) or max(m.x - a, b - m.x) <= e0(tol, m.x):
            break
        if obj.count - start + 1 > tol.max_evaluations:
            status = SolveStatus.BUDGET_EXHAUSTED
            break
        if b - m.x >= m.x - a:
            px = cfg.c * b + (1.0 - cfg.c) * m.x
        else:
            px = cfg.c * a + (1.0 - cfg.c) * m.x
        p = obj.evaluate(px)
        recognized = recognizer.observe()
        if recognized is not None:
            return recognized

        if p.y <= m.y:
            # p replaces m; the old incumbent bounds the side away from p.
            if p.x < m.x:
                b = m.x
            else:
                a = m.x
            m = p
        else:
            # p is worse; it tightens the bracket on its own side.
            if p.x < m.x:
                a = p.x
            else:
                b = p.x
        if bracket_log is not None:
            bracket_log.append((a, b))
    return MinimizeOutcome(
        x_min=m.x,
        f_min=m.y,
        evaluations=obj.count - start,
        classification=FunctionClass.STRICT_INTERIOR,
        status=status,
    )
