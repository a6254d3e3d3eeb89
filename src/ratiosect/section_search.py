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


def _wide_golden_pair(a: float, b: float) -> tuple[float, float]:
    """The golden interior pair of ``[a, b]`` when ``b - a`` overflows:
    the step is computed from the half-width and taken twice."""
    step = GOLDEN_RATIO * (0.5 * b - 0.5 * a)
    return b - step - step, a + step + step


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
    # The earliest lowest point so far (bx, by), and the ordinates at a
    # and b (None while that end is still an unevaluated interval end).
    bx = by = ya = yb = None
    while True:
        mid = 0.5 * (a + b)
        if stop_test(a, b, mid, tol):
            break
        if obj.count - start + 2 > tol.max_evaluations:
            status = SolveStatus.BUDGET_EXHAUSTED
            break
        delta = 0.5 * e0(tol, mid)
        x1, x2 = mid - delta, mid + delta
        y1 = obj.evaluate(x1).y
        y2 = obj.evaluate(x2).y
        if y1 != y2:
            keep_left = y1 < y2
        elif by is not None and by < y1:
            keep_left = bx < mid
        else:
            keep_left = ya is None or yb is None or ya <= yb
        if keep_left:
            b, yb = x2, y2
        else:
            a, ya = x1, y1
        if by is None or y1 < by:
            bx, by = x1, y1
        if y2 < by:
            bx, by = x2, y2
        if bracket_log is not None:
            bracket_log.append((a, b))
    if by is None:
        # Converged before spending anything (degenerate-tiny input
        # interval): spend one evaluation so f_min is meaningful.
        bx, by = obj.evaluate(0.5 * (a + b))
    return MinimizeOutcome(
        x_min=bx,
        f_min=by,
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
        x1, x2 = b - GOLDEN_RATIO * (b - a), a + GOLDEN_RATIO * (b - a)
    else:
        x1, x2 = _wide_golden_pair(a, b)
    y1 = obj.evaluate(x1).y
    y2 = obj.evaluate(x2).y
    status = SolveStatus.CONVERGED
    while True:
        if stop_test(a, b, x1 if y1 <= y2 else x2, tol):
            break
        if obj.count - start + 1 > tol.max_evaluations:
            status = SolveStatus.BUDGET_EXHAUSTED
            break
        # The width can still overflow after the first cuts of a bracket
        # wider than about 2.9e308.
        if y1 <= y2:
            b = x2
            x2, y2 = x1, y1
            if math.isfinite(b - a):
                x1 = b - GOLDEN_RATIO * (b - a)
            else:
                x1 = _wide_golden_pair(a, b)[0]
            y1 = obj.evaluate(x1).y
        else:
            a = x1
            x1, y1 = x2, y2
            if math.isfinite(b - a):
                x2 = a + GOLDEN_RATIO * (b - a)
            else:
                x2 = _wide_golden_pair(a, b)[1]
            y2 = obj.evaluate(x2).y
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
    c = cfg.c
    m = obj.evaluate(0.5 * (a + b))
    # The loop reads the incumbent's abscissa many times per probe; a
    # local is cheaper than the Point2 field.
    mx = m.x
    status = SolveStatus.CONVERGED
    while True:
        # Either the shared stop test or "the longer side has shrunk to
        # tolerance" ends the refinement.
        if stop_test(a, b, mx, tol) or max(mx - a, b - mx) <= e0(tol, mx):
            break
        if obj.count - start + 1 > tol.max_evaluations:
            status = SolveStatus.BUDGET_EXHAUSTED
            break
        if b - mx >= mx - a:
            px = c * b + (1.0 - c) * mx
        else:
            px = c * a + (1.0 - c) * mx
        p = obj.evaluate(px)
        recognized = recognizer.observe()
        if recognized is not None:
            return recognized

        if p.y <= m.y:
            # p replaces m; the old incumbent bounds the side away from p.
            if px < mx:
                b = mx
            else:
                a = mx
            m, mx = p, px
        else:
            # p is worse; it tightens the bracket on its own side.
            if px < mx:
                a = px
            else:
                b = px
        if bracket_log is not None:
            bracket_log.append((a, b))
    return MinimizeOutcome(
        x_min=m.x,
        f_min=m.y,
        evaluations=obj.count - start,
        classification=FunctionClass.STRICT_INTERIOR,
        status=status,
    )
