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
from operator import itemgetter
from typing import Callable, TypeVar

from .classify import Recognizer
from .core import (
    CountingObjective,
    FunctionClass,
    Interval,
    MinimizeOutcome,
    Point2,
    SolveStatus,
    Tolerance,
    halfway,
    stop_test,
)

_T = TypeVar("_T")

_STRICT = FunctionClass.STRICT_INTERIOR
_CONVERGED = SolveStatus.CONVERGED
_BUDGET = SolveStatus.BUDGET_EXHAUSTED
_ordinate = itemgetter(1)

#: Golden-section contraction factor, (sqrt(5) - 1) / 2.
GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RatioConfig:
    """Section ratio for the ratio-family solvers; must satisfy 0 < c < 1."""

    c: float

    def __post_init__(self) -> None:
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"section ratio must be in (0, 1), got {self.c!r}")


def _golden_pair(a: float, b: float) -> tuple[float, float]:
    """The golden interior pair of ``[a, b]``; when ``b - a`` overflows,
    the step is computed from the half-width and taken twice."""
    if math.isfinite(b - a):
        return b - GOLDEN_RATIO * (b - a), a + GOLDEN_RATIO * (b - a)
    step = GOLDEN_RATIO * (0.5 * b - 0.5 * a)
    return b - step - step, a + step + step


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
    # Read once per solve; the loop uses them on every probe pair.
    epsilon, floor = tol.epsilon, tol.floor
    transcript, limit = obj.transcript, start + tol.max_evaluations
    status = _CONVERGED
    # The earliest lowest point so far (bx, by), and the ordinates at a
    # and b (None while that end is still an unevaluated interval end).
    bx = by = ya = yb = None
    while True:
        mid = halfway(a, b)
        if stop_test(a, b, mid, tol):
            break
        if len(transcript) + 2 > limit:
            status = _BUDGET
            break
        delta = 0.5 * (epsilon * abs(mid) + floor)
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
        bx, by = obj.evaluate(halfway(a, b))
    return MinimizeOutcome(bx, by, obj.count - start, _STRICT, status)


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
        p = obj.evaluate(halfway(a, b))
        return MinimizeOutcome(p.x, p.y, obj.count - start, _STRICT, _BUDGET)
    x1, x2 = _golden_pair(a, b)
    y1 = obj.evaluate(x1).y
    y2 = obj.evaluate(x2).y
    transcript, limit = obj.transcript, start + tol.max_evaluations
    status = _CONVERGED
    while True:
        if stop_test(a, b, x1 if y1 <= y2 else x2, tol):
            break
        if len(transcript) + 1 > limit:
            status = _BUDGET
            break
        # The width can still overflow after the first cuts of a bracket
        # wider than about 2.9e308.  The finite case stays inline: a call
        # per cut costs golden a few percent of its time.
        if y1 <= y2:
            b = x2
            x2, y2 = x1, y1
            w = b - a
            x1 = b - GOLDEN_RATIO * w if math.isfinite(w) else _golden_pair(a, b)[0]
            y1 = obj.evaluate(x1).y
        else:
            a = x1
            x1, y1 = x2, y2
            w = b - a
            x2 = a + GOLDEN_RATIO * w if math.isfinite(w) else _golden_pair(a, b)[1]
            y2 = obj.evaluate(x2).y
        if bracket_log is not None:
            bracket_log.append((a, b))
    # min() keeps the earliest point on ordinate ties.
    bx, by = min(obj.transcript[start:], key=_ordinate)
    return MinimizeOutcome(bx, by, obj.count - start, _STRICT, status)


def _ratio_section(
    obj: CountingObjective,
    interval: Interval,
    tol: Tolerance,
    c: float,
    bracket_log: list[tuple[float, float]] | None,
    until: Callable[[list[Point2]], _T | None] | None = None,
) -> MinimizeOutcome | _T:
    """The passive ratio-section loop of :func:`minimize_ratio_p`, which
    phase 1 of :func:`~ratiosect.active_search.minimize_ratio_a` runs too.

    After each probe's recognizer check, ``until`` (if given) sees the
    run's points, one per abscissa; the first value it returns that is
    not ``None`` ends the loop and is returned in place of an outcome.
    """
    a, b = interval.lo, interval.hi
    start = obj.count
    if bracket_log is not None:
        bracket_log.append((a, b))
    recognizer = Recognizer(obj, interval, tol)
    # Bound once per solve; the loop calls them on every probe.
    evaluate, observe = obj.evaluate, recognizer.observe
    transcript, limit = obj.transcript, start + tol.max_evaluations
    mx, my = first = evaluate(halfway(a, b))
    observe(first)  # one point: nothing to recognize yet
    status = _CONVERGED
    while True:
        if stop_test(a, b, mx, tol):
            break
        if len(transcript) + 1 > limit:
            status = _BUDGET
            break
        if b - mx >= mx - a:
            px = c * b + (1.0 - c) * mx
        else:
            px = c * a + (1.0 - c) * mx
        if not a <= px <= b:
            # On a bracket a few ulps wide the probe can round past its
            # end: no abscissa is left to probe, it is at resolution.
            break
        point = evaluate(px)
        if (recognized := observe(point)) is not None:
            return recognized
        if until is not None and (found := until(recognizer.distinct)) is not None:
            return found

        py = point.y
        if py <= my:
            # The probe replaces the incumbent, which bounds the side away
            # from the probe.
            if px < mx:
                b = mx
            else:
                a = mx
            mx, my = px, py
        elif px < mx:
            # The probe is worse; it tightens the bracket on its own side.
            a = px
        else:
            b = px
        if bracket_log is not None:
            bracket_log.append((a, b))
    return MinimizeOutcome(mx, my, len(transcript) - start, _STRICT, status)


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

    Counts are lowest near ``c = 0.2`` and grow toward both ends of
    ``(0, 1)``; nothing keeps a probe ``e0`` away from ``m``, so a tiny
    ``c`` creeps.  On ``(x - 0.3)^2`` over ``[0, 1]`` at the default
    tolerance, ``c = 0.01`` takes 92 evaluations and ``c = 0.9`` 112, while
    ``c = 1e-3`` and below (``1e-12`` included) or ``0.99`` and above spend
    the whole 1000-evaluation budget and report ``budget_exhausted``.
    """
    return _ratio_section(obj, interval, tol, cfg.c, bracket_log)
