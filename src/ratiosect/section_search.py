"""Segment-elimination solvers: bisection, golden section, ratio section.

All three shrink an uncertainty interval around the minimizer and stop via
the shared :func:`~ratiosect.core.stop_test`.  They differ in where the
next probe lands: :func:`minimize_bisection` probes a pair straddling the
midpoint, :func:`minimize_golden` follows the classical golden-section
rule, and :func:`minimize_ratio_p` divides the longer side of the
incumbent at a configurable ratio ``c``, with the recognizers of
:mod:`~ratiosect.classify` watching its run, so constants finish in 3
evaluations and monotone targets in 6.

Each solver is a step generator run by the private driver of
:mod:`~ratiosect.core`, which owns the budget, the evaluations, the
recognizer feed and the outcome.  The generator yields its next abscissa
(bisection a pair, golden its first pair) with its bracket and
incumbent, and is sent the evaluated point.  The driver runs the stop
test on each such step, and logs the bracket at each stop test to the
optional ``bracket_log`` list, which the tests read.
"""

from __future__ import annotations

import math

from .classify import Recognizer
from .core import (
    CountingObjective,
    FunctionClass,
    Interval,
    MinimizeOutcome,
    Tolerance,
    _Record,
    _drive,
    _section,
    halfway,
)

_STRICT = FunctionClass.STRICT_INTERIOR

#: Golden-section contraction factor, (sqrt(5) - 1) / 2.
GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0


class RatioConfig(_Record):
    """Section ratio for the ratio-family solvers; must satisfy 0 < c < 1."""

    __slots__ = ("c",)

    def __init__(self, c: float) -> None:
        if not 0.0 < c < 1.0:
            raise ValueError(f"section ratio must be in (0, 1), got {c!r}")
        super().__init__(c)


def _bisection(interval: Interval, tol: Tolerance):
    """The steps of :func:`minimize_bisection`."""
    a, b = interval.lo, interval.hi
    # Read once per solve; the loop uses them on every probe pair.
    epsilon, floor = tol.epsilon, tol.floor
    # The earliest lowest point so far (bx, by), and the ordinates at a
    # and b (None while that end is still an unevaluated interval end).
    bx = by = ya = yb = None
    while True:
        mid = halfway(a, b)
        delta = 0.5 * (epsilon * abs(mid) + floor)
        pair = yield (mid - delta, mid + delta), a, b, mid
        if pair is None:
            break
        (x1, y1), (x2, y2) = pair
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
    if by is None:
        # Nothing spent (a degenerate-tiny interval, or no room for a
        # pair): spend one evaluation so f_min is meaningful.
        bx, by = yield halfway(a, b), a, b, None
    return bx, by, _STRICT


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

    Two evaluations per iteration, spent only together; with room for no
    pair, one evaluation at the midpoint.  No classification beyond
    ``strict_interior``.
    """
    return _drive(obj, tol, _bisection(interval, tol), bracket_log=bracket_log)


def _golden(interval: Interval):
    """The steps of :func:`minimize_golden`."""
    a, b = interval.lo, interval.hi
    pair = yield (_section(b, a, GOLDEN_RATIO), _section(a, b, GOLDEN_RATIO)), a, b, None
    if pair is None:
        # No room for the first pair: the one evaluation goes to the midpoint.
        x, y = yield halfway(a, b), a, b, None
        return x, y, _STRICT
    (x1, y1), (x2, y2) = pair
    # The earliest lowest point so far.
    bx, by = (x2, y2) if y2 < y1 else (x1, y1)
    while True:
        # The probe is placed from the bracket before its cut, the step's
        # state.  The width can still overflow after the first cuts of a
        # bracket wider than about 2.9e308.  The finite case stays inline:
        # a call per cut costs golden a few percent of its time.
        if y1 <= y2:
            w = x2 - a
            x = x2 - GOLDEN_RATIO * w if math.isfinite(w) else _section(x2, a, GOLDEN_RATIO)
            point = yield x, a, b, x1
            if point is None:
                break
            b = x2
            x2, y2 = x1, y1
            x1, y1 = point
        else:
            w = b - x1
            x = x1 + GOLDEN_RATIO * w if math.isfinite(w) else _section(x1, b, GOLDEN_RATIO)
            point = yield x, a, b, x2
            if point is None:
                break
            a = x1
            x1, y1 = x2, y2
            x2, y2 = point
        if point[1] < by:
            bx, by = point
    return bx, by, _STRICT


def minimize_golden(
    obj: CountingObjective,
    interval: Interval,
    tol: Tolerance,
    *,
    bracket_log: list[tuple[float, float]] | None = None,
) -> MinimizeOutcome:
    """Golden-section search: one evaluation per iteration after the
    initial interior pair, interval contracting by ``GOLDEN_RATIO``.
    Returns the earliest of the lowest points evaluated."""
    return _drive(obj, tol, _golden(interval), bracket_log=bracket_log)


def _ratio_section(interval: Interval, c: float):
    """The steps of :func:`minimize_ratio_p`, which phase 1 of
    :func:`~ratiosect.active_search.minimize_ratio_a` takes too."""
    a, b = interval.lo, interval.hi
    # Every budget has room for the first probe.
    mx, my = yield halfway(a, b), a, b, None
    while True:
        if b - mx >= mx - a:
            px = c * b + (1.0 - c) * mx
        else:
            px = c * a + (1.0 - c) * mx
        # On a bracket a few ulps wide the probe can round past its end:
        # no abscissa is left to probe (the empty batch), it is at resolution.
        point = yield (px if a <= px <= b else ()), a, b, mx
        if not point:
            break
        py = point[1]
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
    return mx, my, _STRICT


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
    return _drive(obj, tol, _ratio_section(interval, cfg.c),
                  Recognizer(interval, tol), bracket_log)
