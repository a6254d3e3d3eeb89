"""Active ratio-section search: parabolic steps with ratio-section guards.

The passive solvers of :mod:`~ratiosect.section_search` contract the
interval by a fixed factor whatever the ordinates look like.  The active
variant exploits them: once three evaluated points bracket a minimum,
each step jumps to the vertex of the interpolating parabola and falls
back to a ratio-section probe, a small ratio ``c`` (default ``1e-3``) off
the best point, whenever the vertex is unusable.  Brent's step test sends
a vertex that is not under half as far from the best point as the probe
before last to the middle of the larger side instead, so vertices that
creep along one side cannot stall the far end.  A contraction guard
makes the bracket halve within ``_GUARD_PERIOD + 3`` probes of each of
its checks (until it is a few ``e0`` wide), so a steep wall beside a
flat bottom cannot hold it open.

It is one step generator, run by the private driver of
:mod:`~ratiosect.core` under one budget.  Phase 1 is the passive solver's
steps at ``c = 0.5``, so degenerate targets finish as fast.  Phase 2 runs
on six floats, with :func:`parabola_vertex`'s formula written out.  Each
step of both phases carries its bracket and incumbent, so the driver runs
the shared :func:`~ratiosect.core.stop_test` on them.  The driver shows
the recognizer every probe of both phases, so its rules are the run's
only flat-bottom and monotone rules.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .classify import Recognizer
from .core import (
    CountingObjective,
    FunctionClass,
    Interval,
    MinimizeOutcome,
    Point2,
    Tolerance,
    _Record,
    _drive,
    halfway,
)
from .section_search import RatioConfig, _ratio_section

_STRICT = FunctionClass.STRICT_INTERIOR

#: Phase 2's contraction guard checks the bracket every ``_GUARD_PERIOD``
#: probes (see :func:`minimize_ratio_a`).
_GUARD_PERIOD = 10


class CollinearPointsError(ValueError):
    """The three points lie on a line; the interpolating parabola has no
    vertex."""


class BracketTriple(_Record):
    """Three points bracketing a minimum: ``left.x < mid.x < right.x``
    with the middle ordinate strictly lowest."""

    __slots__ = ("left", "mid", "right")

    def __init__(self, left: Point2, mid: Point2, right: Point2) -> None:
        if not left.x < mid.x < right.x:
            raise ValueError(
                f"abscissas not ordered: {left.x!r}, {mid.x!r}, {right.x!r}")
        if not (mid.y < left.y and mid.y < right.y):
            raise ValueError("middle ordinate is not strictly the lowest")
        super().__init__(left, mid, right)

    @property
    def width(self) -> float:
        return self.right.x - self.left.x


def parabola_vertex(t: BracketTriple) -> float:
    """Abscissa of the vertex of the parabola through the triple.

    With ``(xl, yl), (xm, ym), (xr, yr)``::

        r = 1/2 * [yl*(xm^2 - xr^2) + ym*(xr^2 - xl^2) + yr*(xl^2 - xm^2)]
            / [yl*(xm - xr) + ym*(xr - xl) + yr*(xl - xm)]

    The triple invariants guarantee the vertex lies strictly inside
    ``(left.x, right.x)``.  Raises :class:`CollinearPointsError` when the
    denominator vanishes.
    """
    (xl, yl), (xm, ym), (xr, yr) = t.left, t.mid, t.right
    denominator = yl * (xm - xr) + ym * (xr - xl) + yr * (xl - xm)
    if denominator == 0.0:
        raise CollinearPointsError(f"collinear points at x={xl!r}, {xm!r}, {xr!r}")
    numerator = (
        yl * (xm * xm - xr * xr)
        + ym * (xr * xr - xl * xl)
        + yr * (xl * xl - xm * xm)
    )
    return 0.5 * numerator / denominator


def _scan_for_triple(points: list[Point2]) -> tuple[Point2, Point2, Point2] | None:
    """Search the run's points (one per abscissa) for a bracketing triple,
    returned as its ``(left, mid, right)`` points.

    The candidate middle is the best point seen so far (earliest on ties);
    the flanks are the nearest strictly-greater points on each side, which
    gives the tightest bracket the transcript supports.  So the triple
    holds :class:`BracketTriple`'s invariants by construction.
    """
    best = min(points, key=itemgetter(1))
    left: Point2 | None = None
    right: Point2 | None = None
    for p in points:
        if p.y <= best.y:
            continue
        if p.x < best.x and (left is None or p.x > left.x):
            left = p
        elif p.x > best.x and (right is None or p.x < right.x):
            right = p
    if left is None or right is None:
        return None
    return left, best, right


def _ratio_a(interval: Interval, tol: Tolerance, c: float, distinct: list[Point2]):
    """The steps of :func:`minimize_ratio_a`; ``distinct`` is the run's
    points, one per abscissa, as the recognizer keeps them."""
    # --- Phase 1: ratio-p's steps at c = 0.5, until a bracketing triple ---
    # Passed on one at a time, as the triple test falls between the
    # recognizer's and phase 1's next step.
    phase1 = _ratio_section(interval, 0.5)
    step = next(phase1)
    while True:
        point = yield step
        if (triple := _scan_for_triple(distinct)) is not None:
            break
        try:
            step = phase1.send(point)
        except StopIteration as stop:
            return stop.value

    # --- Phase 2: successive parabolic interpolation with guards --------
    # Read once per solve; the loop uses them on every probe.
    epsilon, floor = tol.epsilon, tol.floor
    (xl, yl), (xm, ym), (xr, yr) = triple
    # Contraction guard: the bracket's half-width must fall to ``target``
    # within ``left`` probes; half-widths cannot overflow.
    target, left = 0.25 * xr - 0.25 * xl, _GUARD_PERIOD
    # Brent's step test: how far from mid the last probe and the one
    # before it landed.
    last = before = math.inf
    while True:
        tiny = epsilon * abs(xm) + floor
        forced = not left
        if forced and (half := 0.5 * xr - 0.5 * xl) <= target:
            # Halved since the last check: count afresh.
            target, left, forced = 0.5 * half, _GUARD_PERIOD, False
        if not forced:
            left -= 1
            # parabola_vertex's formula, term for term.  A vanishing
            # denominator has no vertex: r = xl fails a test below.
            denominator = yl * (xm - xr) + ym * (xr - xl) + yr * (xl - xm)
            if denominator == 0.0:
                r = xl
            else:
                r = 0.5 * (
                    yl * (xm * xm - xr * xr)
                    + ym * (xr * xr - xl * xl)
                    + yr * (xl * xl - xm * xm)
                ) / denominator
            # A vertex not under half as far from mid as the probe before
            # last barely moves the bracket: the guard's probe instead.
            forced = abs(r - xm) >= 0.5 * before
        if forced or not (xl < r < xr and abs(r - xm) >= tiny):
            # Ratio fallback toward the farther endpoint (ties go right),
            # or the guard's probe halfway to it, clamped so the probe
            # keeps the minimum displacement from mid.
            s = xl if xm - xl > xr - xm else xr
            r = halfway(xm, s) if forced else c * s + (1.0 - c) * xm
            if abs(r - xm) < tiny:
                r = xm + tiny if s > xm else xm - tiny
            # The displacement guard can leave no admissible abscissa
            # inside the bracket, or round back onto xm (tiny under half
            # an ulp of it), which is evaluated already: it is at
            # resolution (the empty batch).
            if r == xm or not xl < r < xr:
                r = ()
        point = yield r, xl, xr, xm
        if not point:
            break
        y = point[1]
        before, last = last, abs(r - xm)

        if y < ym:
            if r < xm:
                xr, yr = xm, ym
            else:
                xl, yl = xm, ym
            xm, ym = r, y
        elif r < xm:
            xl, yl = r, y
        else:
            xr, yr = r, y
    return xm, ym, _STRICT


def minimize_ratio_a(
    obj: CountingObjective,
    interval: Interval,
    tol: Tolerance,
    cfg: RatioConfig | None = None,
    *,
    bracket_log: list[tuple[float, float]] | None = None,
) -> MinimizeOutcome:
    """Active ratio-section search (parabolic steps, ratio fallbacks).

    Phase 1 is the steps of
    :func:`~ratiosect.section_search.minimize_ratio_p` at ``c = 0.5``, its
    recognizers and tie rule included, run until the run's points (one
    per abscissa) contain a bracketing triple.  Phase 2 then iterates:
    take the parabola vertex if it is defined, lies strictly inside the
    bracket and is at least ``e0`` away from the current best point;
    otherwise place a ratio probe ``r = c*s + (1-c)*mid.x`` toward the
    farther bracket endpoint ``s`` (never closer to ``mid`` than
    ``e0``).  The run converges when the bracket passes the shared
    :func:`~ratiosect.core.stop_test` around ``mid``.

    Brent's step test screens each vertex first: a vertex that is not
    under half as far from ``mid`` as the probe before last was (the
    first two always pass) is not taken.  The probe is then the guard's
    (below), the midpoint of the larger side, not the ratio step, which
    at ``c = 1e-3`` barely moves the bracket either.  So on ``|x - v|^p``
    with ``p > 2``, whose vertices keep landing on one side of ``mid``,
    more than ``e0`` from it yet barely moving it, the far end is cut
    long before the guard's check is due.

    Phase 2 keeps the triple in six floats.  Phase 1's scan hands over
    ``xl < xm < xr`` with ``ym`` strictly lowest, and each step keeps the
    order with ``ym`` lowest: the probe lies inside ``(xl, xr)`` at least
    ``e0`` from ``xm``, and a probe that ties ``ym`` becomes the end on its
    side.  Phase 2 has no flat-bottom rule of its own: the recognizer sees
    its probes too, and a third abscissa on one ordinate ends the run as a
    flat bottom.  A clamped probe that rounds back onto ``xm`` (``e0``
    under half an ulp of ``xm``) is not taken: the run ends at resolution.

    A contraction guard bounds phase 2.  Every ``K = 10`` probes (the
    step test's included, its own forced ones not) it checks whether the
    bracket has halved since the last check (the hand-over, first).  If
    not, the next probe is the midpoint of the larger side,
    between ``mid`` and the farther end, clamped as above; such probes
    repeat until the bracket has halved, then the count restarts.  A
    forced probe either cuts off at least a quarter of the bracket or
    makes itself ``mid`` at the new bracket's centre; in exact arithmetic
    three of them always halve a bracket at least ``8*e0`` wide, where
    none needs the clamp.  So the bracket halves within ``K + 3`` probes
    of each check, and phase 2 ends within about
    ``(K + 3)*ceil(log2(w / (2*floor)))`` probes, ``w`` the hand-over
    bracket's width.  Widths are compared as half-widths and the midpoint
    is :func:`~ratiosect.core.halfway`, so neither overflows.
    """
    c = 1e-3 if cfg is None else cfg.c
    recognizer = Recognizer(interval, tol)
    return _drive(obj, tol, _ratio_a(interval, tol, c, recognizer.distinct),
                  recognizer, bracket_log)
