"""Active ratio-section search: parabolic steps with ratio-section guards.

The passive solvers in :mod:`~ratiosect.section_search` contract the
uncertainty interval by a fixed factor regardless of what the ordinates
look like.  The active variant here exploits them: once three evaluated
points bracket a minimum (lower middle ordinate), each iteration jumps to
the vertex of the interpolating parabola — successive parabolic
interpolation — and falls back to a ratio-section probe whenever the
vertex is unusable.  A small ratio ``c`` (default ``1e-3``) places the
fallback probe just off the current best point, which is what makes the
fallback cheap.

The bootstrap phase is the passive solver in bisection mode (``c = 0.5``)
with the same monotone/flat-bottom recognizers, so degenerate targets
finish as fast as they do under the passive method.
"""

from __future__ import annotations

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
from .section_search import RatioConfig


class CollinearPointsError(ValueError):
    """The three points lie on a line; the interpolating parabola has no
    vertex."""


@dataclass(frozen=True)
class BracketTriple:
    """Three points bracketing a minimum: ``left.x < mid.x < right.x``
    with the middle ordinate strictly lowest."""

    left: Point2
    mid: Point2
    right: Point2

    def __post_init__(self) -> None:
        if not self.left.x < self.mid.x < self.right.x:
            raise ValueError(
                f"abscissas not ordered: {self.left.x!r}, {self.mid.x!r}, "
                f"{self.right.x!r}"
            )
        if not (self.mid.y < self.left.y and self.mid.y < self.right.y):
            raise ValueError("middle ordinate is not strictly the lowest")

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
    xl, yl = t.left.x, t.left.y
    xm, ym = t.mid.x, t.mid.y
    xr, yr = t.right.x, t.right.y
    numerator = (
        yl * (xm * xm - xr * xr)
        + ym * (xr * xr - xl * xl)
        + yr * (xl * xl - xm * xm)
    )
    denominator = yl * (xm - xr) + ym * (xr - xl) + yr * (xl - xm)
    if denominator == 0.0:
        raise CollinearPointsError(f"collinear points at x={xl!r}, {xm!r}, {xr!r}")
    return 0.5 * numerator / denominator


def _scan_for_triple(points: list[Point2]) -> BracketTriple | None:
    """Search the run's points (one per abscissa) for a bracketing triple.

    The candidate middle is the best point seen so far (earliest on ties);
    the flanks are the nearest strictly-greater points on each side, which
    gives the tightest bracket the transcript supports.
    """
    best = min(points, key=lambda p: p.y)
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
    return BracketTriple(left, best, right)


def minimize_ratio_a(
    obj: CountingObjective,
    interval: Interval,
    tol: Tolerance,
    cfg: RatioConfig | None = None,
    *,
    bracket_log: list[tuple[float, float]] | None = None,
) -> MinimizeOutcome:
    """Active ratio-section search (parabolic steps, ratio fallbacks).

    Phase 1 runs passive ratio-section steps at ``c = 0.5`` — the
    :class:`~ratiosect.classify.Recognizer` and the tie rule of
    :func:`~ratiosect.section_search.minimize_ratio_p` included — until the
    run's points (one per abscissa) contain a bracketing triple.  Phase 2
    then iterates: take the parabola vertex if it is defined, lies strictly
    inside the bracket and is at least ``e0`` away from the current best
    point; otherwise place a ratio probe ``r = c*s + (1-c)*mid.x`` toward
    the farther bracket endpoint ``s`` (never closer to ``mid`` than
    ``e0``).  Two adjacent triple points sharing an ordinate classify the
    target as flat-bottomed; the run converges when the bracket width
    drops to ``2*e0``.
    """
    if cfg is None:
        cfg = RatioConfig(1e-3)
    a, b = interval.lo, interval.hi
    start = obj.count
    if bracket_log is not None:
        bracket_log.append((a, b))

    # --- Phase 1: bisection-mode bootstrap with recognizers -------------
    recognizer = Recognizer(obj, interval, tol)
    m = obj.evaluate(0.5 * (a + b))
    triple: BracketTriple | None = None
    while triple is None:
        if stop_test(a, b, m.x, tol) or max(m.x - a, b - m.x) <= e0(tol, m.x):
            return MinimizeOutcome(
                m.x, m.y, obj.count - start,
                FunctionClass.STRICT_INTERIOR, SolveStatus.CONVERGED,
            )
        if obj.count - start + 1 > tol.max_evaluations:
            return MinimizeOutcome(
                m.x, m.y, obj.count - start,
                FunctionClass.STRICT_INTERIOR, SolveStatus.BUDGET_EXHAUSTED,
            )
        if b - m.x >= m.x - a:
            px = 0.5 * b + 0.5 * m.x
        else:
            px = 0.5 * a + 0.5 * m.x
        p = obj.evaluate(px)
        recognized = recognizer.observe()
        if recognized is not None:
            return recognized
        triple = _scan_for_triple(recognizer.distinct)
        if triple is not None:
            break

        if p.y <= m.y:
            if p.x < m.x:
                b = m.x
            else:
                a = m.x
            m = p
        else:
            if p.x < m.x:
                a = p.x
            else:
                b = p.x
        if bracket_log is not None:
            bracket_log.append((a, b))

    # --- Phase 2: successive parabolic interpolation with guards --------
    left, mid, right = triple.left, triple.mid, triple.right
    if bracket_log is not None:
        bracket_log.append((left.x, right.x))
    status = SolveStatus.CONVERGED
    while True:
        if right.x - left.x <= 2.0 * e0(tol, mid.x):
            break
        if obj.count - start + 1 > tol.max_evaluations:
            status = SolveStatus.BUDGET_EXHAUSTED
            break
        tiny = e0(tol, mid.x)
        r: float | None
        try:
            r = parabola_vertex(BracketTriple(left, mid, right))
        except CollinearPointsError:
            r = None
        if r is not None and not (left.x < r < right.x and abs(r - mid.x) >= tiny):
            r = None
        if r is None:
            # Ratio fallback toward the farther endpoint (ties go right),
            # clamped so the probe keeps the minimum displacement from mid.
            if mid.x - left.x > right.x - mid.x:
                s = left.x
            else:
                s = right.x
            r = cfg.c * s + (1.0 - cfg.c) * mid.x
            if abs(r - mid.x) < tiny:
                r = mid.x + tiny if s > mid.x else mid.x - tiny
            if not left.x < r < right.x:
                # The displacement guard leaves no admissible abscissa
                # inside the bracket: it is already at resolution.
                break
        p = obj.evaluate(r)

        if p.y < mid.y:
            if p.x < mid.x:
                right = mid
            else:
                left = mid
            mid = p
        else:
            if p.x < mid.x:
                left = p
            else:
                right = p
        if bracket_log is not None:
            bracket_log.append((left.x, right.x))
        # Plateau: equal ordinates on adjacent triple points.
        if left.y == mid.y or mid.y == right.y:
            return MinimizeOutcome(
                mid.x, mid.y, obj.count - start,
                FunctionClass.FLAT_BOTTOM, SolveStatus.CONVERGED,
            )
    return MinimizeOutcome(
        x_min=mid.x,
        f_min=mid.y,
        evaluations=obj.count - start,
        classification=FunctionClass.STRICT_INTERIOR,
        status=status,
    )
