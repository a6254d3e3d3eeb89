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

The bootstrap phase is the passive solver's own loop in bisection mode
(``c = 0.5``), recognizers included, so degenerate targets finish as fast
as they do under the passive method.

The parabolic phase runs on six floats, not on :class:`BracketTriple`
objects, with the vertex formula that :func:`parabola_vertex` wraps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    CountingObjective,
    FunctionClass,
    Interval,
    MinimizeOutcome,
    Point2,
    SolveStatus,
    Tolerance,
)
from .section_search import RatioConfig, _ordinate, _ratio_section

_STRICT = FunctionClass.STRICT_INTERIOR
_FLAT = FunctionClass.FLAT_BOTTOM
_CONVERGED = SolveStatus.CONVERGED
_BUDGET = SolveStatus.BUDGET_EXHAUSTED


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


def _vertex(xl: float, yl: float, xm: float, ym: float, xr: float,
            yr: float) -> float | None:
    """The vertex formula of :func:`parabola_vertex` on bare floats;
    ``None`` when the denominator vanishes."""
    denominator = yl * (xm - xr) + ym * (xr - xl) + yr * (xl - xm)
    if denominator == 0.0:
        return None
    numerator = (
        yl * (xm * xm - xr * xr)
        + ym * (xr * xr - xl * xl)
        + yr * (xl * xl - xm * xm)
    )
    return 0.5 * numerator / denominator


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
    r = _vertex(xl, yl, xm, ym, xr, yr)
    if r is None:
        raise CollinearPointsError(f"collinear points at x={xl!r}, {xm!r}, {xr!r}")
    return r


def _scan_for_triple(points: list[Point2]) -> BracketTriple | None:
    """Search the run's points (one per abscissa) for a bracketing triple.

    The candidate middle is the best point seen so far (earliest on ties);
    the flanks are the nearest strictly-greater points on each side, which
    gives the tightest bracket the transcript supports.
    """
    best = min(points, key=_ordinate)
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

    Phase 1 is the loop of
    :func:`~ratiosect.section_search.minimize_ratio_p` at ``c = 0.5``, its
    recognizers and tie rule included, run until the run's points (one
    per abscissa) contain a bracketing triple.  Phase 2 then iterates:
    take the parabola vertex if it is defined, lies strictly inside the
    bracket and is at least ``e0`` away from the current best point;
    otherwise place a ratio probe ``r = c*s + (1-c)*mid.x`` toward the
    farther bracket endpoint ``s`` (never closer to ``mid`` than
    ``e0``).  Two adjacent triple points sharing an ordinate classify the
    target as flat-bottomed; the run converges when the bracket width
    drops to ``2*e0``.

    Phase 2 keeps the triple in six floats, validated once at the
    hand-over.  Each step keeps ``xl < xm < xr`` with ``ym`` strictly
    lowest: the probe lies inside ``(xl, xr)`` at least ``e0`` from
    ``xm``, and an ordinate equal to ``ym`` ends the run as a flat bottom
    (as when a clamped probe rounds back onto ``xm``).
    """
    if cfg is None:
        cfg = RatioConfig(1e-3)
    start = obj.count
    # --- Phase 1: ratio-p's loop at c = 0.5, until a bracketing triple ---
    triple = _ratio_section(obj, interval, tol, 0.5, bracket_log, _scan_for_triple)
    if isinstance(triple, MinimizeOutcome):
        return triple

    # --- Phase 2: successive parabolic interpolation with guards --------
    # Read once per solve; the loop uses them on every probe.
    epsilon, floor, c = tol.epsilon, tol.floor, cfg.c
    transcript, limit = obj.transcript, start + tol.max_evaluations
    (xl, yl), (xm, ym), (xr, yr) = triple.left, triple.mid, triple.right
    if bracket_log is not None:
        bracket_log.append((xl, xr))
    status = _CONVERGED
    while True:
        tiny = epsilon * abs(xm) + floor
        if xr - xl <= 2.0 * tiny:
            break
        if len(transcript) + 1 > limit:
            status = _BUDGET
            break
        r = _vertex(xl, yl, xm, ym, xr, yr)
        if r is None or not (xl < r < xr and abs(r - xm) >= tiny):
            # Ratio fallback toward the farther endpoint (ties go right),
            # clamped so the probe keeps the minimum displacement from mid.
            s = xl if xm - xl > xr - xm else xr
            r = c * s + (1.0 - c) * xm
            if abs(r - xm) < tiny:
                r = xm + tiny if s > xm else xm - tiny
            if not xl < r < xr:
                # The displacement guard leaves no admissible abscissa
                # inside the bracket: it is already at resolution.
                break
        y = obj.evaluate(r).y

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
        if bracket_log is not None:
            bracket_log.append((xl, xr))
        # Plateau: equal ordinates on adjacent triple points.
        if yl == ym or ym == yr:
            return MinimizeOutcome(xm, ym, len(transcript) - start, _FLAT,
                                   _CONVERGED)
    return MinimizeOutcome(xm, ym, len(transcript) - start, _STRICT, status)
