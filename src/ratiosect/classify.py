"""Fast recognizers for monotone and flat-bottom targets.

Segment-elimination solvers spend dozens of evaluations on targets that
could be dispatched almost immediately: a monotone function's minimum sits
at an interval endpoint, and a plateau at the bottom of a unimodal function
stalls ordinate comparisons entirely.  The recognizers here settle both
cases cheaply:

* :func:`detect_monotone` — given four or more evaluated points whose
  sorted ordinates look monotone, confirms the hypothesis with two extra
  endpoint evaluations and returns the exact endpoint minimizer.
* :func:`detect_flat_bottom` — purely combinatorial (zero evaluations):
  fires when a list of points holds three with pairwise distinct
  abscissas and identical ordinates.  It rescans the whole list, and is
  kept as the reference the incremental recognizer is tested against.
* :func:`separated_count` — the stricter spacing the modernized Brent
  variant asks of such a triple: abscissas more than ``2*e0`` apart.
* :class:`Recognizer` — both rules, fed incrementally from one solver
  run's transcript at O(1) amortized cost per evaluation.  The passive and
  active ratio solvers and the modernized Brent variant all use it.
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
    e0,
)


@dataclass(frozen=True)
class MonotoneVerdict:
    """A confirmed monotone hypothesis.

    ``direction`` is either ``MONOTONE_INCREASING`` or
    ``MONOTONE_DECREASING``; ``minimizer`` is the evaluated interval
    endpoint (left for increasing, right for decreasing).  A confirmed
    verdict always costs two evaluations.
    """

    direction: FunctionClass
    minimizer: Point2

    def __post_init__(self) -> None:
        if self.direction not in (
            FunctionClass.MONOTONE_INCREASING,
            FunctionClass.MONOTONE_DECREASING,
        ):
            raise ValueError(f"not a monotone direction: {self.direction}")


def detect_monotone(
    w: list[Point2],
    interval: Interval,
    obj: CountingObjective,
    tol: Tolerance,
) -> MonotoneVerdict | None:
    """Try to confirm that the target is monotone on ``interval``.

    ``w`` must hold at least four points with pairwise-distinct abscissas,
    all inside ``interval``.  A copy is sorted by abscissa; if the ordinate
    sequence is not non-strictly monotone the hypothesis is rejected for
    free.  Otherwise up to two confirmation probes are spent: ``u`` at the
    endpoint where the minimum would sit, and ``v`` one tolerance step
    ``e0`` inside from that endpoint.  The hypothesis survives iff
    ``u.y <= min(sorted ordinates)`` and ``u.y <= v.y`` (non-strict, so
    monotone functions with flat stretches pass too).

    Returns the verdict, or ``None`` if the hypothesis dies at any stage.
    Never confirms a strictly unimodal target whose interior minimum lies
    below both endpoint ordinates, provided ``w`` straddles the minimizer.
    """
    if len(w) < 4:
        raise ValueError("monotone check needs at least four evaluated points")
    pts = sorted(w, key=lambda p: p.x)
    for left, right in zip(pts, pts[1:]):
        if left.x == right.x:
            raise ValueError(f"duplicate abscissa {left.x!r} in monotone check")
    for p in pts:
        if p.x not in interval:
            raise ValueError(f"point x={p.x!r} outside {interval}")

    ys = [p.y for p in pts]
    non_decreasing = all(a <= b for a, b in zip(ys, ys[1:]))
    non_increasing = all(a >= b for a, b in zip(ys, ys[1:]))
    if non_decreasing:
        # Minimum would sit at the left endpoint; probe it and a point one
        # tolerance step inside.  (All-equal ordinates land here as well:
        # either endpoint is then a valid minimizer.)
        direction = FunctionClass.MONOTONE_INCREASING
        end = interval.lo
        inner = interval.lo + e0(tol, interval.lo)
    elif non_increasing:
        direction = FunctionClass.MONOTONE_DECREASING
        end = interval.hi
        inner = interval.hi - e0(tol, interval.hi)
    else:
        return None

    u = obj.evaluate(end)
    if not u.y <= min(ys):
        return None
    v = obj.evaluate(inner)
    if not u.y <= v.y:
        return None
    return MonotoneVerdict(direction=direction, minimizer=u)


def detect_flat_bottom(w: list[Point2]) -> Point2 | None:
    """Find a plateau: three points with distinct abscissas, equal ordinates.

    Ordinate equality is exact (no tolerance): genuine plateaus reproduce
    the same float bit-for-bit, while the gently-curved bottom of a smooth
    valley does not.  Costs zero objective evaluations.  Returns the
    earliest-evaluated point of a qualifying ordinate group, or ``None``.
    """
    by_ordinate: dict[float, list[tuple[int, Point2]]] = {}
    for index, p in enumerate(w):
        by_ordinate.setdefault(p.y, []).append((index, p))
    earliest: tuple[int, Point2] | None = None
    for entries in by_ordinate.values():
        if len({p.x for _, p in entries}) < 3:
            continue
        if earliest is None or entries[0][0] < earliest[0]:
            earliest = entries[0]
    return earliest[1] if earliest else None


def separated_count(xs: list[float], tol: Tolerance) -> int:
    """How many of the abscissas ``xs`` lie pairwise more than ``2*e0``
    apart, counted greedily from the left in sorted order.

    Two abscissas within ``2*e0`` of each other are one point to the stop
    test, so a flat-bottom rule that counts them separately can fire on a
    single quantization step.
    """
    count = 0
    last: float | None = None
    for x in sorted(xs):
        if last is None or x - last > 2.0 * e0(tol, x):
            count += 1
            last = x
    return count


class Recognizer:
    """Flat-bottom and monotone recognition over one solver run, fed
    incrementally from the run's transcript.

    Create it before the run's first evaluation and call :meth:`observe`
    after each probe (or pair of probes).  It reads only the points added
    since its last call and drops a point whose abscissa the run already
    holds; the points kept, in evaluation order, are :attr:`distinct`.
    Each ordinate maps to its level: the rank in :attr:`distinct` of the
    level's first point, and, once a second point joins, the level's
    abscissas (so a run whose ordinates never repeat allocates no list).
    Only a level that a new point joins can newly qualify as a plateau, so
    the plain rule costs O(1) per evaluation.

    A level qualifies with three abscissas.  With ``spaced=True`` (the
    modernized Brent flavour) they must also lie pairwise more than
    ``2*e0`` apart (:func:`separated_count`), and the first new point to
    complete a level decides.  Otherwise the answer is what
    :func:`detect_flat_bottom` gives on the run: when one batch completes
    several levels, the level whose first point is earliest wins.  Either
    way the outcome's minimizer is that level's first point.

    The monotone check runs once, when the run first holds four distinct
    abscissas and the budget leaves room for its two probes; those probes
    are fed to the flat-bottom rule as well.
    """

    def __init__(self, obj: CountingObjective, interval: Interval,
                 tol: Tolerance, *, spaced: bool = False) -> None:
        self.obj = obj
        self.interval = interval
        self.tol = tol
        self.spaced = spaced
        self.start = self.fed = obj.count
        self.distinct: list[Point2] = []
        self.abscissas: set[float] = set()
        self.first: dict[float, int] = {}
        self.level_xs: dict[float, list[float]] = {}
        self.monotone_done = False

    def observe(self) -> MinimizeOutcome | None:
        """Feed the new transcript points; the run's outcome if a
        recognizer fired, else ``None``."""
        outcome = self._plateau()
        if outcome is None and not self.monotone_done and len(self.distinct) >= 4:
            self.monotone_done = True
            if self.obj.count - self.start + 2 <= self.tol.max_evaluations:
                verdict = detect_monotone(self.distinct, self.interval, self.obj, self.tol)
                if verdict is not None:
                    return self._outcome(verdict.minimizer, verdict.direction)
                outcome = self._plateau()
        return outcome

    def _plateau(self) -> MinimizeOutcome | None:
        transcript = self.obj.transcript
        start, self.fed = self.fed, len(transcript)
        abscissas, distinct, first = self.abscissas, self.distinct, self.first
        found: int | None = None
        for i in range(start, self.fed):
            point = transcript[i]
            x, y = point
            if x in abscissas:
                continue
            abscissas.add(x)
            n = len(distinct)
            distinct.append(point)
            rank = first.setdefault(y, n)
            if rank == n:
                continue
            xs = self.level_xs.get(y)
            if xs is None:
                self.level_xs[y] = [distinct[rank].x, x]
                continue
            xs.append(x)
            if self.spaced and separated_count(xs, self.tol) < 3:
                continue
            if found is None or rank < found:
                found = rank
            if self.spaced:
                break
        if found is None:
            return None
        return self._outcome(distinct[found], FunctionClass.FLAT_BOTTOM)

    def _outcome(self, p: Point2, cls: FunctionClass) -> MinimizeOutcome:
        return MinimizeOutcome(p.x, p.y, self.obj.count - self.start, cls,
                               SolveStatus.CONVERGED)
