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
* :class:`Recognizer` — both rules over one solver run, fed the point
  each evaluation returns, at O(1) cost per evaluation.  The solvers'
  driver feeds it for ratio-p, ratio-a and the modernized Brent variant.
  It evaluates nothing: the driver evaluates each monotone probe it asks
  for, placed and judged as in :func:`detect_monotone`.
"""

from __future__ import annotations

from .core import (
    CountingObjective,
    FunctionClass,
    Interval,
    Point2,
    Tolerance,
    e0,
)

_FLAT = FunctionClass.FLAT_BOTTOM
_INCREASING = FunctionClass.MONOTONE_INCREASING
_DECREASING = FunctionClass.MONOTONE_DECREASING


def detect_monotone(
    w: list[Point2],
    interval: Interval,
    obj: CountingObjective,
    tol: Tolerance,
) -> tuple[FunctionClass, Point2] | None:
    """Try to confirm that the target is monotone on ``interval``.

    ``w`` must hold at least four points with pairwise-distinct abscissas,
    all inside ``interval``.  A copy is sorted by abscissa; if the ordinate
    sequence is not non-strictly monotone the hypothesis is rejected for
    free.  Otherwise up to two confirmation probes are spent: ``u`` at the
    endpoint where the minimum would sit, and ``v`` one tolerance step
    ``e0`` inside from that endpoint.  The hypothesis survives iff
    ``u.y <= min(sorted ordinates)`` and ``u.y <= v.y`` (non-strict, so
    monotone functions with flat stretches pass too).

    Returns ``(direction, u)``: ``MONOTONE_INCREASING`` with ``u`` the left
    endpoint, or ``MONOTONE_DECREASING`` with the right one; or ``None`` if
    the hypothesis dies at any stage.  A confirmation costs two evaluations.
    Never confirms a strictly unimodal target whose interior minimum lies
    below both endpoint ordinates, provided ``w`` straddles the minimizer.
    """
    if len(w) < 4:
        raise ValueError("monotone check needs at least four evaluated points")
    # Points are (x, y) tuples, so sorting them orders them by abscissa.
    xs, ys = zip(*sorted(w))
    # xs is sorted, so a set and its ends settle both checks; loops only report.
    if len(set(xs)) < len(xs):
        for left, right in zip(xs, xs[1:]):
            if left == right:
                raise ValueError(f"duplicate abscissa {left!r} in monotone check")
    if not interval.lo <= xs[0] <= xs[-1] <= interval.hi:
        for x in xs:
            if x not in interval:
                raise ValueError(f"point x={x!r} outside {interval}")

    check = _monotone_check(list(ys), interval, tol, lambda point: None)
    x = next(check, None)
    while x is not None:
        point = obj.evaluate(x)
        try:
            x = check.send(point)
        except StopIteration as stop:
            return stop.value
    return None


def _monotone_check(ys: list[float], interval: Interval, tol: Tolerance, feed):
    """The rule of :func:`detect_monotone` on ordinates ``ys`` in abscissa
    order, as a generator: it yields the abscissa of each probe, is sent
    the point evaluated there, and returns its verdict.  A rejection after
    a probe returns ``feed(u)``, or ``feed(v)`` if that is ``None``."""
    ordered = sorted(ys)
    # All-equal ordinates land here too: either endpoint is a minimizer.
    if ys == ordered:
        direction, end, inward = _INCREASING, interval.lo, 1.0
    elif ys[::-1] == ordered:
        direction, end, inward = _DECREASING, interval.hi, -1.0
    else:
        return None
    u = yield end
    if not u.y <= ordered[0]:
        return feed(u)
    v = yield end + inward * e0(tol, end)
    return (direction, u) if u.y <= v.y else (feed(u) or feed(v))


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
    """Flat-bottom and monotone recognition over one solver run.

    Create it before the run's first evaluation; the solvers' driver hands
    :meth:`observe` each point the run evaluates, the first included.  It
    drops a point whose abscissa the run already holds; the points kept,
    in evaluation order, are :attr:`distinct`.  Each ordinate maps to its level: the
    rank in :attr:`distinct` of the level's first point, and, once a
    second point joins, the level's abscissas (so a run whose ordinates
    never repeat allocates no list).  Only the level a new point joins can
    newly qualify as a plateau, so the plain rule costs O(1) per point.

    A level qualifies with three abscissas.  With ``spaced=True`` (the
    modernized Brent flavour) they must also lie pairwise more than
    ``2*e0`` apart (:func:`separated_count`).  The first point to complete
    a level decides, and the verdict's minimizer is that level's first
    point: what :func:`detect_flat_bottom` gives on the points fed so far.

    The monotone check runs once, when the fourth distinct abscissa joins
    and the four ordinates, in abscissa order, look monotone:
    :meth:`observe` then asks for the endpoint probe ``u``, and
    :meth:`probed`, handed each probe, asks for the inner one ``v`` or
    answers.  Only a rejected check's probes are fed, one at a time.  Fed
    together they would give the same answer, as they never complete two
    different levels: ``v`` is evaluated only if ``u.y <= min(ys)``, so a
    ``u`` that completes a level has ``u.y == min(ys)``, and the check then
    rejects only if ``v.y < u.y``, below every level there is.
    """

    def __init__(self, interval: Interval, tol: Tolerance, *,
                 spaced: bool = False) -> None:
        self.interval = interval
        self.tol = tol
        self.spaced = spaced
        self.distinct: list[Point2] = []
        self.abscissas: set[float] = set()
        self.first: dict[float, int] = {}
        self.level_xs: dict[float, list[float]] = {}
        self.check = None

    def observe(self, point: Point2) -> tuple[FunctionClass, Point2] | float | None:
        """Feed the point just evaluated; a verdict ``(classification,
        minimizer)``, the monotone check's first probe abscissa, or ``None``."""
        x, y = point
        abscissas = self.abscissas
        if x in abscissas:
            return None
        abscissas.add(x)
        distinct = self.distinct
        n = len(distinct)
        distinct.append(point)
        rank = self.first.setdefault(y, n)
        if rank != n:
            xs = self.level_xs.get(y)
            if xs is None:
                self.level_xs[y] = [distinct[rank].x, x]
            else:
                xs.append(x)
                if not self.spaced or separated_count(xs, self.tol) >= 3:
                    return _FLAT, distinct[rank]
        if n == 3:
            (_, y0), (_, y1), (_, y2), (_, y3) = sorted(distinct)
            if y0 <= y1 <= y2 <= y3 or y0 >= y1 >= y2 >= y3:
                self.check = _monotone_check([y0, y1, y2, y3], self.interval,
                                             self.tol, self.observe)
                return next(self.check)
        return None

    def probed(self, point: Point2) -> tuple[FunctionClass, Point2] | float | None:
        """Hand back the probe last asked for; the next probe's abscissa, a
        verdict, or ``None``.  A rejected check's probes are then fed in turn."""
        try:
            return self.check.send(point)
        except StopIteration as stop:
            return stop.value
