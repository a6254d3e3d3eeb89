"""Brent's derivative-free local minimizer and its ratio-section variant.

:func:`brent_minimize` is the classical combined method: successive
parabolic interpolation through the three best points, guarded by
golden-section steps whenever the parabola is untrustworthy (vertex out of
bounds, or a step not smaller than half the second-to-last step).
:func:`brent_m_minimize` takes ratio-section steps ``d = c*e`` instead and
lets the recognizers of :mod:`~ratiosect.classify` watch its run, so
constants finish in 3 evaluations and monotone targets in 6 with the
exact endpoint (classical Brent grinds through dozens of evaluations on
those and stops short of a monotone target's endpoint by up to ``3*e0``).

Both are one step generator, ``_brent``, which takes the fallback ratio
and which the private driver of :mod:`~ratiosect.core` runs, with the
variant's recognizer or none.  So with ``c`` equal to the golden step
constant and no recognizers the variant reproduces the classical
transcript bit for bit (acceptance criterion C8); a scipy comparison
test anchors the classical transcripts.
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
    _drive,
    _section,
    halfway,
    stop_test,
)
from .section_search import RatioConfig

_STRICT = FunctionClass.STRICT_INTERIOR

#: Fraction of the larger sub-interval taken by a golden fallback step,
#: (3 - sqrt(5)) / 2.
GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0


def _brent(interval: Interval, tol: Tolerance, c: float,
           bracket_log: list[tuple[float, float]] | None):
    """The steps of both Brent solvers, with fallback steps ``d = c*e``."""
    a, b = interval.lo, interval.hi
    if bracket_log is not None:
        bracket_log.append((a, b))
    # Read once per solve; the loop uses them on every probe.
    epsilon, floor = tol.epsilon, tol.floor
    # Every budget has room for the first probe.
    x, fx = yield _section(a, b, GOLDEN_STEP)
    w, fw = x, fx
    v, fv = x, fx
    d = 0.0
    e = 0.0

    while not stop_test(a, b, x, tol):
        m = halfway(a, b)
        tol1 = epsilon * abs(x) + floor
        t2 = 2.0 * tol1

        p = q = r = 0.0
        if abs(e) > tol1:
            # Fit a parabola through (x, fx), (w, fw), (v, fv).
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            r = e
            e = d
        if abs(p) < abs(0.5 * q * r) and p > q * (a - x) and p < q * (b - x):
            d = p / q
            u = x + d
            # Don't land within t2 of a bound.
            if u - a < t2 or b - u < t2:
                d = tol1 if x < m else -tol1
        else:
            e = (b - x) if x < m else (a - x)
            if math.isfinite(e):
                # A tiny c can underflow c*e to zero; keep the step's side.
                d = c * e or (tol1 if e > 0.0 else -tol1)
            else:
                # e overflows: take the step from the half-width, twice.
                half = c * (0.5 * (b if x < m else a) - 0.5 * x)
                d = half + half
        # Never evaluate closer than tol1 to x.
        if abs(d) >= tol1:
            # Only the half-width step is infinite (the parabolic branch
            # bounds its own): 2*half can overflow, x + 2*half cannot.
            u = x + d if d - d == 0.0 else x + half + half
        else:
            u = x + (tol1 if d >= 0.0 else -tol1)
        point = yield u
        if point is None:
            break
        fu = point[1]

        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv = w, fw
            w, fw = x, fx
            x, fx = u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv = w, fw
                w, fw = u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        if bracket_log is not None:
            bracket_log.append((a, b))
    return x, fx, _STRICT


def brent_minimize(
    obj: CountingObjective,
    interval: Interval,
    tol: Tolerance,
    *,
    bracket_log: list[tuple[float, float]] | None = None,
) -> MinimizeOutcome:
    """Classical Brent minimization.

    Starts at ``a + g*(b - a)``.  A parabolic step through the three
    retained points ``x, w, v`` is accepted only when its target lies
    within bounds and its length is below half of the second-to-last step;
    otherwise a golden step ``d = g*e`` into the larger sub-interval is
    taken.  Every probe is kept at least ``e0(x)`` away from ``x``.  No
    classification is attempted: the verdict is always ``strict_interior``.
    """
    return _drive(obj, tol, _brent(interval, tol, GOLDEN_STEP, bracket_log))


def brent_m_minimize(
    obj: CountingObjective,
    interval: Interval,
    tol: Tolerance,
    cfg: RatioConfig | None = None,
    *,
    use_recognizers: bool = True,
    bracket_log: list[tuple[float, float]] | None = None,
) -> MinimizeOutcome:
    """Brent minimization with ratio-section fallbacks and recognizers.

    Identical to :func:`brent_minimize` except that (i) the fallback step
    is ``d = c*e`` (default ``c = 0.2``), (ii) a
    :class:`~ratiosect.classify.Recognizer` checks the run for a flat
    bottom after every evaluation, and (iii) runs the monotone recognizer
    once when the run first holds four distinct abscissas.  Pass
    ``use_recognizers=False`` to strip (ii) and (iii).

    The recognizer runs in its ``spaced`` flavour: the flat-bottom rule
    counts only abscissas more than ``2*e0`` apart
    (:func:`~ratiosect.classify.separated_count`), because this loop's
    ``tol1`` steps put probes ``e0`` apart, and near a very flat bottom
    three of them can share the ordinate of one wall step.
    """
    c = 0.2 if cfg is None else cfg.c
    recognizer = Recognizer(interval, tol, spaced=True) if use_recognizers else None
    return _drive(obj, tol, _brent(interval, tol, c, bracket_log), recognizer)
