import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratiosect.active_search import (
    _GUARD_PERIOD,
    BracketTriple,
    CollinearPointsError,
    _ratio_a,
    _scan_for_triple,
    minimize_ratio_a,
    parabola_vertex,
)
from ratiosect.benchsuite import benchmark_function
from ratiosect.brent import brent_m_minimize, brent_minimize
from ratiosect.classify import Recognizer
from ratiosect.core import (
    CountingObjective,
    EvaluationError,
    FunctionClass,
    Interval,
    Point2,
    SolveStatus,
    Tolerance,
    _DETACH,
    _drive,
    e0,
)
from ratiosect.expressions import parse_expression
from ratiosect.section_search import (
    RatioConfig,
    minimize_bisection,
    minimize_golden,
    minimize_ratio_p,
)

TOL = Tolerance()


# -------------------------------------------------------------- BracketTriple

def test_triple_accepts_valid_bracket():
    t = BracketTriple(Point2(0.0, 2.0), Point2(1.0, 1.0), Point2(2.0, 3.0))
    assert t.width == 2.0


def test_triple_rejects_unordered_abscissas():
    with pytest.raises(ValueError):
        BracketTriple(Point2(1.0, 2.0), Point2(0.0, 1.0), Point2(2.0, 3.0))


def test_triple_rejects_non_bracketing_ordinates():
    with pytest.raises(ValueError):
        BracketTriple(Point2(0.0, 1.0), Point2(1.0, 1.0), Point2(2.0, 3.0))
    with pytest.raises(ValueError):
        BracketTriple(Point2(0.0, 0.5), Point2(1.0, 1.0), Point2(2.0, 3.0))


# ------------------------------------------------------------ parabola vertex

def test_vertex_of_known_parabola():
    f = lambda x: 2.0 * (x - 0.75) ** 2 + 1.0
    t = BracketTriple(Point2(0.0, f(0.0)), Point2(0.5, f(0.5)),
                      Point2(2.0, f(2.0)))
    assert parabola_vertex(t) == pytest.approx(0.75, abs=1e-14)


def test_vertex_collinear_raises():
    # Ordinates on a strict V: the parabola through them degenerates when
    # the three points happen to be collinear.
    t = BracketTriple(Point2(-1.0, 1.0), Point2(0.0, 0.0), Point2(1.0, 1.0))
    # Not collinear (it is a genuine V) — sanity-check the fixture itself.
    assert parabola_vertex(t) == pytest.approx(0.0, abs=1e-15)

    # The triple invariant forbids constructing a true line through the
    # normal path, so build the degenerate object directly.
    p = BracketTriple.__new__(BracketTriple)
    object.__setattr__(p, "left", Point2(0.0, 2.0))
    object.__setattr__(p, "mid", Point2(1.0, 1.0))
    object.__setattr__(p, "right", Point2(2.0, 0.0))
    with pytest.raises(CollinearPointsError):
        parabola_vertex(p)


@given(
    a=st.floats(min_value=0.01, max_value=1000.0),
    v=st.floats(min_value=-50.0, max_value=50.0),
    k=st.floats(min_value=-10.0, max_value=10.0),
    x1=st.floats(min_value=-3.0, max_value=-0.1),
    x3=st.floats(min_value=0.1, max_value=3.0),
)
def test_vertex_recovers_random_quadratics(a, v, k, x1, x3):
    f = lambda x: a * (x - v) ** 2 + k
    t = BracketTriple(
        Point2(v + x1, f(v + x1)), Point2(v, f(v)), Point2(v + x3, f(v + x3))
    )
    scale = max(1.0, abs(v))
    assert abs(parabola_vertex(t) - v) <= 1e-9 * scale


# ------------------------------------------------------------- minimize_ratio_a

def test_quadratic_converges_fast():
    obj = CountingObjective(lambda x: (x - 0.3) ** 2 + 1.0)
    out = minimize_ratio_a(obj, Interval(0.0, 1.0), TOL)
    assert out.converged
    assert abs(out.x_min - 0.3) <= 10.0 * e0(TOL, 0.3)
    # Parabolic steps should land this in far fewer evaluations than the
    # 30+ a passive elimination needs.
    assert out.evaluations <= 15


def test_default_ratio_is_one_thousandth():
    bf = benchmark_function(12)
    explicit = CountingObjective(bf.evaluator)
    default = CountingObjective(bf.evaluator)
    out_explicit = minimize_ratio_a(explicit, bf.interval, TOL, RatioConfig(1e-3))
    out_default = minimize_ratio_a(default, bf.interval, TOL)
    assert [p.x for p in explicit.transcript] == [p.x for p in default.transcript]
    assert out_explicit.evaluations == out_default.evaluations


def test_constant_three_evaluations():
    obj = CountingObjective(lambda x: -4.0)
    out = minimize_ratio_a(obj, Interval(0.0, 9.0), TOL)
    assert out.evaluations == 3
    assert out.classification is FunctionClass.FLAT_BOTTOM


def test_monotone_six_evaluations():
    obj = CountingObjective(lambda x: math.exp(x))
    out = minimize_ratio_a(obj, Interval(-2.0, 2.0), TOL)
    assert out.evaluations == 6
    assert out.classification is FunctionClass.MONOTONE_INCREASING
    assert out.x_min == -2.0


def test_plateau_classified_flat():
    f = lambda x: max(abs(x - 1.0), 0.25)
    obj = CountingObjective(f)
    out = minimize_ratio_a(obj, Interval(0.0, 3.0), TOL)
    assert out.classification is FunctionClass.FLAT_BOTTOM
    assert out.f_min == 0.25


def test_budget_exhaustion_reported():
    tol = Tolerance(max_evaluations=4)
    obj = CountingObjective(lambda x: (x - 0.3) ** 2 + 1.0)
    out = minimize_ratio_a(obj, Interval(0.0, 1.0), tol)
    assert not out.converged
    assert out.evaluations <= 4


def test_terminates_at_bracket_resolution_limit():
    # Regression guard: on steep, well-scaled minima the bracket can
    # stall one ulp above the 2*e0 stopping width while the displacement
    # clamp keeps proposing the same just-outside abscissa.  The solver
    # must detect that no admissible probe remains and converge rather
    # than burn the whole budget re-evaluating one point.
    for fid in (8, 12, 13, 15):
        bf = benchmark_function(fid)
        obj = CountingObjective(bf.evaluator)
        out = minimize_ratio_a(obj, bf.interval, TOL, RatioConfig(1e-3))
        assert out.converged, fid
        assert out.evaluations < 100, fid


def test_brackets_contain_minimizer_and_shrink():
    v = 1.3
    f = lambda x: 5.0 * (x - v) ** 2 + 2.0
    log: list[tuple[float, float]] = []
    obj = CountingObjective(f)
    out = minimize_ratio_a(obj, Interval(0.0, 4.0), TOL, bracket_log=log)
    assert out.converged
    slack = 10.0 * e0(TOL, v)
    assert all(a - slack <= v <= b + slack for a, b in log)
    widths = [b - a for a, b in log]
    assert all(w2 <= w1 for w1, w2 in zip(widths, widths[1:]))
    # Strict shrink at least every second step.
    assert all(w2 < w1 for w1, w2 in zip(widths, widths[2:]))


def test_probes_keep_minimum_displacement():
    # Once the bracketing triple exists, every probe must sit at least
    # e0 away from the incumbent best abscissa at that moment.
    f = lambda x: (x - 1.3) ** 2 + 2.0
    obj = CountingObjective(f)
    minimize_ratio_a(obj, Interval(0.0, 4.0), TOL)
    best = obj.transcript[0]
    for p in obj.transcript[1:]:
        assert abs(p.x - best.x) >= e0(TOL, best.x) * (1.0 - 1e-12)
        if p.y < best.y:
            best = p


def test_clamped_probe_that_rounds_onto_mid_ends_the_run():
    # An interval a few ulps wide with a tolerance far below an ulp: the
    # clamped fallback xm +- e0 rounds back onto xm.  Phase 2 ends at
    # resolution instead of evaluating xm a second time (5 evaluations,
    # xm at the first and the fifth, and a flat_bottom verdict, before).
    f = lambda x: abs(x - 1.0592547469349431) ** 1.1150575241423124
    obj = CountingObjective(f)
    out = minimize_ratio_a(obj, Interval(1.0592547469349416, 1.059254746934944),
                           Tolerance(1.48e-94, 1.2e-214, 36))
    xs = [p.x for p in obj.transcript]
    assert len(set(xs)) == len(xs) == out.evaluations == 4
    assert out.classification is FunctionClass.STRICT_INTERIOR
    assert out.status is SolveStatus.CONVERGED
    assert out.x_min == 1.059254746934943


class SpyRecognizer(Recognizer):
    """A recognizer that keeps every point the driver shows it."""

    def __init__(self, interval, tol):
        super().__init__(interval, tol)
        self.seen = []

    def observe(self, point):
        self.seen.append(point)
        return super().observe(point)


@pytest.mark.parametrize("f, interval", [
    (lambda x: (x - 1.3) ** 2 + 2.0, Interval(0.0, 4.0)),
    (lambda x: abs(x - 0.3) ** 1.5, Interval(-2.0, 1.0)),
    (benchmark_function(12).evaluator, benchmark_function(12).interval),
])
def test_recognizer_sees_no_probe_after_the_hand_over(f, interval):
    spy = SpyRecognizer(interval, TOL)
    obj = CountingObjective(f)
    out = _drive(obj, TOL, _ratio_a(interval, TOL, 1e-3, spy.distinct, None), spy)
    assert out == minimize_ratio_a(CountingObjective(f), interval, TOL)
    # It saw phase 1 up to the point that completed a bracketing triple,
    # and none of phase 2's probes.
    seen = len(spy.seen)
    assert 0 < seen < out.evaluations
    assert spy.seen == obj.transcript[:seen]
    assert _scan_for_triple(spy.distinct) is not None
    assert _scan_for_triple(spy.distinct[:-1]) is None


@given(
    scale=st.floats(min_value=0.5, max_value=200.0),
    mag=st.floats(min_value=0.1, max_value=5.0),
    neg=st.booleans(),
    left=st.floats(min_value=0.5, max_value=5.0),
    right=st.floats(min_value=0.5, max_value=5.0),
)
def test_random_quadratics_always_converge_on_target(scale, mag, neg, left, right):
    v = -mag if neg else mag
    f = lambda x: scale * (x - v) ** 2 + 1.0
    obj = CountingObjective(f)
    out = minimize_ratio_a(obj, Interval(v - left, v + right), TOL)
    assert out.converged
    assert abs(out.x_min - v) <= 10.0 * e0(TOL, v)


_HUGE = st.floats(min_value=-1e308, max_value=1e308)
_OPEN_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                       exclude_max=True)


# Each draw mixes the whole valid range with a typical one, so that many
# runs reach the parabolic phase instead of stopping at once.
_ANY_CONFIGURATION = given(
    c=_OPEN_UNIT,
    ends=st.tuples(st.one_of(_HUGE, st.floats(-100.0, 100.0)),
                   st.one_of(_HUGE, st.floats(-100.0, 100.0)),
                   ).filter(lambda e: e[0] != e[1]),
    epsilon=st.one_of(_OPEN_UNIT, st.floats(1e-12, 1e-3)),
    floor=st.one_of(st.floats(min_value=0.0, max_value=1e308, exclude_min=True),
                    st.floats(1e-300, 1e-6)),
    budget=st.integers(min_value=1, max_value=2000),
    a=st.one_of(st.floats(min_value=0.0, max_value=1e308, exclude_min=True),
                st.floats(1e-3, 1e3)),
    where=st.floats(0.0, 1.0),
    power=st.floats(min_value=0.0, max_value=10.0, exclude_min=True),
)


def _check_any_configuration(solve, c, ends, epsilon, floor, budget, a,
                             where, power):
    """Run ``solve`` on one draw: it raises nothing but EvaluationError,
    returns a point of the interval after counting every evaluation within
    the budget, and nests each logged bracket inside the one before it.
    Returns the bracket log."""
    lo, hi = min(ends), max(ends)
    v = lo * (1.0 - where) + hi * where
    interval = Interval(lo, hi)
    tol = Tolerance(epsilon, floor, budget)
    log: list[tuple[float, float]] = []
    obj = CountingObjective(lambda x: a * abs(x - v) ** power)
    try:
        out = solve(obj, interval, tol, RatioConfig(c), log)
    except EvaluationError:
        out = None
    if out is not None:
        assert out.x_min in interval
        assert out.evaluations == obj.count <= budget
    for (lo0, hi0), (lo1, hi1) in zip(log, log[1:]):
        assert lo0 <= lo1 <= hi1 <= hi0
    return log


def _ratio_a_noting_the_hand_over(obj, interval, tol, c, log):
    """``minimize_ratio_a``'s run, and at the hand-over to phase 2 (if
    any) the length of ``log``, the evaluation count and the triple's
    ``(left, mid, right)`` points, else ``None``."""
    recognizer = Recognizer(interval, tol)
    hand_over = []

    def steps(inner):
        reply = None
        while True:
            try:
                x = inner.send(reply)
            except StopIteration as stop:
                return stop.value
            if x is _DETACH:
                hand_over.append((len(log), obj.count,
                                  _scan_for_triple(recognizer.distinct)))
            reply = yield x

    out = _drive(obj, tol, steps(_ratio_a(interval, tol, c, recognizer.distinct, log)),
                 recognizer)
    return out, (hand_over[0] if hand_over else None)


def _guard_bound(log_entry, floor):
    """The docstring's bound on phase 2's probes from the hand-over
    bracket ``log_entry``: (K + 3) per halving down to ``2*floor``."""
    lo, hi = log_entry
    halvings = max(0, math.ceil(math.log2(0.5 * hi - 0.5 * lo) - math.log2(floor)))
    return (_GUARD_PERIOD + 3) * halvings


@_ANY_CONFIGURATION
def test_ratio_a_any_configuration_keeps_the_triple_invariant(**draw):
    # Phase 2 no longer validates its triple on every step; this guards
    # the invariant instead.  On any valid input the run raises nothing
    # but EvaluationError, returns a point of the interval, and nests
    # every logged bracket inside the one before it.
    # ratio-a's brackets also never close to a point.
    marks = []

    def solve(obj, interval, tol, cfg, log):
        out, hand_over = _ratio_a_noting_the_hand_over(obj, interval, tol, cfg.c, log)
        assert out == minimize_ratio_a(CountingObjective(obj.target), interval, tol, cfg)
        marks.append(hand_over)
        return out

    log = _check_any_configuration(solve, **draw)
    for lo, hi in log:
        assert lo < hi
    # The contraction guard, read off phase 2's log (entry i follows the
    # i-th probe): from each check, the hand-over first, the next check is
    # the first entry at least K on whose half-width has halved, and it
    # comes within K + 3 entries unless the run ends first.  That holds
    # while the check's bracket is at least 8*e0 wide, so that no forced
    # probe needs the e0 clamp.  The run ends within the docstring's bound.
    phase_2 = log[marks[0][0]:] if marks and marks[0] else []
    halves = [0.5 * hi - 0.5 * lo for lo, hi in phase_2]
    tiny = draw["epsilon"] * max(abs(draw["ends"][0]), abs(draw["ends"][1])) + draw["floor"]
    check = 0
    while check + _GUARD_PERIOD + 3 < len(halves) and halves[check] >= 4.0 * tiny:
        due = [i for i in range(check + _GUARD_PERIOD, check + _GUARD_PERIOD + 4)
               if halves[i] <= 0.5 * halves[check]]
        assert due, (check, halves[check:check + _GUARD_PERIOD + 4])
        check = due[0]
    if phase_2:
        assert len(phase_2) - 1 <= _guard_bound(phase_2[0], draw["floor"])


_OTHER_SOLVERS = {
    "bisect": lambda obj, interval, tol, cfg, log: minimize_bisection(
        obj, interval, tol, bracket_log=log),
    "golden": lambda obj, interval, tol, cfg, log: minimize_golden(
        obj, interval, tol, bracket_log=log),
    "ratio-p": lambda obj, interval, tol, cfg, log: minimize_ratio_p(
        obj, interval, tol, cfg, bracket_log=log),
    "brent": lambda obj, interval, tol, cfg, log: brent_minimize(
        obj, interval, tol, bracket_log=log),
    "brent-m": lambda obj, interval, tol, cfg, log: brent_m_minimize(
        obj, interval, tol, cfg, bracket_log=log),
}


@pytest.mark.parametrize("solver", _OTHER_SOLVERS)
@_ANY_CONFIGURATION
def test_any_solver_any_configuration_stays_in_the_interval(solver, **draw):
    # The same draws and checks for the other five solvers.  A bracket
    # may close to a single point here: with a tolerance below one ulp,
    # golden section cuts until both ends meet at the minimizer.
    _check_any_configuration(_OTHER_SOLVERS[solver], **draw)


def test_ratio_a_mirrored_plateau_ends_inside_it():
    # Suite id 10, 12 + 1000*|x - 2|^8.4, mirrored to [-4, -1]: a steep
    # wall beside a flat bottom.  Without the contraction guard phase 2
    # crept along the wall by 0.1 % steps and stopped at x = -1.98776 after
    # 727 evaluations, outside the stored plateau (half-width 0.0071).
    bf = benchmark_function(10)
    out = minimize_ratio_a(CountingObjective(lambda x: bf.evaluator(-x)),
                           Interval(-bf.interval.hi, -bf.interval.lo), TOL)
    assert out.evaluations < 50
    assert abs(out.x_min + 2.0) <= 0.0071


def test_ratio_a_random_plateau_intervals_stay_under_the_guard_bound():
    # The same target on 300 random intervals [U(0, 1.9), U(2.1, 5)] and
    # their mirror images (600 runs).  Without the guard the worst run
    # spent the whole budget of 1000 evaluations and 71 runs spent 100 or
    # more; now every run's phase 2 keeps the docstring's bound, and the
    # worst run spends 52 evaluations in all.
    bf = benchmark_function(10)
    rng = random.Random(3)
    worst = 0
    for _ in range(300):
        lo, hi = rng.uniform(0.0, 1.9), rng.uniform(2.1, 5.0)
        for f, interval in ((bf.evaluator, Interval(lo, hi)),
                            (lambda x: bf.evaluator(-x), Interval(-hi, -lo))):
            log = []
            out, (entry, evaluations, _) = _ratio_a_noting_the_hand_over(
                CountingObjective(f), interval, TOL, 1e-3, log)
            assert out.converged
            assert out.evaluations - evaluations <= _guard_bound(log[entry], TOL.floor)
            worst = max(worst, out.evaluations)
    assert worst == 52


def test_ratio_a_phase_2_vertex_is_parabola_vertex_bit_for_bit():
    # Phase 2 writes parabola_vertex's formula out term for term.  On
    # random a*|x - v|^p + 1, whenever the vertex of the hand-over triple
    # is admissible (strictly inside the bracket, at least e0 from mid),
    # the first phase-2 probe is that vertex, to the last bit.
    rng = random.Random(4)
    compared = 0
    for _ in range(3000):
        a, p, v = 10.0 ** rng.uniform(-2, 2), rng.uniform(1.0, 6.0), rng.uniform(-10.0, 10.0)
        interval = Interval(v - 10.0 ** rng.uniform(-2, 1), v + 10.0 ** rng.uniform(-2, 1))
        obj = CountingObjective(lambda x: a * abs(x - v) ** p + 1.0)
        _, hand_over = _ratio_a_noting_the_hand_over(obj, interval, TOL, 1e-3, [])
        if hand_over is None:
            continue
        _, evaluations, (left, mid, right) = hand_over
        r = parabola_vertex(BracketTriple(left, mid, right))
        if left.x < r < right.x and abs(r - mid.x) >= e0(TOL, mid.x):
            assert obj.transcript[evaluations].x.hex() == r.hex()
            compared += 1
    assert compared == 2829


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "phase 2 reads two adjacent bracket points with equal ordinates as a "
    "flat bottom, but two points mirrored about the vertex of a symmetric "
    "target tie as well; the run stops at x=-3.132281 after 10 evaluations, "
    "1.33e-3 from v"))
def test_ratio_a_mirrored_points_are_not_a_plateau():
    # x=-3.132281 and x=-3.129625 straddle v and evaluate to the same float.
    v = -3.1309531620863895
    f = parse_expression(
        "0.06804616180166694*abs(x - -3.1309531620863895)^4.225646312597501"
        " + 0.7162131583056928")
    out = minimize_ratio_a(
        CountingObjective(f),
        Interval(-3.6157112783660295, -1.9377811921288894),
        Tolerance(max_evaluations=50_000), RatioConfig(1e-3))
    assert abs(out.x_min - v) <= 1.1271467383511002e-3
