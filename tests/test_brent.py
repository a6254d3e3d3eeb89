import math
import sys

import pytest

from ratiosect.benchsuite import (
    benchmark_function,
    benchmark_suite,
    load_reference_minimizer,
)
from ratiosect.brent import GOLDEN_STEP, brent_m_minimize, brent_minimize
from ratiosect.core import (
    CountingObjective,
    FunctionClass,
    Interval,
    SolveStatus,
    Tolerance,
    e0,
)
from ratiosect.section_search import RatioConfig

TOL = Tolerance()


def test_golden_step_constant():
    assert GOLDEN_STEP == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=0.0)
    assert 0.38 < GOLDEN_STEP < 0.382


def test_first_probe_position():
    obj = CountingObjective(lambda x: (x - 0.3) ** 2)
    brent_minimize(obj, Interval(0.0, 1.0), TOL)
    assert obj.transcript[0].x == GOLDEN_STEP


@pytest.mark.parametrize("solve", [brent_minimize, brent_m_minimize])
def test_start_on_interval_wider_than_max_float(solve):
    # b - a overflows here; the first abscissa takes the golden step from
    # the half-width twice instead of raising on a non-finite abscissa.
    interval = Interval(-1e308, 1e308)
    obj = CountingObjective(lambda x: abs(x - 0.3))
    out = solve(obj, interval, TOL)
    assert out.x_min in interval
    assert out.evaluations == obj.count
    # Honest status: converged on 0.3, or the whole budget spent.
    if out.converged:
        assert abs(out.x_min - 0.3) <= 2.0 * e0(TOL, 0.3)
    else:
        assert out.evaluations == TOL.max_evaluations


@pytest.mark.parametrize("solve", [brent_minimize, brent_m_minimize])
@pytest.mark.parametrize("half_width, first", [
    (1e308, "-0x1.0cf004643ba70p+1021"),
    (sys.float_info.max, "-0x1.e3779b97f4a82p+1021"),
])
def test_first_probe_on_overflowing_width_is_pinned_bit_for_bit(solve, half_width, first):
    obj = CountingObjective(lambda x: abs(x - 0.3))
    solve(obj, Interval(-half_width, half_width), Tolerance(max_evaluations=1))
    assert [p.x.hex() for p in obj.transcript] == [first]


@pytest.mark.parametrize("solve, c", [
    (brent_minimize, None),
    (brent_m_minimize, None),
    (brent_m_minimize, 0.9),
    (brent_m_minimize, 0.999),
], ids=["brent_minimize", "brent_m_minimize", "brent_m_minimize-c0.9",
        "brent_m_minimize-c0.999"])
@pytest.mark.parametrize("half_width", [1.46e308, 1.5e308, 1.7e308, sys.float_info.max])
def test_fallback_step_on_interval_wider_than_max_float(solve, c, half_width):
    # From the first abscissa, near -0.236*L, the distance b - x to the far
    # bound overflows; the fallback step is then taken from the half-width
    # instead of probing at x + inf.  Above about c = 0.5 the step c*e
    # itself overflows although the probe x + c*e does not.
    interval = Interval(-half_width, half_width)
    obj = CountingObjective(lambda x: abs(x - 0.3))
    out = solve(obj, interval, TOL) if c is None else solve(
        obj, interval, TOL, RatioConfig(c))
    assert out.x_min in interval
    assert all(p.x in interval for p in obj.transcript)
    assert out.evaluations == obj.count


def test_ratio_step_that_underflows_keeps_its_side():
    # c*e underflows to +0.0 on the second step.  The tol1 rule used to
    # read that as a step to the left: the probe landed at 0.36, left of
    # the bracket [0.38, 1], and widened it again.
    log: list[tuple[float, float]] = []
    obj = CountingObjective(lambda x: abs(x - 1.0))
    brent_m_minimize(obj, Interval(0.0, 1.0), Tolerance(0.125, 0.125, 3),
                     RatioConfig(5e-324), bracket_log=log)
    assert obj.transcript[2].x > obj.transcript[1].x
    for (lo0, hi0), (lo1, hi1) in zip(log, log[1:]):
        assert lo0 <= lo1 < hi1 <= hi0


def test_brent_quadratic():
    obj = CountingObjective(lambda x: 3.0 * (x - 0.3) ** 2 + 0.5)
    out = brent_minimize(obj, Interval(0.0, 1.0), TOL)
    assert out.converged
    assert abs(out.x_min - 0.3) <= 10.0 * e0(TOL, 0.3)
    assert out.classification is FunctionClass.STRICT_INTERIOR
    assert out.evaluations <= 15


def test_brent_never_classifies():
    obj = CountingObjective(lambda x: 7.0)
    out = brent_minimize(obj, Interval(0.0, 1.0), TOL)
    assert out.classification is FunctionClass.STRICT_INTERIOR


def test_brent_second_probe_is_a_golden_step():
    # No step is remembered yet, so the second probe is the golden
    # fallback d = g*e into the larger sub-interval [x, 1].
    obj = CountingObjective(lambda x: abs(x - 0.3))
    brent_minimize(obj, Interval(0.0, 1.0), TOL)
    x = obj.transcript[0].x
    assert obj.transcript[1].x == x + GOLDEN_STEP * (1.0 - x)


def test_brent_m_second_probe_is_a_ratio_step():
    # The same fallback in brent-m is the ratio step d = c*e.
    obj = CountingObjective(lambda x: abs(x - 0.3))
    brent_m_minimize(obj, Interval(0.0, 1.0), TOL, use_recognizers=False)
    x = obj.transcript[0].x
    assert obj.transcript[1].x == x + 0.2 * (1.0 - x)


def test_budget_exhaustion():
    tol = Tolerance(max_evaluations=3)
    obj = CountingObjective(lambda x: (x - 0.3) ** 2)
    out = brent_minimize(obj, Interval(0.0, 1.0), tol)
    assert out.status is SolveStatus.BUDGET_EXHAUSTED


def test_brent_m_constant_three_evaluations():
    obj = CountingObjective(lambda x: 2.5)
    out = brent_m_minimize(obj, Interval(-1.0, 5.0), TOL)
    assert out.evaluations == 3
    assert out.classification is FunctionClass.FLAT_BOTTOM


def test_brent_m_monotone_six_evaluations_exact_endpoint():
    obj = CountingObjective(lambda x: x)
    out = brent_m_minimize(obj, Interval(-3.0, 4.0), TOL)
    assert out.evaluations == 6
    assert out.classification is FunctionClass.MONOTONE_INCREASING
    assert out.x_min == -3.0

    obj = CountingObjective(lambda x: -x)
    out = brent_m_minimize(obj, Interval(-3.0, 4.0), TOL)
    assert out.evaluations == 6
    assert out.classification is FunctionClass.MONOTONE_DECREASING
    assert out.x_min == 4.0


def test_brent_m_plateau_rule_skips_a_wall_step():
    # Near the bottom of f10 = 12 + 1000*|x - 2|^8.4 the wall is a
    # staircase.  Three probes share the ordinate of a step about 5e-4
    # wide, two of them only e0 apart: they are two points to the stop
    # test and must not pass for the plateau.
    bf = benchmark_function(10)
    ref = load_reference_minimizer(10)
    out = brent_m_minimize(CountingObjective(bf.evaluator), bf.interval, TOL)
    assert out.classification is FunctionClass.FLAT_BOTTOM
    assert ref.plateau.lo <= out.x_min <= ref.plateau.hi
    assert out.f_min == ref.f


def test_classical_brent_stops_short_of_monotone_endpoint():
    # On a monotone target the classical method cannot step onto the
    # boundary (the probe floor keeps it e0 away), so it converges near
    # the endpoint but not exactly on it.
    f = lambda x: x
    obj = CountingObjective(f)
    out = brent_minimize(obj, Interval(-3.0, 4.0), TOL)
    assert out.converged
    assert out.x_min != -3.0
    assert abs(out.x_min - (-3.0)) <= 3.0 * e0(TOL, -3.0)


def test_brent_m_default_ratio():
    bf = benchmark_function(15)
    default = CountingObjective(bf.evaluator)
    explicit = CountingObjective(bf.evaluator)
    brent_m_minimize(default, bf.interval, TOL)
    brent_m_minimize(explicit, bf.interval, TOL, RatioConfig(0.2))
    assert [p.x for p in default.transcript] == [p.x for p in explicit.transcript]


def test_degeneration_reproduces_classical_transcripts():
    # With the fallback ratio set to the golden step and the recognizers
    # off, the modernized loop must walk the classical trajectory bit for
    # bit on every suite problem.
    for bf in benchmark_suite():
        classical = CountingObjective(bf.evaluator)
        modern = CountingObjective(bf.evaluator)
        out_c = brent_minimize(classical, bf.interval, TOL)
        out_m = brent_m_minimize(
            modern, bf.interval, TOL, RatioConfig(GOLDEN_STEP),
            use_recognizers=False,
        )
        assert classical.transcript == modern.transcript, bf.fid
        assert out_c.x_min == out_m.x_min, bf.fid
        assert out_c.evaluations == out_m.evaluations, bf.fid


def test_brent_m_cheaper_than_brent_on_suite():
    totals = {"classical": 0, "modern": 0}
    for bf in benchmark_suite():
        obj = CountingObjective(bf.evaluator)
        totals["classical"] += brent_minimize(obj, bf.interval, TOL).evaluations
        obj = CountingObjective(bf.evaluator)
        totals["modern"] += brent_m_minimize(obj, bf.interval, TOL).evaluations
    assert totals["modern"] < totals["classical"]


def _assert_brent_probes_as_scipy(f, interval, xatol):
    """External oracle: scipy's bounded minimizer is the Brent (1973) /
    Forsythe-Malcolm-Moler fmin.  Its tolerance is sqrt(eps)*|x| + xatol/3,
    which is e0 with these settings, so both must probe the same abscissas
    bit for bit and in the same order.  Returns Brent's transcript."""
    optimize = pytest.importorskip("scipy.optimize")
    obj = CountingObjective(f)
    brent_minimize(obj, interval,
                   Tolerance(epsilon=math.sqrt(2.2e-16), floor=xatol / 3))
    probes = []

    def recorded(x):
        probes.append(float(x))
        return f(float(x))

    optimize.minimize_scalar(recorded, bounds=(interval.lo, interval.hi),
                             method="bounded", options={"xatol": xatol})
    assert [p.x.hex() for p in obj.transcript] == [x.hex() for x in probes]
    return obj.transcript


@pytest.mark.parametrize("xatol", [1e-5, 1e-8])
@pytest.mark.parametrize("fid", range(1, 21))
def test_brent_transcript_matches_scipy_fminbound(fid, xatol):
    bf = benchmark_function(fid)
    _assert_brent_probes_as_scipy(bf.evaluator, bf.interval, xatol)


def test_brent_zero_step_goes_right_as_scipy_does():
    # On (x - 0.5)^2 over [0, 1] the fourth probe's parabola has its vertex
    # on x, so the parabolic step d is exactly zero.  scipy's bounded
    # minimizer then steps tol1 to the right (si = sign(rat) + (rat == 0)),
    # and so does Brent here: the fifth probe is 0.50000334, not 0.49999666.
    transcript = _assert_brent_probes_as_scipy(
        lambda x: (x - 0.5) ** 2, Interval(0.0, 1.0), 1e-5)
    assert transcript[3].x == 0.5
    assert round(transcript[4].x, 8) == 0.50000334
