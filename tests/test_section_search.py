"""Unit and property tests for the segment-elimination solvers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratiosect.benchsuite import benchmark_function, load_reference_minimizer
from ratiosect.core import (
    CountingObjective,
    FunctionClass,
    Interval,
    SolveStatus,
    Tolerance,
    e0,
)
from ratiosect.section_search import (
    GOLDEN_RATIO,
    RatioConfig,
    minimize_bisection,
    minimize_golden,
    minimize_ratio_p,
)

TOL = Tolerance()

# Published per-problem counts were produced under 19-20 significant digit
# arithmetic and a per-method stopping rule; under double precision and
# the shared stop test a handful of problems legitimately diverge:
#  - 5, 10, 14: plateau resolution at double precision differs (5's
#    plateau touches the left endpoint; 10 and 14 develop bit-identical
#    pseudo-plateaus wider than the tolerance),
#  - 17, 18, 20: monotone on their benchmark intervals, so the
#    recognizers finish in 6 evaluations where the reference ran a full
#    elimination (and the elimination methods stop earlier under the
#    unified test).
CELL_BAND_EXCLUSIONS = {5, 10, 14, 17, 18, 20}

def test_ratio_config_validation():
    RatioConfig(0.5)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            RatioConfig(bad)


# ----------------------------------------------------------------- bisection

def test_bisection_quadratic():
    obj = CountingObjective(lambda x: (x - 0.3) ** 2)
    out = minimize_bisection(obj, Interval(0.0, 1.0), TOL)
    assert out.converged
    assert abs(out.x_min - 0.3) <= 10.0 * e0(TOL, 0.3)
    assert out.classification is FunctionClass.STRICT_INTERIOR


def test_bisection_spends_pairs():
    obj = CountingObjective(lambda x: (x - 0.3) ** 2)
    out = minimize_bisection(obj, Interval(0.0, 1.0), TOL)
    assert out.evaluations % 2 == 0


def test_bisection_probe_separation():
    # Each probe pair straddles the midpoint at e0(mid)/2 on either side.
    obj = CountingObjective(lambda x: (x - 0.3) ** 2)
    minimize_bisection(obj, Interval(0.0, 1.0), TOL)
    xs = [p.x for p in obj.transcript]
    for lo, hi in zip(xs[0::2], xs[1::2]):
        mid = 0.5 * (lo + hi)
        assert hi - lo == pytest.approx(e0(TOL, mid), rel=1e-6)


def test_bisection_budget_exhaustion():
    tol = Tolerance(max_evaluations=6)
    obj = CountingObjective(lambda x: (x - 0.3) ** 2)
    out = minimize_bisection(obj, Interval(0.0, 1.0), tol)
    assert out.status is SolveStatus.BUDGET_EXHAUSTED
    assert out.evaluations <= 6


def test_bisection_tiny_input_interval_still_evaluates():
    obj = CountingObjective(lambda x: (x - 0.3) ** 2)
    lo = 0.3 - 1e-12
    out = minimize_bisection(obj, Interval(lo, 0.3 + 1e-12), TOL)
    assert out.evaluations == 1
    assert out.converged


def test_bisection_tie_above_a_lower_point_keeps_its_half():
    # A staircase: level 1 on the step holding x = 0.5, higher levels
    # further left.  The first pair ties at level 1 with both ends still
    # unevaluated, so the left half is kept.  The next pair, at 0.25, ties
    # at level 2, above the known level 1: the half toward the level-1
    # point must be kept, or the run would walk down to x = 0.
    f = lambda x: math.ceil(max(abs(x - 0.7) - 0.02, 0.0) / 0.25)
    log: list[tuple[float, float]] = []
    out = minimize_bisection(CountingObjective(f), Interval(0.0, 1.0), TOL,
                             bracket_log=log)
    assert log[1][0] == 0.0 and log[1][1] > 0.5
    assert log[2][0] > 0.2
    assert out.f_min == 1.0
    assert f(log[-1][0]) == f(log[-1][1]) == 1.0


def test_bisection_tie_at_the_lowest_level_keeps_the_lower_end():
    # On f14 = 1.2 - cos(x^2) the wall near x = -2.9e-4 is a staircase,
    # and a probe pair there ties at the lowest level seen.  The tie must
    # keep the half whose bracket end is lower, which holds the plateau.
    bf = benchmark_function(14)
    ref = load_reference_minimizer(14)
    out = minimize_bisection(CountingObjective(bf.evaluator), bf.interval, TOL)
    assert ref.plateau.lo <= out.x_min <= ref.plateau.hi
    assert out.f_min == ref.f


# ------------------------------------------------------------- golden section

def test_golden_quadratic():
    obj = CountingObjective(lambda x: (x - 0.3) ** 2)
    out = minimize_golden(obj, Interval(0.0, 1.0), TOL)
    assert out.converged
    assert abs(out.x_min - 0.3) <= 10.0 * e0(TOL, 0.3)


def test_golden_first_two_probes():
    obj = CountingObjective(lambda x: (x - 0.3) ** 2)
    minimize_golden(obj, Interval(0.0, 1.0), TOL)
    assert obj.transcript[0].x == 1.0 - GOLDEN_RATIO
    assert obj.transcript[1].x == GOLDEN_RATIO


def test_golden_contraction_factor():
    log: list[tuple[float, float]] = []
    obj = CountingObjective(lambda x: (x - 0.3) ** 2)
    minimize_golden(obj, Interval(0.0, 1.0), TOL, bracket_log=log)
    widths = [b - a for a, b in log]
    # Skip the last few shrinks where e0-scale arithmetic dominates.
    for prev, cur in list(zip(widths, widths[1:]))[:20]:
        assert cur / prev == pytest.approx(GOLDEN_RATIO, abs=1e-9)


def test_golden_one_evaluation_per_iteration():
    log: list[tuple[float, float]] = []
    obj = CountingObjective(lambda x: (x - 0.3) ** 2)
    out = minimize_golden(obj, Interval(0.0, 1.0), TOL, bracket_log=log)
    # Initial pair, then one evaluation per logged contraction.
    assert out.evaluations == 2 + (len(log) - 1)


# ------------------------------------------------------------- ratio section

def test_ratio_p_starts_at_midpoint_then_ties_right():
    obj = CountingObjective(lambda x: (x - 0.3) ** 2)
    minimize_ratio_p(obj, Interval(0.0, 1.0), TOL, RatioConfig(0.2))
    assert obj.transcript[0].x == 0.5
    # Both sides equal after the first evaluation; the tie goes right.
    assert obj.transcript[1].x == 0.2 * 1.0 + 0.8 * 0.5


def test_ratio_p_quadratic_various_c():
    for c in (0.1, 0.2, 0.5, 0.7):
        obj = CountingObjective(lambda x: (x - 0.3) ** 2)
        out = minimize_ratio_p(obj, Interval(0.0, 1.0), TOL, RatioConfig(c))
        assert out.converged, c
        assert abs(out.x_min - 0.3) <= 10.0 * e0(TOL, 0.3), c


def test_ratio_p_constant_three_evaluations():
    obj = CountingObjective(lambda x: 7.25)
    out = minimize_ratio_p(obj, Interval(-2.0, 4.0), TOL, RatioConfig(0.2))
    assert out.evaluations == 3
    assert out.classification is FunctionClass.FLAT_BOTTOM
    assert out.f_min == 7.25


def test_ratio_p_monotone_six_evaluations_exact_endpoint():
    obj = CountingObjective(lambda x: 3.0 * x + 1.0)
    out = minimize_ratio_p(obj, Interval(-1.0, 2.0), TOL, RatioConfig(0.2))
    assert out.evaluations == 6
    assert out.classification is FunctionClass.MONOTONE_INCREASING
    assert out.x_min == -1.0
    assert out.f_min == -2.0

    obj = CountingObjective(lambda x: -0.5 * x)
    out = minimize_ratio_p(obj, Interval(-1.0, 2.0), TOL, RatioConfig(0.2))
    assert out.evaluations == 6
    assert out.classification is FunctionClass.MONOTONE_DECREASING
    assert out.x_min == 2.0


def test_ratio_p_budget_exhaustion_status():
    tol = Tolerance(max_evaluations=40)
    # c near 1 probes right next to the far endpoint: glacial contraction.
    obj = CountingObjective(lambda x: (x - 0.5) ** 2)
    out = minimize_ratio_p(obj, Interval(0.0, 1.0), tol, RatioConfig(0.999))
    assert out.status is SolveStatus.BUDGET_EXHAUSTED
    assert out.evaluations <= 40


def test_ratio_p_probe_rounding_onto_incumbent_does_not_raise():
    # At c=1e-17 the probe c*end + (1-c)*m.x rounds back onto m.x, so the
    # run revisits an abscissa; the monotone recognizer must see each
    # abscissa once instead of raising on the duplicate.
    tol = Tolerance()
    obj = CountingObjective(lambda x: (x - 0.3) ** 2)
    out = minimize_ratio_p(obj, Interval(0.0, 1.0), tol, RatioConfig(1e-17))
    assert 0.0 <= out.x_min <= 1.0
    if out.status is SolveStatus.BUDGET_EXHAUSTED:
        assert not out.converged
        assert out.evaluations == tol.max_evaluations
    assert out.evaluations == obj.count


def test_golden_on_interval_whose_width_overflows():
    # b - a is inf here; the initial interior pair must still be finite.
    # Contracting 2e308 down to e0 takes about 1,500 golden cuts, more than
    # the budget, so the honest status is budget_exhausted.
    tol = Tolerance()
    obj = CountingObjective(lambda x: abs(x - 0.3))
    out = minimize_golden(obj, Interval(-1e308, 1e308), tol)
    first, second = obj.transcript[:2]
    assert -1e308 < first.x < second.x < 1e308
    assert -1e308 <= out.x_min <= 1e308
    assert out.status is SolveStatus.BUDGET_EXHAUSTED
    assert out.evaluations == obj.count == tol.max_evaluations


def test_golden_loop_on_bracket_whose_width_overflows_after_a_cut():
    # 3.4e308 overflows b - a, and so does the width left after the first
    # cut (about 2.1e308): the loop's probes must stay finite too.  The
    # minimum itself is lost on such wide brackets (the carried-over
    # interior point drifts), so only containment and the status are
    # checked here.
    tol = Tolerance()
    iv = Interval(-1.7e308, 1.7e308)
    obj = CountingObjective(lambda x: abs(x - 0.3))
    log: list[tuple[float, float]] = []
    out = minimize_golden(obj, iv, tol, bracket_log=log)
    assert not math.isfinite(log[1][1] - log[1][0])
    assert all(lo <= p.x <= hi for p in obj.transcript for lo, hi in [log[0]])
    assert out.x_min in iv
    assert out.status is SolveStatus.BUDGET_EXHAUSTED
    assert out.evaluations == obj.count == tol.max_evaluations


def test_ratio_p_half_probes_longer_segment_midpoint():
    # At c = 0.5 every probe must land exactly on the midpoint of the
    # longer sub-segment around the incumbent.  Replay the elimination
    # rule alongside the transcript and check each landing site.  (The
    # vertex sits at the interval midpoint so the one-shot monotone check
    # rejects for free and spends no probes of its own.)
    obj = CountingObjective(lambda x: (x - 0.5) ** 2)
    minimize_ratio_p(obj, Interval(0.0, 1.0), TOL, RatioConfig(0.5))
    a, b = 0.0, 1.0
    m = obj.transcript[0]
    for p in obj.transcript[1:]:
        if b - m.x >= m.x - a:
            assert p.x == 0.5 * (b + m.x)
        else:
            assert p.x == 0.5 * (a + m.x)
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


@pytest.mark.parametrize("c", [0.2, 0.5, 0.7])
def test_ratio_p_cost_monotone_in_tolerance(c):
    # Tightening epsilon can only ever add iterations.
    targets = [
        (lambda x: 0.2 + (x - 1.5) ** 2, Interval(0.3, 3.2)),
        (lambda x: 3.0 * (x + 0.7) ** 2 - 1.0, Interval(-2.0, 4.0)),
    ]
    for fn, iv in targets:
        counts = []
        for k in range(2, 11):
            obj = CountingObjective(fn)
            out = minimize_ratio_p(obj, iv, Tolerance(epsilon=10.0**-k), RatioConfig(c))
            assert out.status is SolveStatus.CONVERGED
            counts.append(out.evaluations)
        assert counts == sorted(counts)


@pytest.mark.parametrize("fid", [10, 14])
def test_ratio_p_lands_on_the_plateau_across_the_sweep_grid(fid):
    # Near the bottoms of f10 and f14 the computed walls are staircases
    # whose steps pass for plateaus.  A tie between the probe and the
    # incumbent must not cut away the longer side (most of it at small c),
    # or the run ends on a wall step outside the frozen plateau.
    bf = benchmark_function(fid)
    ref = load_reference_minimizer(fid)
    bound = 10.0 * e0(TOL, ref.x)
    for i in range(80):
        c = 0.01 + i * 0.01
        obj = CountingObjective(bf.evaluator)
        out = minimize_ratio_p(obj, bf.interval, TOL, RatioConfig(c))
        err = max(0.0, ref.plateau.lo - out.x_min, out.x_min - ref.plateau.hi)
        assert err <= bound, f"c={c}: x_min={out.x_min!r} is {err:.2e} off"


@pytest.mark.parametrize("key,solver,cfg", [
    ("bisect", minimize_bisection, None),
    ("golden", minimize_golden, None),
    ("ratio_p_c05", minimize_ratio_p, RatioConfig(0.5)),
    ("ratio_p_c02", minimize_ratio_p, RatioConfig(0.2)),
])
def test_cost_tracks_published_reference_cells(key, solver, cfg):
    for fid in range(1, 21):
        if fid in CELL_BAND_EXCLUSIONS:
            continue
        bf = benchmark_function(fid)
        obj = CountingObjective(bf.evaluator)
        if cfg is None:
            out = solver(obj, bf.interval, TOL)
        else:
            out = solver(obj, bf.interval, TOL, cfg)
        ref = bf.reference_counts[key]
        assert abs(out.evaluations - ref) <= max(2, 0.2 * ref), (
            f"id {fid}: measured {out.evaluations}, reference {ref}"
        )


# ------------------------------------------------------------- shared shape

quadratics = st.tuples(
    st.floats(min_value=1.0, max_value=100.0),      # curvature
    st.floats(min_value=0.1, max_value=5.0),        # |vertex|
    st.booleans(),                                  # vertex sign
    st.floats(min_value=0.5, max_value=5.0),        # left arm
    st.floats(min_value=0.5, max_value=5.0),        # right arm
)


@given(quadratics)
def test_brackets_always_contain_the_minimizer(params):
    scale, mag, neg, left, right = params
    v = -mag if neg else mag
    f = lambda x: scale * (x - v) ** 2 + 1.0
    slack = 10.0 * e0(TOL, v)
    for solver, cfg in [
        (minimize_bisection, None),
        (minimize_golden, None),
        (minimize_ratio_p, RatioConfig(0.2)),
        (minimize_ratio_p, RatioConfig(0.5)),
    ]:
        log: list[tuple[float, float]] = []
        obj = CountingObjective(f)
        args = (obj, Interval(v - left, v + right), TOL)
        out = (solver(*args, bracket_log=log) if cfg is None
               else solver(*args, cfg, bracket_log=log))
        assert out.converged
        assert all(a - slack <= v <= b + slack for a, b in log)
        assert abs(out.x_min - v) <= slack


@given(quadratics)
def test_bracket_widths_shrink(params):
    scale, mag, neg, left, right = params
    v = -mag if neg else mag
    f = lambda x: scale * (x - v) ** 2 + 1.0
    log: list[tuple[float, float]] = []
    obj = CountingObjective(f)
    minimize_ratio_p(obj, Interval(v - left, v + right), TOL,
                     RatioConfig(0.3), bracket_log=log)
    widths = [b - a for a, b in log]
    assert all(w2 <= w1 for w1, w2 in zip(widths, widths[1:]))
    assert all(w2 < w1 for w1, w2 in zip(widths, widths[2:]))
