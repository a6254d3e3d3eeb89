import math
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ratiosect.classify import (
    Recognizer,
    detect_flat_bottom,
    detect_monotone,
    separated_count,
)
from ratiosect.core import (
    CountingObjective,
    FunctionClass,
    Interval,
    Point2,
    Tolerance,
    _drive,
    e0,
)

TOL = Tolerance()


def pts(*pairs):
    return [Point2(x, y) for x, y in pairs]


# ---------------------------------------------------------------- flat bottom

def test_flat_bottom_three_equal_ordinates():
    hit = detect_flat_bottom(pts((0.0, 5.0), (1.0, 5.0), (2.0, 5.0)))
    assert hit == Point2(0.0, 5.0)


def test_flat_bottom_returns_earliest_point():
    w = pts((3.0, 1.0), (0.0, 2.0), (1.0, 1.0), (2.0, 1.0))
    assert detect_flat_bottom(w) == Point2(3.0, 1.0)


def test_flat_bottom_needs_three_distinct_abscissas():
    # Two distinct abscissas, one revisited: not a plateau.
    w = pts((0.0, 5.0), (1.0, 5.0), (0.0, 5.0))
    assert detect_flat_bottom(w) is None


def test_flat_bottom_none_on_distinct_ordinates():
    assert detect_flat_bottom(pts((0.0, 1.0), (1.0, 2.0), (2.0, 3.0))) is None


def test_flat_bottom_exact_equality_only():
    # Ordinates a single ulp apart must not count as a plateau.
    y = 5.0
    w = pts((0.0, y), (1.0, math.nextafter(y, 6.0)), (2.0, y))
    assert detect_flat_bottom(w) is None


def test_flat_bottom_ignores_other_ordinate_groups():
    w = pts((0.0, 9.0), (5.0, 2.0), (1.0, 9.0), (6.0, 2.0), (2.0, 9.0))
    hit = detect_flat_bottom(w)
    assert hit is not None and hit.y == 9.0


def test_flat_bottom_costs_nothing():
    obj = CountingObjective(lambda x: 0.0)
    detect_flat_bottom(pts((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)))
    assert obj.count == 0


@given(st.lists(
    st.tuples(st.floats(min_value=-100, max_value=100),
              st.floats(min_value=-100, max_value=100)),
    max_size=12,
))
def test_flat_bottom_fires_iff_triple_exists(pairs):
    w = pts(*pairs)
    groups = {}
    for p in w:
        groups.setdefault(p.y, set()).add(p.x)
    should_fire = any(len(xs) >= 3 for xs in groups.values())
    assert (detect_flat_bottom(w) is not None) == should_fire


def test_separated_count_merges_abscissas_within_two_e0():
    step = 2.0 * e0(TOL, 1.0)
    assert separated_count([0.0, 1.0, 2.0], TOL) == 3
    assert separated_count([1.0, 1.0 + 0.5 * step, 2.0], TOL) == 2
    # Exactly 2*e0 apart is still one point to the stop test: with this
    # tolerance 2*e0(0.5) = 0.5, in exact binary arithmetic.
    coarse = Tolerance(epsilon=0.25, floor=0.125)
    assert separated_count([0.0, 0.5, 3.0], coarse) == 2
    # Counted in sorted order, whatever the evaluation order.
    assert separated_count([2.0, 1.0 + 0.5 * step, 1.0, 0.0], TOL) == 3
    assert separated_count([], TOL) == 0


# ---------------------------------------------------------------- recognizer

# floor=0.3 makes 2*e0 a bit over 0.6: abscissas 0.5 apart merge under the
# spaced rule, 1.0 apart not.
FLAT_ONLY = Tolerance(epsilon=1e-9, floor=0.3)


def drop_repeated_abscissas(w):
    seen = set()
    out = []
    for p in w:
        if p.x not in seen:
            seen.add(p.x)
            out.append(p)
    return out


def spaced_reference(w, tol):
    """The modernized Brent rule, fed one point at a time: the first point
    that gives its level three abscissas more than 2*e0 apart decides."""
    levels = {}
    for p in drop_repeated_abscissas(w):
        level = levels.setdefault(p.y, [])
        level.append(p)
        if len(level) >= 3 and separated_count([q.x for q in level], tol) >= 3:
            return level[0]
    return None


def feed(recognizer, fed, batch):
    """Record and observe each point, as the driver does after each
    evaluation; the first verdict ends the feed.  A monotone probe asked
    for is not taken, as with no budget room for it, so these tests see
    the flat-bottom rule alone."""
    for p in batch:
        fed.append(p)
        out = recognizer.observe(p)
        if out.__class__ is tuple:
            return out[1]
    return None


batched_runs = st.lists(
    st.lists(
        st.builds(Point2,
                  st.sampled_from([0.5 * k for k in range(12)]),
                  st.sampled_from([1.0, 2.0])),
        min_size=1, max_size=2,
    ),
    max_size=24,
)


@settings(max_examples=400)
@given(batched_runs)
def test_recognizer_matches_full_scan(batches):
    fed = []
    recognizer = Recognizer(Interval(0.0, 6.0), FLAT_ONLY)
    for batch in batches:
        hit = feed(recognizer, fed, batch)
        assert hit == detect_flat_bottom(drop_repeated_abscissas(fed))
        if hit is not None:
            break


@settings(max_examples=400)
@given(batched_runs)
def test_spaced_recognizer_matches_brent_m_rule(batches):
    fed = []
    recognizer = Recognizer(Interval(0.0, 6.0), FLAT_ONLY, spaced=True)
    for batch in batches:
        hit = feed(recognizer, fed, batch)
        assert hit == spaced_reference(fed, FLAT_ONLY)
        if hit is not None:
            break


def test_recognizer_first_completed_level_decides():
    # x=4.0 completes level 1.0 (first point at rank 1) before x=5.0
    # would complete level 2.0 (first point at rank 0).
    w = pts((0.0, 2.0), (1.0, 1.0), (2.0, 1.0), (3.0, 2.0), (4.0, 1.0), (5.0, 2.0))
    for spaced in (False, True):
        fed = []
        recognizer = Recognizer(Interval(0.0, 5.0), FLAT_ONLY, spaced=spaced)
        assert feed(recognizer, fed, w) == Point2(1.0, 1.0)
        assert len(fed) == 5


def yielding(xs):
    """A solver's steps that ask for ``xs`` in turn, with no bracket, then
    return the last point as an interior minimum."""
    for x in xs:
        point = yield x, None, None, None
    return point.x, point.y, FunctionClass.STRICT_INTERIOR


def test_monotone_probes_complete_at_most_one_level():
    # The fed points look non-decreasing.  The endpoint probe u = f(0)
    # matches their lowest level and completes it; the inner probe v lies
    # below it and rejects the hypothesis, and so joins no level.
    f = lambda x: 0.5 if 0.0 < x < 1.0 else (1.0 if x <= 5.0 else x - 4.0)
    obj = CountingObjective(f)
    out = _drive(obj, TOL, yielding([4.0, 5.0, 6.0, 7.0]),
                 Recognizer(Interval(0.0, 10.0), TOL))
    u, v = obj.transcript[4:]
    assert (u.x, u.y) == (0.0, 1.0)
    assert v.y < min(p.y for p in obj.transcript[:5])
    assert out.classification is FunctionClass.FLAT_BOTTOM
    assert (out.x_min, out.f_min, out.evaluations) == (4.0, 1.0, 6)
    assert detect_flat_bottom(obj.transcript) == Point2(4.0, 1.0)


def test_spaced_recognizer_counts_the_level_first_abscissa():
    # Level 1.0 gets 0.0, 3.0, 3.5 and 6.0; 3.0 and 3.5 merge, so only
    # 0.0, 3.0 and 6.0 are three abscissas more than 2*e0 apart, and the
    # first of them is the level's first point.
    fed = []
    recognizer = Recognizer(Interval(0.0, 6.0), FLAT_ONLY, spaced=True)
    for x in (0.0, 3.0, 3.5):
        assert feed(recognizer, fed, pts((x, 1.0))) is None
    assert feed(recognizer, fed, pts((6.0, 1.0))) == Point2(0.0, 1.0)


def test_recognizer_runs_monotone_check_on_four_distinct_abscissas():
    # A repeated abscissa neither counts toward the four nor reaches the
    # check, which would reject it.
    obj = CountingObjective(lambda x: x)
    out = _drive(obj, TOL, yielding([5.0, 7.5, 7.5, 6.0, 9.0]),
                 Recognizer(Interval(0.0, 10.0), TOL))
    assert out.classification is FunctionClass.MONOTONE_INCREASING
    # Five fed points, then the two endpoint probes.
    assert (out.x_min, out.evaluations) == (0.0, 7)
    assert [p.x for p in obj.transcript[4:]] == [9.0, 0.0, e0(TOL, 0.0)]


@settings(max_examples=400)
@given(
    st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4, unique=True),
    st.lists(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(-5.0, 5.0),
             min_size=4, max_size=4),
)
def test_recognizer_free_rejection_matches_detect_monotone(xs, ys):
    # Four points with distinct abscissas inside the interval.  No level
    # holds three of them, so the flat-bottom rule cannot answer first.
    assume(max(Counter(ys).values()) < 3)
    points = pts(*zip(xs, ys))
    interval = Interval(-10.0, 10.0)
    reference = CountingObjective(lambda x: 0.0)
    detect_monotone(points, interval, reference, TOL)
    recognizer = Recognizer(interval, TOL)
    asked = [recognizer.observe(p) for p in points]
    assert asked[:3] == [None] * 3
    if reference.count == 0:
        assert asked[3] is None
    else:
        assert asked[3] == reference.transcript[0].x


# ------------------------------------------------------------------ monotone

def sample(f, xs):
    return [Point2(x, f(x)) for x in xs]


def test_confirms_increasing():
    iv = Interval(0.0, 10.0)
    obj = CountingObjective(lambda x: x * x)
    verdict = detect_monotone(sample(lambda x: x * x, [1.0, 3.0, 5.0, 7.0]),
                              iv, obj, TOL)
    assert verdict == (FunctionClass.MONOTONE_INCREASING, Point2(0.0, 0.0))
    # A confirmed verdict costs exactly its two endpoint probes.
    assert obj.count == 2


def test_confirms_decreasing():
    iv = Interval(1.0, 9.0)
    f = lambda x: 100.0 - x
    obj = CountingObjective(f)
    verdict = detect_monotone(sample(f, [2.0, 4.0, 6.0, 8.0]), iv, obj, TOL)
    assert verdict is not None
    direction, endpoint = verdict
    assert direction is FunctionClass.MONOTONE_DECREASING
    assert endpoint.x == 9.0


def test_rejects_non_monotone_ordinates_for_free():
    iv = Interval(-5.0, 5.0)
    f = lambda x: x * x
    obj = CountingObjective(f)
    # Samples straddle the minimum: ordinates form a V, not a ramp.
    assert detect_monotone(sample(f, [-4.0, -1.0, 1.0, 4.0]), iv, obj, TOL) is None
    assert obj.count == 0


def test_rejects_unimodal_straddling_minimum_after_probe():
    # Sorted ordinates *look* decreasing, but the endpoint probe exposes
    # the interior minimum: u.y > min(ys) kills the hypothesis.
    iv = Interval(0.0, 10.0)
    f = lambda x: (x - 6.0) ** 2
    obj = CountingObjective(f)
    w = sample(f, [1.0, 2.0, 4.0, 5.5])  # 25, 16, 4, 0.25 — non-increasing
    assert detect_monotone(w, iv, obj, TOL) is None
    assert obj.count >= 1  # paid for the endpoint probe


def test_flat_stretch_passes_non_strictly():
    iv = Interval(0.0, 8.0)
    f = lambda x: max(x, 3.0)
    obj = CountingObjective(f)
    verdict = detect_monotone(sample(f, [1.0, 2.0, 5.0, 7.0]), iv, obj, TOL)
    assert verdict is not None
    direction, endpoint = verdict
    assert direction is FunctionClass.MONOTONE_INCREASING
    assert endpoint.y == 3.0


def test_requires_four_points():
    obj = CountingObjective(lambda x: x)
    with pytest.raises(ValueError):
        detect_monotone(pts((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)),
                        Interval(0.0, 3.0), obj, TOL)


def test_rejects_duplicate_abscissas():
    obj = CountingObjective(lambda x: x)
    w = pts((0.0, 0.0), (1.0, 1.0), (1.0, 1.0), (2.0, 2.0))
    with pytest.raises(ValueError, match=r"^duplicate abscissa 1\.0 in monotone check$"):
        detect_monotone(w, Interval(0.0, 3.0), obj, TOL)


def test_rejects_points_outside_interval():
    obj = CountingObjective(lambda x: x)
    w = pts((0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (9.0, 9.0))
    with pytest.raises(ValueError, match=r"^point x=9\.0 outside Interval\(lo=0\.0, hi=3\.0\)$"):
        detect_monotone(w, Interval(0.0, 3.0), obj, TOL)


def test_inner_probe_lands_one_tolerance_step_inside():
    iv = Interval(2.0, 11.0)
    f = lambda x: x
    obj = CountingObjective(f)
    verdict = detect_monotone(sample(f, [3.0, 5.0, 7.0, 9.0]), iv, obj, TOL)
    assert verdict is not None
    assert [p.x for p in obj.transcript] == [2.0, 2.0 + e0(TOL, 2.0)]


@given(
    slope=st.floats(min_value=0.01, max_value=100),
    intercept=st.floats(min_value=-10, max_value=10),
    increasing=st.booleans(),
    xs=st.lists(st.floats(min_value=0.05, max_value=0.95),
                min_size=4, max_size=8, unique=True),
)
def test_affine_targets_always_confirm(slope, intercept, increasing, xs):
    sign = 1.0 if increasing else -1.0
    f = lambda x: sign * slope * x + intercept
    iv = Interval(0.0, 1.0)
    obj = CountingObjective(f)
    verdict = detect_monotone(sample(f, sorted(xs)), iv, obj, TOL)
    assert verdict is not None
    direction, endpoint = verdict
    expected = (FunctionClass.MONOTONE_INCREASING if increasing
                else FunctionClass.MONOTONE_DECREASING)
    assert direction is expected
    assert endpoint.x == (0.0 if increasing else 1.0)


@given(
    vertex=st.floats(min_value=0.3, max_value=0.7),
    scale=st.floats(min_value=0.5, max_value=50),
    seed=st.randoms(use_true_random=False),
)
def test_never_confirms_straddled_interior_minimum(vertex, scale, seed):
    # Guarantee of the recognizer: with samples on both sides of the
    # minimizer of a strictly unimodal target, no verdict is returned.
    f = lambda x: scale * (x - vertex) ** 2
    left = sorted(seed.uniform(0.0, vertex - 0.01) for _ in range(2))
    right = sorted(seed.uniform(vertex + 0.01, 1.0) for _ in range(2))
    xs = left + right
    if len(set(xs)) < 4:
        return
    obj = CountingObjective(f)
    assert detect_monotone(sample(f, xs), Interval(0.0, 1.0), obj, TOL) is None
