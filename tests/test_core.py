import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratiosect.core import (
    CountingObjective,
    EvaluationError,
    Interval,
    MinimizeOutcome,
    Point2,
    SolveStatus,
    FunctionClass,
    Tolerance,
    e0,
    stop_test,
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
moderate = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)


class TestPoint2:
    def test_holds_coordinates(self):
        p = Point2(1.5, -2.25)
        assert p.x == 1.5 and p.y == -2.25

    @pytest.mark.parametrize("x,y", [
        (math.nan, 0.0), (0.0, math.nan), (math.inf, 1.0), (1.0, -math.inf),
    ])
    def test_rejects_non_finite(self, x, y):
        with pytest.raises(ValueError):
            Point2(x, y)
        with pytest.raises(ValueError):
            Point2._make((x, y))
        with pytest.raises(ValueError):
            Point2(0.5, 0.5)._replace(x=x, y=y)

    def test_immutable_tuple(self):
        p = Point2(1.5, -2.25)
        with pytest.raises(AttributeError):
            p.x = 0.0
        with pytest.raises(AttributeError):
            p.z = 0.0
        assert p == (1.5, -2.25) and hash(p) == hash((1.5, -2.25))
        assert repr(p) == "Point2(x=1.5, y=-2.25)"


class TestInterval:
    def test_width_and_midpoint(self):
        iv = Interval(-1.0, 3.0)
        assert iv.width == 4.0
        assert iv.midpoint == 1.0

    def test_containment(self):
        iv = Interval(0.0, 1.0)
        assert 0.0 in iv and 1.0 in iv and 0.5 in iv
        assert -0.1 not in iv and 1.1 not in iv

    @pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0)])
    def test_rejects_degenerate(self, lo, hi):
        with pytest.raises(ValueError):
            Interval(lo, hi)


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.epsilon == 1e-5
        assert tol.floor == 1e-10
        assert tol.max_evaluations == 1000

    @pytest.mark.parametrize("eps", [0.0, 1.0, -1e-3, 2.0])
    def test_epsilon_range(self, eps):
        with pytest.raises(ValueError):
            Tolerance(epsilon=eps)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Tolerance(max_evaluations=0)


@given(x=moderate)
def test_e0_positive_and_even(x):
    tol = Tolerance()
    assert e0(tol, x) > 0.0
    assert e0(tol, x) == e0(tol, -x)


@given(x=moderate)
def test_e0_value(x):
    tol = Tolerance(epsilon=1e-3, floor=1e-8)
    assert e0(tol, x) == 1e-3 * abs(x) + 1e-8


class TestStopTest:
    def test_triggers_on_tight_bracket(self):
        tol = Tolerance()
        # Bracket of half-width e0 around m, m centered: trivially inside 2*e0.
        m = 2.0
        h = e0(tol, m)
        assert stop_test(m - h, m + h, m, tol)

    def test_rejects_wide_bracket(self):
        tol = Tolerance()
        assert not stop_test(0.0, 1.0, 0.5, tol)

    @given(m=st.floats(min_value=-100, max_value=100),
           off=st.floats(min_value=0, max_value=1),
           half=st.floats(min_value=1e-12, max_value=1))
    def test_matches_farthest_endpoint_distance(self, m, off, half):
        # stop_test is exactly "distance from m to the farther endpoint
        # is within 2*e0(m)" for any m inside the bracket.
        tol = Tolerance()
        a = m - half * (1.0 + off)
        b = m + half
        expected = max(m - a, b - m) <= 2.0 * e0(tol, m)
        assert stop_test(a, b, m, tol) == expected


class TestCountingObjective:
    def test_counts_every_call(self):
        obj = CountingObjective(lambda x: x * x)
        obj.evaluate(1.0)
        obj.evaluate(2.0)
        assert obj.count == 2
        assert obj.transcript == [Point2(1.0, 1.0), Point2(2.0, 4.0)]

    def test_no_caching(self):
        calls = []
        obj = CountingObjective(lambda x: calls.append(x) or 0.0)
        obj.evaluate(3.0)
        obj.evaluate(3.0)
        assert len(calls) == 2
        assert obj.count == 2

    def test_non_finite_abscissa(self):
        obj = CountingObjective(lambda x: x)
        with pytest.raises(EvaluationError):
            obj.evaluate(math.nan)
        assert obj.count == 0

    def test_non_finite_result(self):
        obj = CountingObjective(lambda x: math.inf)
        with pytest.raises(EvaluationError) as exc_info:
            obj.evaluate(1.0)
        assert exc_info.value.x == 1.0
        assert obj.count == 0

    def test_domain_error_wrapped(self):
        obj = CountingObjective(lambda x: math.sqrt(x))
        with pytest.raises(EvaluationError):
            obj.evaluate(-1.0)

    def test_zero_division_wrapped(self):
        obj = CountingObjective(lambda x: 1.0 / x)
        with pytest.raises(EvaluationError):
            obj.evaluate(0.0)

    def test_complex_power_wrapped(self):
        # (-8.0) ** 0.5 silently yields a complex number instead of
        # raising; float() on it raises TypeError, which must surface as
        # an evaluation failure like any other domain problem.
        obj = CountingObjective(lambda x: x ** 0.5)
        with pytest.raises(EvaluationError):
            obj.evaluate(-8.0)

    def test_failed_attempts_not_recorded(self):
        obj = CountingObjective(lambda x: math.sqrt(x))
        obj.evaluate(4.0)
        with pytest.raises(EvaluationError):
            obj.evaluate(-4.0)
        obj.evaluate(9.0)
        assert [p.x for p in obj.transcript] == [4.0, 9.0]

    @given(xs=st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=30))
    def test_transcript_order_matches_calls(self, xs):
        obj = CountingObjective(lambda x: 2.0 * x + 1.0)
        for x in xs:
            obj.evaluate(x)
        assert [p.x for p in obj.transcript] == xs
        assert all(p.y == 2.0 * p.x + 1.0 for p in obj.transcript)

    @given(xs=st.lists(finite, max_size=30))
    def test_records_validated_points(self, xs):
        # evaluate builds its points without Point2's own check; they must
        # still be Point2 values equal to checked ones.
        obj = CountingObjective(lambda x: 0.5 * x)
        for x in xs:
            assert obj.evaluate(x) is obj.transcript[-1]
        for p in obj.transcript:
            assert type(p) is Point2
            assert p == Point2(p.x, p.y)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_target_not_called_for_non_finite_abscissa(self, x):
        calls = []
        obj = CountingObjective(lambda t: calls.append(t) or 0.0)
        with pytest.raises(EvaluationError):
            obj.evaluate(x)
        assert calls == [] and obj.transcript == []

    def test_error_messages(self):
        with pytest.raises(EvaluationError, match=r"^non-finite abscissa nan$"):
            CountingObjective(lambda x: x).evaluate(math.nan)
        with pytest.raises(
            EvaluationError,
            match=r"^objective raised ValueError\('math domain error'\) at x=-1\.0$",
        ) as raised:
            CountingObjective(math.sqrt).evaluate(-1.0)
        assert isinstance(raised.value.__cause__, ValueError)
        with pytest.raises(EvaluationError, match=r"^objective returned -inf at x=2\.0$") as returned:
            CountingObjective(lambda x: -math.inf).evaluate(2.0)
        assert returned.value.x == 2.0


def test_outcome_converged_flag():
    good = MinimizeOutcome(0.0, 0.0, 5, FunctionClass.STRICT_INTERIOR,
                           SolveStatus.CONVERGED)
    bad = MinimizeOutcome(0.0, 0.0, 5, FunctionClass.STRICT_INTERIOR,
                          SolveStatus.BUDGET_EXHAUSTED)
    assert good.converged and not bad.converged
