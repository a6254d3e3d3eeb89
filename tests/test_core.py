import math
import operator
import subprocess
import sys
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratiosect.benchsuite import MethodSpec, solve_one
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
    halfway,
    stop_test,
)
from ratiosect.expressions import Expression, parse_expression

from conftest import SRC_DIR

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

    def test_midpoint_of_interval_whose_sum_overflows(self):
        assert Interval(0.9e308, 1e308).midpoint == 0.95e308

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

    @pytest.mark.parametrize("budget", [math.nan, 2.5, 3.0])
    def test_budget_must_be_an_integer(self, budget):
        # A NaN budget passed the positivity test, and every solver then
        # failed with something other than EvaluationError; 2.5 let five
        # solvers spend 3 evaluations.
        with pytest.raises(ValueError, match="must be a positive integer"):
            Tolerance(max_evaluations=budget)

    def test_budget_must_not_be_a_bool(self):
        # bool is an int subclass, so True passed as a budget of one.
        with pytest.raises(ValueError, match="^max_evaluations must be a positive"):
            Tolerance(max_evaluations=True)

    def test_floor_must_be_finite(self):
        # An infinite floor met every stop test at once: each solver stopped
        # after one or two evaluations and reported converged.
        with pytest.raises(ValueError, match="^floor must be positive"):
            Tolerance(floor=math.inf)


def test_import_loads_neither_dataclasses_nor_inspect():
    # Both cost milliseconds on every cold start, the CLI's included.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ratiosect; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC_DIR)],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_import_compiles_no_regular_expression():
    # A compile costs about half a millisecond of every cold start; the
    # expression parser compiles its token pattern on its first parse.
    code = ("import re, sys; sys.path.insert(0, sys.argv[1]); "
            "compiler = getattr(re, '_compiler', None) or __import__('sre_compile'); "
            "made, compile = [], compiler.compile; "
            "compiler.compile = lambda p, flags=0: made.append(p) or compile(p, flags); "
            "import ratiosect; print(len(made)); "
            "ratiosect.parse_expression('x'); print(len(made))")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC_DIR)],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "0\n1\n"


@given(x=moderate)
def test_e0_positive_and_even(x):
    tol = Tolerance()
    assert e0(tol, x) > 0.0
    assert e0(tol, x) == e0(tol, -x)


@given(x=moderate)
def test_e0_value(x):
    tol = Tolerance(epsilon=1e-3, floor=1e-8)
    assert e0(tol, x) == 1e-3 * abs(x) + 1e-8


@given(a=finite, b=finite)
def test_halfway(a, b):
    m = halfway(a, b)
    assert min(a, b) <= m <= max(a, b)
    if math.isfinite(a + b):
        assert m == 0.5 * (a + b)


_METHODS = ["bisect", "golden", "ratio-p", "ratio-a", "brent", "brent-m"]


@pytest.mark.parametrize("method", _METHODS)
def test_solvers_near_max_float_converge(method):
    # a + b overflows on this interval.  Every midpoint used to be inf:
    # bisection and the ratio solvers raised before their first
    # evaluation, and golden and Brent never passed the stop test.
    interval = Interval(0.9e308, 1e308)
    out = solve_one(MethodSpec(method), CountingObjective(
        lambda x: abs(x - 0.95e308) / 1e300), interval, Tolerance())
    assert out.converged
    assert out.x_min in interval
    assert abs(out.x_min - 0.95e308) <= 2.0 * e0(Tolerance(), 0.95e308)


_CONVERGES_AT = {"brent": 6, "brent-m": 7}


@pytest.mark.parametrize("budget", range(1, 10))
@pytest.mark.parametrize("method", _METHODS)
def test_budget_edges(method, budget):
    # Where each solver stops on (x - 0.3)^2 over [0, 1] under a small
    # budget.  Bisection spends in pairs; with room for none it spends
    # one evaluation at the midpoint, as golden does with no room for its
    # first pair.  The stop test runs before the budget test, so the two
    # Brent solvers report converged on their last allowed probe.
    obj = CountingObjective(lambda x: (x - 0.3) ** 2)
    out = solve_one(MethodSpec(method), obj, Interval(0.0, 1.0),
                    Tolerance(max_evaluations=budget))
    spent = (budget // 2 * 2 or 1) if method == "bisect" else budget
    status = SolveStatus.BUDGET_EXHAUSTED
    if budget >= _CONVERGES_AT.get(method, 10):
        spent, status = _CONVERGES_AT[method], SolveStatus.CONVERGED
    assert (out.evaluations, out.status) == (spent, status)
    assert obj.count == spent
    if budget == 1 and method in ("bisect", "golden"):
        assert out.x_min == 0.5


@pytest.mark.parametrize("interval", [Interval(0.0, 1.0), Interval(0, 1)])
@pytest.mark.parametrize("budget", range(3, 10))
@pytest.mark.parametrize("slope", [1, -1])
@pytest.mark.parametrize("method", ["ratio-p", "ratio-a", "brent-m"])
def test_monotone_check_budget_edges(method, slope, budget, interval):
    # The fourth distinct abscissa is the fourth evaluation; the check
    # runs then only if the budget has room for both probes.  With int
    # ends the minimizer is the int endpoint itself.
    obj = CountingObjective(lambda x: slope * x)
    out = solve_one(MethodSpec(method), obj, interval,
                    Tolerance(max_evaluations=budget))
    if budget < 6:
        assert (out.evaluations, out.status) == (budget, SolveStatus.BUDGET_EXHAUSTED)
        assert out.classification is FunctionClass.STRICT_INTERIOR
    else:
        end = interval.lo if slope > 0 else interval.hi
        kind = (FunctionClass.MONOTONE_INCREASING if slope > 0
                else FunctionClass.MONOTONE_DECREASING)
        assert out == (end, slope * end, 6, kind, SolveStatus.CONVERGED)
        assert type(out.x_min) is type(end)
        assert [p.x for p in obj.transcript[4:]] == [
            end, end + slope * e0(Tolerance(), end)]
    assert obj.count == out.evaluations


@pytest.mark.parametrize("interval", [Interval(0.0, 1.0), Interval(0, 1)])
@pytest.mark.parametrize("budget", range(4, 9))
@pytest.mark.parametrize("method, own_probe", [
    ("ratio-p", 0.7952000000000001), ("brent-m", 0.746853278208043)])
def test_rejected_monotone_check_budget_edges(method, own_probe, budget, interval):
    # (x - 0.9)^2 looks decreasing on the first four points, so the check
    # probes 1.0 and one e0 inside it, and rejects.  With room for only
    # one probe the solver spends its fifth evaluation on its own step.
    # (ratio-a's first four points do not look monotone, so it never probes.)
    obj = CountingObjective(lambda x: (x - 0.9) ** 2)
    out = solve_one(MethodSpec(method), obj, interval,
                    Tolerance(max_evaluations=budget))
    assert (out.evaluations, out.status) == (budget, SolveStatus.BUDGET_EXHAUSTED)
    assert out.classification is FunctionClass.STRICT_INTERIOR
    assert obj.count == budget
    probes = [p.x for p in obj.transcript[4:6]]
    if budget == 5:
        assert probes == [own_probe]
    elif budget >= 6:
        assert probes == [1.0, 1.0 - e0(Tolerance(), 1.0)]


@pytest.mark.parametrize("target, kind", [
    (lambda x: max(abs(x - 0.5), 0.2), FunctionClass.FLAT_BOTTOM),
    (lambda x: x, FunctionClass.MONOTONE_INCREASING),
    (lambda x: (x - 0.3) ** 2, FunctionClass.STRICT_INTERIOR),
])
@pytest.mark.parametrize("method", ["ratio-p", "ratio-a", "brent-m"])
def test_solve_on_a_used_objective_counts_only_its_own_evaluations(
        method, target, kind):
    fresh = solve_one(MethodSpec(method), CountingObjective(target),
                      Interval(0.0, 1.0), Tolerance())
    obj = CountingObjective(target)
    for x in (0.1, 0.2, 0.9):
        obj.evaluate(x)
    out = solve_one(MethodSpec(method), obj, Interval(0.0, 1.0), Tolerance())
    assert out == fresh
    assert out.classification is kind
    assert out.evaluations == obj.count - 3


@pytest.mark.parametrize("method", _METHODS)
def test_stop_iteration_from_the_target_propagates(method):
    # Only the solver's own steps ending is the end of a run: a
    # StopIteration that the target raises, here on its sixth call,
    # reaches the caller unchanged.
    shifts = iter([0.0] * 5)
    obj = CountingObjective(lambda x: (x - 0.3) ** 2 + next(shifts))
    with pytest.raises(StopIteration):
        solve_one(MethodSpec(method), obj, Interval(0.0, 1.0), Tolerance())
    assert obj.count == 5


@pytest.mark.parametrize("method", _METHODS)
def test_solvers_stay_inside_interval_whose_sum_overflows(method):
    # Brent's infinite midpoint sent every tol1 step right, past b: both
    # Brent solvers returned x_min = 9.9586e307.
    interval = Interval(0.0, 9.695761978498586e307)
    out = solve_one(MethodSpec(method), CountingObjective(
        lambda x: abs(x) ** 1.2559412121548827e-28), interval,
        Tolerance(0.0625, 1.0, 7))
    assert out.x_min in interval


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

    def test_triggers_on_tight_bracket_whose_sum_overflows(self):
        tol = Tolerance()
        m = 1.7e308
        h = e0(tol, m)
        assert stop_test(m - h, m + h, m, tol)

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

    @given(data=st.data(),
           epsilon=st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                             exclude_max=True),
           floor=st.floats(min_value=0.0, exclude_min=True,
                           allow_infinity=False, allow_subnormal=True))
    def test_farther_side_within_e0_implies_stop(self, data, epsilon, floor):
        # The farther side within one e0 of m is half the stop test's
        # bound, so the ratio-section loop needs no clause for it.  Drawn
        # a few ulps apart, subnormals and the ends of the range included,
        # or anywhere finite.
        if data.draw(st.booleans()):
            a = data.draw(finite)
            m = a
            for _ in range(data.draw(st.integers(0, 4))):
                m = math.nextafter(m, math.inf)
            b = m
            for _ in range(data.draw(st.integers(0, 4))):
                b = math.nextafter(b, math.inf)
            if not math.isfinite(b):
                return
        else:
            a, m, b = sorted(data.draw(st.tuples(finite, finite, finite)))
        tol = Tolerance(epsilon, floor)
        if max(m - a, b - m) <= e0(tol, m):
            assert stop_test(a, b, m, tol)


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

    @given(
        shape=st.sampled_from([
            "{0}*abs(x - {1})^{2} + {3}",
            "sin({0}*x) / ({1} + x^2) - {2}^{3}",
            "max({0}, x, {1}) * pow(x, {2}) + {3}",
        ]),
        literals=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=4,
                          max_size=4),
        x=st.floats(min_value=-1e3, max_value=1e3),
    )
    def test_parsed_expression_points_match_calling_it(self, shape, literals, x):
        # The wrapper calls an Expression through a plain partial of its
        # function and literals: same points, bit for bit, same failures.
        f = parse_expression(shape.format(*map(repr, literals)))
        obj = CountingObjective(f)
        assert obj.target is f and isinstance(obj.target, Expression)
        try:
            want = f(x)
        except (ValueError, ArithmeticError):
            want = math.nan
        if math.isfinite(want):
            point = obj.evaluate(x)
            assert (point.x.hex(), point.y.hex()) == (x.hex(), want.hex())
        else:
            with pytest.raises(EvaluationError):
                obj.evaluate(x)
            assert obj.count == 0

    def test_partial_subclass_with_its_own_call_is_called_through_it(self):
        class Doubled(partial):
            def __call__(self, x):
                return 2.0 * super().__call__(x)

        obj = CountingObjective(Doubled(operator.add, 1.0))
        assert obj.evaluate(3.0) == (3.0, 8.0)
        assert CountingObjective(partial(operator.add, 1.0)).evaluate(3.0) == (3.0, 4.0)


def test_outcome_converged_flag():
    good = MinimizeOutcome(0.0, 0.0, 5, FunctionClass.STRICT_INTERIOR,
                           SolveStatus.CONVERGED)
    bad = MinimizeOutcome(0.0, 0.0, 5, FunctionClass.STRICT_INTERIOR,
                          SolveStatus.BUDGET_EXHAUSTED)
    assert good.converged and not bad.converged


def test_outcome_is_an_immutable_tuple_with_the_dataclass_repr():
    out = MinimizeOutcome(0.5, 1.0, 5, FunctionClass.STRICT_INTERIOR,
                          SolveStatus.CONVERGED)
    for field in ("x_min", "status", "converged", "extra"):
        with pytest.raises(AttributeError):
            setattr(out, field, 0.0)
    assert repr(out) == (
        "MinimizeOutcome(x_min=0.5, f_min=1.0, evaluations=5, "
        "classification=<FunctionClass.STRICT_INTERIOR: 'strict_interior'>, "
        "status=<SolveStatus.CONVERGED: 'converged'>)")
    assert out == (0.5, 1.0, 5, FunctionClass.STRICT_INTERIOR, SolveStatus.CONVERGED)
    assert out._replace(evaluations=6).evaluations == 6
