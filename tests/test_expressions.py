import copy
import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratiosect.benchsuite import benchmark_suite
from ratiosect.core import CountingObjective, EvaluationError
from ratiosect.expressions import (
    Expression,
    ExpressionError,
    _MAX_SHAPES,
    _SHAPES,
    _power,
    parse_expression,
)


def ev(text, x=0.0):
    return parse_expression(text)(x)


class TestBasics:
    def test_literal(self):
        assert ev("42") == 42.0
        assert ev("3.5e2") == 350.0
        assert ev(".25") == 0.25

    def test_variable(self):
        assert ev("x", 2.5) == 2.5

    def test_arithmetic(self):
        assert ev("1 + 2 * 3") == 7.0
        assert ev("(1 + 2) * 3") == 9.0
        assert ev("10 / 4") == 2.5
        assert ev("7 - 2 - 1") == 4.0  # left associative

    def test_whitespace_insignificant(self):
        assert ev("  1+ 2   *3 ") == ev("1+2*3")


class TestPower:
    def test_binds_tighter_than_unary_minus(self):
        assert ev("-2^2") == -4.0

    def test_negative_exponent(self):
        assert ev("2^-3") == 0.125

    def test_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_pow_function(self):
        assert ev("pow(2, 10)") == 1024.0

    def test_fractional_power_of_negative_base(self):
        f = parse_expression("x^0.5")
        with pytest.raises(ValueError):
            f(-8.0)


class TestFunctions:
    @pytest.mark.parametrize("name,impl", [
        ("sin", math.sin), ("cos", math.cos), ("tan", math.tan),
        ("exp", math.exp), ("abs", abs), ("cosh", math.cosh),
        ("sinh", math.sinh), ("tanh", math.tanh),
    ])
    def test_unary(self, name, impl):
        f = parse_expression(f"{name}(x)")
        for x in (-1.5, 0.0, 0.7, 2.0):
            assert f(x) == impl(x)

    def test_ln(self):
        assert ev("ln(1)") == 0.0
        assert ev("ln(x)", 2.5) == math.log(2.5)
        with pytest.raises(ValueError):
            ev("ln(0)")

    def test_sqrt(self):
        assert ev("sqrt(9)") == 3.0
        with pytest.raises(ValueError):
            ev("sqrt(-1)")

    def test_variadic_max_min(self):
        assert ev("max(1, 2, 3)") == 3.0
        assert ev("min(4, x, 2)", 1.0) == 1.0
        assert ev("max(x, 0)", -5.0) == 0.0

    def test_arity_errors(self):
        with pytest.raises(ExpressionError):
            parse_expression("sin(1, 2)")
        with pytest.raises(ExpressionError):
            parse_expression("pow(2)")
        with pytest.raises(ExpressionError):
            parse_expression("max(1)")


class TestErrors:
    def test_unknown_identifier(self):
        with pytest.raises(ExpressionError):
            parse_expression("y + 1")

    def test_unknown_character(self):
        with pytest.raises(ExpressionError):
            parse_expression("1 ? 2")

    def test_trailing_input(self):
        with pytest.raises(ExpressionError):
            parse_expression("1 + 2 )")

    def test_unbalanced_paren(self):
        with pytest.raises(ExpressionError):
            parse_expression("(1 + 2")

    def test_empty_input(self):
        with pytest.raises(ExpressionError):
            parse_expression("")

    def test_error_carries_offset(self):
        with pytest.raises(ExpressionError) as exc_info:
            parse_expression("1 + $")
        assert exc_info.value.position == 4

    def test_division_by_zero_at_evaluation(self):
        f = parse_expression("1 / x")
        with pytest.raises(ZeroDivisionError):
            f(0.0)


class TestCompiledSource:
    # Literals are bound by name, never written into the compiled source,
    # and only the parentheses the grammar needs are emitted.
    def test_infinite_literal(self):
        assert ev("min(x, 1e999)", 2.0) == 2.0
        assert ev("max(x, -1e999)", 2.0) == 2.0

    def test_negative_zero_literal_keeps_its_sign(self):
        assert math.copysign(1.0, ev("-0.0*x", 2.0)) == -1.0

    def test_long_sum_stays_flat(self):
        assert ev("x" + "+1" * 900, 0.5) == 900.5
        assert ev("x" + "-1" * 900, 0.5) == -899.5

    def test_long_chain_of_unary_minus(self):
        assert ev("-" * 900 + "x", 1.5) == 1.5
        assert ev("-" * 901 + "x", 1.5) == -1.5
        assert math.copysign(1.0, ev("-" * 901 + "x", 0.0)) == -1.0

    def test_pow_of_negative_base_raises_at_call(self):
        f = parse_expression("pow(-2, 0.5)")
        with pytest.raises(ValueError):
            f(0.0)

    def test_redundant_parentheses_dropped(self):
        assert ev("(" * 159 + "x" + ")" * 159, 3.0) == 3.0
        # 106 nested ``1^(...)`` are 320 open rules, within the parser's
        # limit, and compile to 107 nested parentheses with ``float(``; kept,
        # the redundant ones would make 213, past the compiler's 200.
        assert ev("1^(" * 106 + "x" + ")" * 106, 3.0) == 1.0
        assert ev("((2)) - ((x - 1))", 1.0) == 2.0

    def test_builtins_out_of_reach(self):
        with pytest.raises(ExpressionError):
            parse_expression("__import__(1)")
        with pytest.raises(ExpressionError):
            parse_expression("_0 + x")
        with pytest.raises(ExpressionError):
            parse_expression("float(x)")


class TestTooDeep:
    # A text that cannot be built raises ExpressionError, not the
    # interpreter's RecursionError or SyntaxError.
    def test_parentheses_too_deep_to_parse(self):
        text = "(" * 1000 + "x" + ")" * 1000
        with pytest.raises(ExpressionError, match="nested too deeply") as exc_info:
            parse_expression(text)
        assert 0 < exc_info.value.position < 1000
        assert text[exc_info.value.position] == "("

    def test_power_tower_too_deep_to_compile(self):
        # Each ^ becomes a call: 300 nested calls exceed the compiler's
        # limit on nested parentheses.
        with pytest.raises(ExpressionError, match="too deeply to compile") as exc_info:
            parse_expression("1^" * 300 + "1")
        assert exc_info.value.position == 0

    def test_sum_too_long_to_compile(self):
        with pytest.raises(ExpressionError, match="too deeply to compile"):
            parse_expression("x" + "+1" * 5_000)

    @pytest.mark.parametrize("make, limit", [
        (lambda n: "(" * n + "x" + ")" * n, 159),
        (lambda n: "sin(" * n + "x" + ")" * n, 159),
        (lambda n: "x^" * n + "x", 199),
        (lambda n: "-" * n + "x", 999),
        (lambda n: "x" + "+1" * (n - 1), 1000),
    ], ids=["parentheses", "calls", "powers", "unary-minus", "sum-terms"])
    def test_limits_do_not_depend_on_the_callers_stack(self, make, limit):
        # Both the parser's recursion and compile's count the frames
        # already on the stack, so a text's fate used to depend on its
        # caller: 250 nested parentheses parsed at the top of a test and
        # failed 400 frames deeper.
        for n in (limit, limit + 1, 2 * limit):
            answer = _parse_at_depth(make(n), 0)
            assert _parse_at_depth(make(n), 400) == answer
            assert isinstance(answer, float) == (n == limit), answer

    @pytest.mark.parametrize("text", [
        "(" * 159 + "x" + ")" * 159,
        "x" + "+1" * 999,
    ], ids=["parentheses", "sum-terms"])
    def test_a_caller_at_the_recursion_limit_gets_expression_error(self, text):
        # The fixed limits hold for callers a few hundred frames deep; a
        # caller deeper still gets ExpressionError, from the parse or from
        # compile, never RecursionError.
        answer = _parse_at_depth(text, sys.getrecursionlimit() - 60)
        assert isinstance(answer, str) and "nested too deeply" in answer, answer


def _parse_at_depth(text, depth):
    """``text``, of a shape not cached, parsed ``depth`` frames deeper than
    the caller and called at 0.5; or the message of its ExpressionError."""
    if depth:
        return _parse_at_depth(text, depth - 1)
    _SHAPES.clear()
    try:
        return parse_expression(text)(0.5)
    except ExpressionError as exc:
        return str(exc)


class TestShapeCache:
    # Texts of one shape share one compiled function; each parse binds its
    # own literals.
    def test_same_shape_shares_code_not_literals(self):
        f, g = parse_expression("2*x + 3"), parse_expression("5*x + 7")
        assert f.func is g.func
        assert (f.args, g.args) == ((2.0, 3.0), (5.0, 7.0))
        assert (f(1.0), g(1.0)) == (5.0, 12.0)

    def test_literals_are_the_numbers_in_text_order(self):
        f = parse_expression("-2*abs(x - -3)^4 + -(5)")
        assert f.args == (2.0, 3.0, 4.0, 5.0)
        assert f(1.0) == -2.0 * abs(1.0 + 3.0) ** 4.0 - 5.0

    def test_whitespace_and_literals_do_not_change_the_shape(self):
        f = parse_expression("1.5*abs(x - -2)^3 + 4")
        g = parse_expression(" 2e3 * abs( x--7.25 ) ^ .5+0 ")
        assert f.func is g.func
        assert g(1.0) == 2e3 * abs(1.0 + 7.25) ** 0.5 + 0.0

    def test_special_literals_survive_a_hit(self):
        for _ in range(2):
            assert ev("min(x, 1e999)", 2.0) == 2.0
            assert ev("min(x, 1e999)", 1e300) == 1e300
            assert math.copysign(1.0, ev("-0.0*x", 2.0)) == -1.0
            assert math.copysign(1.0, ev("-(-0.0)*x", 2.0)) == 1.0
        assert math.copysign(1.0, ev("0.0*x", 2.0)) == 1.0

    def test_unexpected_character_never_takes_a_known_shape(self):
        assert ev("x + 1", 2.0) == 3.0
        with pytest.raises(ExpressionError, match="unexpected character") as exc_info:
            parse_expression("x + $")
        assert exc_info.value.position == 4

    def test_failure_to_compile_is_not_cached(self):
        for _ in range(3):
            with pytest.raises(ExpressionError, match="too deeply to compile"):
                parse_expression("1^" * 300 + "1")

    def test_shapes_beyond_the_bound_still_parse(self):
        texts = ["x" + " + x" * k + " + 1" for k in range(_MAX_SHAPES + 20)]
        for k, text in enumerate(texts):
            assert ev(text, 2.0) == 2.0 * (k + 1) + 1.0
        assert len(_SHAPES) == _MAX_SHAPES
        for k, text in enumerate(texts[:20]):
            assert ev(text.replace("1", "3"), 2.0) == 2.0 * (k + 1) + 3.0


class TestCall:
    def test_is_a_partial_of_the_literals(self):
        f = parse_expression("3*x + 4")
        assert isinstance(f, Expression)
        assert f.source == "3*x + 4"
        assert type(f(2)) is float and f(2) == 10.0
        for copied in (copy.copy(f), copy.deepcopy(f)):
            assert (repr(copied), copied(2.0)) == ("Expression('3*x + 4')", 10.0)

    def test_extra_positional_argument_raises(self):
        # The literals lead, so a second argument lands after x, with no
        # parameter to take it.
        f = parse_expression("3*x + 4")
        with pytest.raises(TypeError):
            f(1.0, 2.0)
        with pytest.raises(TypeError):
            f()

    def test_x_is_positional_only(self):
        # An Expression is called as f(x); f(x=...) was also accepted
        # before it became a partial, and is not now.
        with pytest.raises(TypeError):
            parse_expression("3*x + 4")(x=1.0)

    def test_power_of_abs_compiles_to_python_power(self):
        f = parse_expression("abs(x - 1)^2.5")
        assert "pow" not in f.func.__code__.co_names
        for x in (-2.5, 0.5, 3.0):
            assert f(x).hex() == _power(abs(x - 1.0), 2.5).hex()
        for text in ("(x - 1)^2.5", "(x - 1)^2", "x^abs(x)", "(abs(x)^2)^3"):
            assert "pow" in parse_expression(text).func.__code__.co_names

    def test_power_of_abs_keeps_precedence(self):
        assert ev("-abs(x)^2", 3.0) == -9.0
        assert ev("(abs(x)^2)^3", 2.0) == 64.0
        assert ev("abs(x)^-1", 4.0) == 0.25
        assert ev("abs(x)^abs(x)^2", 2.0) == 16.0
        assert ev("2*abs(x)^(1+1)", 3.0) == 18.0

    @pytest.mark.parametrize("text,x,error", [
        ("(-2)^0.5", 0.0, ValueError),
        ("(x - 1)^0.5", 0.0, ValueError),
        ("abs(x)^-1", 0.0, ZeroDivisionError),
    ])
    def test_power_errors_keep_their_class(self, text, x, error):
        with pytest.raises(error):
            parse_expression(text)(x)


def test_repr_shows_source():
    assert "1 + x" in repr(parse_expression("1 + x"))


def test_round_trip_against_builtin_evaluators():
    # Contract: every suite expression, parsed from its textual form,
    # evaluates bit-identically to the built-in evaluator across a dense
    # grid of each problem's interval.
    for bf in benchmark_suite():
        parsed = parse_expression(bf.expression)
        lo, hi = bf.interval.lo, bf.interval.hi
        n = 1000
        for i in range(n + 1):
            x = lo + (hi - lo) * i / n
            assert parsed(x) == bf.evaluator(x), (bf.fid, x)


@given(st.floats(min_value=-100, max_value=100),
       st.floats(min_value=-100, max_value=100))
def test_parsed_arithmetic_matches_python(a, b):
    f = parse_expression("a + x * 2 - 3 / 4".replace("a", repr(a)))
    assert f(b) == a + b * 2 - 3 / 4


# The tree walker the parser used before it built closures, kept as the
# reference for them.  Its function table is its own, so a wrong entry in
# the parser's table shows up as a mismatch.
_REFERENCE_UNARY = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
    "ln": math.log, "abs": abs, "sqrt": math.sqrt, "cosh": math.cosh,
    "sinh": math.sinh, "tanh": math.tanh,
}


def _evaluate(node, x):
    match node:
        case ("num", value):
            return value
        case ("var",):
            return x
        case ("neg", inner):
            return -_evaluate(inner, x)
        case ("bin", "+", left, right):
            return _evaluate(left, x) + _evaluate(right, x)
        case ("bin", "-", left, right):
            return _evaluate(left, x) - _evaluate(right, x)
        case ("bin", "*", left, right):
            return _evaluate(left, x) * _evaluate(right, x)
        case ("bin", "/", left, right):
            return _evaluate(left, x) / _evaluate(right, x)
        case ("bin", "^", left, right):
            return _power(_evaluate(left, x), _evaluate(right, x))
        case ("call", name, args):
            values = [_evaluate(arg, x) for arg in args]
            if name == "pow":
                return _power(values[0], values[1])
            if name == "max":
                return max(values)
            if name == "min":
                return min(values)
            return _REFERENCE_UNARY[name](values[0])
    raise AssertionError(f"unreachable node {node!r}")


# Binding strength of each node as the grammar sees it: expr (+ -) 1,
# term (* /) 2, factor (unary minus) 3, power 4, atom 5.
_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _render(node, min_level=1):
    """Source text for ``node`` with only the parentheses the grammar needs,
    so precedence and associativity are exercised too."""
    match node:
        case ("num", value):
            text, level = repr(value), 5
        case ("var",):
            text, level = "x", 5
        case ("neg", inner):
            text, level = "-" + _render(inner, 3), 3
        case ("bin", op, left, right):
            level = _LEVEL[op]
            # ^ takes an atom on its left and a factor on its right; the
            # other operators are left-associative.
            lhs, rhs = (5, 3) if op == "^" else (level, level + 1)
            text = f"{_render(left, lhs)} {op} {_render(right, rhs)}"
        case ("call", name, args):
            text, level = f"{name}({', '.join(_render(a) for a in args)})", 5
    return f"({text})" if level < min_level else text


_leaves = st.one_of(
    st.tuples(st.just("num"),
              st.floats(min_value=0.0, max_value=1e3) | st.sampled_from([0.0, 0.5, 2.0, 3.0])),
    st.just(("var",)),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.just("neg"), children),
        st.tuples(st.just("bin"), st.sampled_from("+-*/^"), children, children),
        st.tuples(st.just("call"), st.sampled_from(sorted(_REFERENCE_UNARY)),
                  st.tuples(children)),
        st.tuples(st.just("call"), st.just("pow"), st.tuples(children, children)),
        st.tuples(st.just("call"), st.sampled_from(["max", "min"]),
                  st.lists(children, min_size=2, max_size=4).map(tuple)),
    )


_trees = st.recursive(_leaves, _extend, max_leaves=12)


def _outcome(fn, x):
    try:
        return float(fn(x)).hex()
    except Exception as exc:  # the exception class is the outcome
        return type(exc)


@settings(max_examples=500)
@given(_trees, st.lists(st.floats(allow_nan=False, allow_infinity=False),
                        min_size=1, max_size=4))
def test_closures_match_tree_walker(tree, xs):
    text = _render(tree)
    parsed = parse_expression(text)
    for x in xs + [0.0, -1.5, 2.0]:
        assert _outcome(parsed, x) == _outcome(lambda x: _evaluate(tree, x), x), (text, x)


def test_render_respects_precedence():
    two, three = ("num", 2.0), ("num", 3.0)
    assert _render(("bin", "^", two, ("bin", "^", three, two))) == "2.0 ^ 3.0 ^ 2.0"
    assert _render(("bin", "^", ("bin", "^", two, three), two)) == "(2.0 ^ 3.0) ^ 2.0"
    assert _render(("bin", "^", ("neg", two), three)) == "(-2.0) ^ 3.0"
    assert _render(("neg", ("bin", "^", two, three))) == "-2.0 ^ 3.0"
    assert _render(("bin", "-", two, ("bin", "-", three, two))) == "2.0 - (3.0 - 2.0)"


@pytest.mark.parametrize("text,error", [
    ("1/0", ZeroDivisionError),
    ("sqrt(-1)", ValueError),
    ("(-2)^0.5", ValueError),
])
def test_domain_errors_raise_at_call_not_at_parse(text, error):
    f = parse_expression(text)  # parsing computes nothing
    with pytest.raises(error):
        f(0.0)
    with pytest.raises(EvaluationError):
        CountingObjective(f).evaluate(0.0)


def test_readme_lists_exactly_the_parser_functions():
    from pathlib import Path

    from ratiosect.expressions import _FUNCTIONS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("Expressions understand"):]
    paragraph = paragraph[:paragraph.index("free variable")]
    names = set(re.findall(r"`([a-z]+)`", paragraph))
    assert names == set(_FUNCTIONS)
