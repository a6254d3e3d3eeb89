"""A small arithmetic-expression language for command-line objectives.

Supports numeric literals, the variable ``x``, unary minus, the binary
operators ``+ - * / ^`` (with ``^`` the right-associative power operator
binding tighter than unary minus on its left, so ``-2^2 == -4`` and
``2^-3 == 0.125``), and calls to ``sin``, ``cos``, ``tan``, ``exp``,
``ln``, ``abs``, ``sqrt``, ``cosh``, ``sinh``, ``tanh``, ``pow`` (two
arguments) and variadic ``max``/``min`` (two or more).  Whitespace is
insignificant.

Example::

    >>> f = parse_expression("0.2 + (x - 1.5)^2")
    >>> f(1.5)
    0.2

Parsing builds the evaluator: each grammar rule returns a closure of
``x`` (a literal stays a float that its operator uses directly), so a call
runs no tree walk.  Parse problems raise :class:`ExpressionError` carrying
the offset of the offending token; evaluation at a finite ``x`` either
returns a finite float or raises a domain/arithmetic error (``sqrt(-1)``,
division by zero, overflow), which the solvers' objective wrapper turns
into an evaluation failure.  Parsing computes nothing, so such an error is
raised by the call, never by :func:`parse_expression`.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable, Union

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


def _power(base: float, exponent: float) -> float:
    result = base ** exponent
    if isinstance(result, complex):
        raise ValueError(
            f"fractional power of negative base: {base!r} ^ {exponent!r}"
        )
    return result


# name -> (min arity, max arity or None for unbounded, implementation)
_FUNCTIONS: dict[str, tuple[int, int | None, Callable[..., float]]] = {
    "sin": (1, 1, math.sin),
    "cos": (1, 1, math.cos),
    "tan": (1, 1, math.tan),
    "exp": (1, 1, math.exp),
    "ln": (1, 1, math.log),
    "abs": (1, 1, abs),
    "sqrt": (1, 1, math.sqrt),
    "cosh": (1, 1, math.cosh),
    "sinh": (1, 1, math.sinh),
    "tanh": (1, 1, math.tanh),
    "pow": (2, 2, _power),
    "max": (2, None, max),
    "min": (2, None, min),
}


class ExpressionError(ValueError):
    """Syntax, arity, or unknown-name problem; ``position`` is the offset
    into the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


# A parsed subexpression: a literal (kept as a float so that the operators
# above it can use it directly) or a closure of ``x``.
_Node = Union[float, Callable[[float], float]]

_BINARY: dict[str, Callable[[float, float], float]] = {
    "+": operator.add, "-": operator.sub,
    "*": operator.mul, "/": operator.truediv,
}


def _closure(node: _Node) -> Callable[[float], float]:
    if isinstance(node, float):
        return lambda x: node
    return node


def _apply(op: Callable[[float, float], float], left: _Node, right: _Node) -> _Node:
    """``x -> op(left(x), right(x))``, with a literal operand passed as is.
    Nothing is computed here: a domain error raises when the result is called."""
    if isinstance(left, float):
        if isinstance(right, float):
            return lambda x: op(left, right)
        return lambda x: op(left, right(x))
    if isinstance(right, float):
        return lambda x: op(left(x), right)
    return lambda x: op(left(x), right(x))


class Expression:
    """A parsed expression; calling it evaluates at the given ``x``."""

    def __init__(self, source: str, fn: Callable[[float], float]):
        self.source = source
        self._fn = fn

    def __call__(self, x: float) -> float:
        return float(self._fn(x))

    def __repr__(self) -> str:
        return f"Expression({self.source!r})"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def match_op(self, *ops: str) -> str | None:
        kind, value, _ = self.peek()
        if kind == "op" and value in ops:
            self.advance()
            return value
        return None

    def expect_op(self, op: str) -> None:
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}, found {value or 'end of input'!r}", pos)
        self.advance()

    # expr := term (('+'|'-') term)*
    def expr(self) -> _Node:
        node = self.term()
        while (op := self.match_op("+", "-")) is not None:
            node = _apply(_BINARY[op], node, self.term())
        return node

    # term := factor (('*'|'/') factor)*
    def term(self) -> _Node:
        node = self.factor()
        while (op := self.match_op("*", "/")) is not None:
            node = _apply(_BINARY[op], node, self.factor())
        return node

    # factor := '-' factor | power
    def factor(self) -> _Node:
        if self.match_op("-"):
            inner = self.factor()
            if isinstance(inner, float):
                return -inner
            return lambda x: -inner(x)
        return self.power()

    # power := atom ('^' factor)?   (right-associative)
    def power(self) -> _Node:
        node = self.atom()
        if self.match_op("^"):
            return _apply(_power, node, self.factor())
        return node

    def atom(self) -> _Node:
        kind, value, pos = self.advance()
        if kind == "number":
            return float(value)
        if kind == "ident":
            if value == "x":
                return lambda x: x
            if value in _FUNCTIONS:
                self.expect_op("(")
                args = [self.expr()]
                while self.match_op(","):
                    args.append(self.expr())
                self.expect_op(")")
                low, high, impl = _FUNCTIONS[value]
                if len(args) < low or (high is not None and len(args) > high):
                    wanted = str(low) if high == low else f"at least {low}"
                    raise ExpressionError(
                        f"{value}() takes {wanted} argument(s), got {len(args)}", pos
                    )
                if high == 2:
                    return _apply(impl, *args)
                fns = [_closure(arg) for arg in args]
                if high == 1:
                    (arg,) = fns
                    return lambda x: impl(arg(x))
                return lambda x: impl([fn(x) for fn in fns])
            raise ExpressionError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(
            f"expected a number, 'x', a function call or '(', found "
            f"{value or 'end of input'!r}",
            pos,
        )


def parse_expression(text: str) -> Expression:
    """Parse ``text`` into an :class:`Expression`.

    Raises :class:`ExpressionError` (with offset) on malformed input,
    unknown identifiers, or wrong call arity.
    """
    parser = _Parser(text)
    node = parser.expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ExpressionError(f"unexpected trailing input {value!r}", pos)
    return Expression(text, _closure(node))
