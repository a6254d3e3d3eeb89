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

Parsing compiles the evaluator once per shape: the parser emits the
Python source ``lambda x, /, _0, ..., _<n-1>: <expr>`` with only the
parentheses the grammar needs (Python binds ``+ - * /`` and unary minus as
the grammar does; ``^`` becomes a call to ``pow``).  Only tokens the
grammar accepted reach ``compile``: ``x``, the operators, parentheses,
commas, the names of the function table, and the parameter ``_<i>`` in
place of the ``i``-th literal (a literal such as ``1e999`` is ``inf``,
which has no source form).  Texts that differ only in their literals emit
the same source, so it is compiled once and kept, for the 256 most recent
shapes; each parse makes a function of that code whose parameter defaults
are its own literals, and a call runs one Python function.  The code runs
in one namespace shared by every parse, holding only the table's
functions.  ``pow`` is the table's ``_power``, so a fractional power of a
negative base raises ``ValueError`` rather than going complex.

Parse problems raise :class:`ExpressionError` carrying the offset of the
offending token; so does a text nested too deeply to parse or compile.
Evaluation at a finite ``x`` either returns a finite float or raises a
domain/arithmetic error (``sqrt(-1)``, division by zero, overflow), which
the solvers' objective wrapper turns into an evaluation failure.  Parsing
computes nothing, so such an error is raised by the call, never by
:func:`parse_expression`.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from types import CodeType, FunctionType
from typing import Callable, Union

# One token per match, after any whitespace: a number, a name, an operator,
# or any other character (an error).
_TOKEN_RE = re.compile(
    r"""\s*(?:
      ((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
    | ([A-Za-z_][A-Za-z0-9_]*)
    | ([-+*/^(),])
    | (\S)
    )""",
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
# What compiled code sees: the table's functions, and no builtins.
_NAMESPACE = {"__builtins__": {}, **{name: impl for name, (*_, impl) in _FUNCTIONS.items()}}


@lru_cache(maxsize=256)
def _code(source: str) -> CodeType:
    """The code of the function ``source`` (``lambda x, /, _0, ...: <expr>``),
    compiled once per shape.  The compiled expression only makes that
    function, so its code is the expression's one constant."""
    return compile(source, "<expression>", "eval").co_consts[0]


class ExpressionError(ValueError):
    """Syntax, arity, or unknown-name problem; ``position`` is the offset
    into the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


# A parsed subexpression: a literal (a float, folded under unary minus) or
# ``(source, level)``, its Python source and how tightly that binds.
_Node = Union[float, tuple[str, int]]
_SUM, _TERM, _NEG, _ATOM = 1, 2, 3, 4
_BINARY = {"+": _SUM, "-": _SUM, "*": _TERM, "/": _TERM}


class Expression:
    """A parsed expression; calling it evaluates at the given ``x``."""

    def __init__(self, source: str, fn: Callable[[float], float]):
        self.source = source
        self._fn = fn

    def __call__(self, x: float) -> float:
        return float(self._fn(x))

    def __repr__(self) -> str:
        return f"Expression({self.source!r})"


class _Parser:
    """Recursive descent over the tokens, held as columns: entry ``i`` of
    ``numbers``, ``names`` and ``ops`` is token ``i``'s text in the one
    column its kind fills, and ``""`` in the others; the last token, all
    ``""``, is the end of input."""

    def __init__(self, text: str):
        self.text = text
        tokens = _TOKEN_RE.findall(text)
        tokens.append(("", "", "", ""))
        self.numbers, self.names, self.ops, others = zip(*tokens)
        self.index = 0
        self.literals: list[float] = []
        self.params: list[str] = []
        if any(others):
            index = next(i for i, other in enumerate(others) if other)
            raise self.error(f"unexpected character {others[index]!r}", index)

    def error(self, message: str, index: int) -> ExpressionError:
        # Offsets are only needed here, so only found here.
        starts = [m.start(m.lastindex) for m in _TOKEN_RE.finditer(self.text)]
        return ExpressionError(message, starts[index] if index < len(starts) else len(self.text))

    def found(self, i: int) -> str:
        return repr(self.numbers[i] or self.names[i] or self.ops[i] or "end of input")

    def expect_op(self, op: str) -> None:
        if self.ops[self.index] != op:
            raise self.error(f"expected {op!r}, found {self.found(self.index)}", self.index)
        self.index += 1

    def source(self, node: _Node, level: int = _SUM) -> str:
        """``node`` as source that binds at least as tightly as ``level``;
        a literal becomes the name ``_<n>`` of its place in ``literals``."""
        if isinstance(node, float):
            name = f"_{len(self.literals)}"
            self.literals.append(node)
            self.params.append(name)
            return name
        text, own = node
        return text if own >= level else f"({text})"

    # expr := term (('+'|'-') term)*;  term := factor (('*'|'/') factor)*
    def expr(self, level: int = _SUM) -> _Node:
        """The longest run of operators binding at ``level`` or tighter."""
        node = self.factor()
        while (op_level := _BINARY.get(self.ops[self.index], 0)) >= level:
            op = self.ops[self.index]
            self.index += 1
            right = self.expr(op_level + 1)
            node = f"{self.source(node, op_level)} {op} {self.source(right, op_level + 1)}", op_level
        return node

    # factor := '-' factor | atom ('^' factor)?   (^ is right-associative)
    def factor(self) -> _Node:
        if self.ops[self.index] == "-":
            self.index += 1
            inner = self.factor()
            if isinstance(inner, float):
                return -inner
            return "-" + self.source(inner, _NEG), _NEG
        node = self.atom()
        if self.ops[self.index] == "^":
            self.index += 1
            return f"pow({self.source(node)}, {self.source(self.factor())})", _ATOM
        return node

    def atom(self) -> _Node:
        i = self.index
        self.index += 1
        name = self.names[i]
        if self.numbers[i]:
            return float(self.numbers[i])
        if name == "x":
            return "x", _ATOM
        if name in _FUNCTIONS:
            self.expect_op("(")
            args = [self.source(self.expr())]
            while self.ops[self.index] == ",":
                self.index += 1
                args.append(self.source(self.expr()))
            self.expect_op(")")
            low, high, _ = _FUNCTIONS[name]
            if len(args) < low or (high is not None and len(args) > high):
                wanted = str(low) if high == low else f"at least {low}"
                raise self.error(f"{name}() takes {wanted} argument(s), got {len(args)}", i)
            return f"{name}({', '.join(args)})", _ATOM
        if name:
            raise self.error(f"unknown identifier {name!r}", i)
        if self.ops[i] == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise self.error(
            f"expected a number, 'x', a function call or '(', found {self.found(i)}", i)


def parse_expression(text: str) -> Expression:
    """Parse ``text`` into an :class:`Expression`.

    Raises :class:`ExpressionError` (with offset) on malformed input,
    unknown identifiers, wrong call arity, or nesting too deep to parse
    (offset of the last token read) or to compile (offset 0).
    """
    parser = _Parser(text)
    try:
        node = parser.expr()
    except RecursionError:
        raise parser.error("expression nested too deeply", parser.index - 1) from None
    if parser.index < len(parser.ops) - 1:
        raise parser.error(f"unexpected trailing input {parser.found(parser.index)}", parser.index)
    body = parser.source(node)  # names a bare literal: before reading params
    # Positional-only parameters: the form Python's parser tries first, so
    # the cheapest to compile.
    params = ", ".join(["x", "/", *parser.params])
    source = f"lambda {params}: {body}"
    try:
        code = _code(source)
    except (SyntaxError, RecursionError):
        raise ExpressionError("expression nested too deeply to compile", 0) from None
    return Expression(text, FunctionType(code, _NAMESPACE, None, tuple(parser.literals)))
