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

A parsed :class:`Expression` is a :class:`functools.partial` of its shape's
compiled function over the text's numbers, so a call enters that one
function.  The parser emits ``lambda _0, ..., _<n-1>, x, /: float(<expr>)``
with only the parentheses the grammar needs; the ``k``-th number in the
text is the parameter ``_<k>`` (``1e999`` is ``inf``, which has no source
form), and a unary minus stays in the source.  Only tokens the grammar
accepted reach ``compile``: ``x``, the operators, parentheses, commas, the
table's names and those parameters, and the code sees only the table's
functions and ``float``.  ``^`` becomes ``pow``, the table's ``_power``,
which raises ``ValueError`` where a fractional power of a negative base
would go complex; on a base that is a call to ``abs``, never negative, it
becomes Python's ``**``, with the same result bits and exceptions.

A text's shape, its names and operators in order with the places of its
numbers, alone decides its function.  The functions of the 256 most
recently used shapes are kept, so a text of a known shape, such as
``5 * x+7`` after ``2*x + 3``, is only tokenized and its numbers converted.

Parse problems raise :class:`ExpressionError` carrying the offset of the
offending token; so does a text nested deeper than the fixed limits,
which make whether a text parses a property of the text alone.
Evaluation at a finite ``x`` either returns a finite float or raises a
domain/arithmetic error (``sqrt(-1)``, division by zero, overflow), which
the solvers' objective wrapper turns into an evaluation failure.  Parsing
computes nothing, so such an error is raised by the call, never by
:func:`parse_expression`.
"""

from __future__ import annotations

import math
import re
from collections import OrderedDict
from functools import cache, partial
from types import FunctionType
from typing import Callable

@cache
def _token_re() -> re.Pattern[str]:
    """One token per match, after any whitespace: a word (an operator or a
    name), a number, or any other character (an error).  Compiled on the
    first parse, so ``import ratiosect`` compiles no regular expression."""
    return re.compile(
        r"""\s*(?:
          ([-+*/^(),] | [A-Za-z_][A-Za-z0-9_]*)
        | ((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
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
# What compiled code sees: the table's functions, ``float``, no builtins.
_NAMESPACE = {"__builtins__": {}, "float": float,
              **{name: impl for name, (*_, impl) in _FUNCTIONS.items()}}

# A text's shape (its words column) -> the shape's function, least recently
# used first.
_SHAPES: OrderedDict[tuple[str, ...], Callable[..., float]] = OrderedDict()
_MAX_SHAPES = 256


class ExpressionError(ValueError):
    """Syntax, arity, or unknown-name problem; ``position`` is the offset
    into the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


# A parsed subexpression: ``(source, level, depth)``, its Python source,
# how tightly that binds, and how many levels deep its tree is.
_Node = tuple[str, int, int]
# At most _MAX_RULES open rules (``expr`` or ``factor``, 1.5 Python frames
# each at most) and _MAX_DEPTH tree levels: neither the parser's recursion
# nor ``compile``'s reaches Python's limits from a caller a few hundred
# frames deep.  A caller deeper still gets the same ExpressionError from
# the RecursionError fallbacks in ``_Parser.function``.
_MAX_RULES, _MAX_DEPTH = 320, 1000
_SUM, _TERM, _NEG, _POW, _ATOM = 1, 2, 3, 4, 5
_BINARY = {"+": _SUM, "-": _SUM, "*": _TERM, "/": _TERM}


class Expression(partial):
    """A parsed expression; calling it evaluates at the given ``x``.  Its
    ``func`` is the shape's function, ``args`` the literals, ``source`` the text."""

    def __repr__(self) -> str:
        return f"Expression({self.source!r})"


def _source(node: _Node, level: int = _SUM) -> str:
    """``node``'s source, in parentheses unless it binds as tightly as ``level``."""
    text, own, _ = node
    return text if own >= level else f"({text})"


class _Parser:
    """Recursive descent over the tokens, held as columns: entry ``i`` of
    ``words`` is token ``i``'s text if it is an operator or a name, and of
    ``numbers`` if it is a number, ``""`` otherwise; the last token, ``""``
    in both, is the end of input.  The ``k``-th number read is ``_<k>``."""

    def __init__(self, text: str, words: tuple[str, ...], numbers: tuple[str, ...]):
        self.text = text
        self.words, self.numbers = words, numbers
        self.index = 0
        self.depth = 0  # open rules
        self.params: list[str] = []

    def error(self, message: str, index: int) -> ExpressionError:
        # Offsets are only needed here, so only found here.
        starts = [m.start(m.lastindex) for m in _token_re().finditer(self.text)]
        return ExpressionError(message, starts[index] if index < len(starts) else len(self.text))

    def found(self, i: int) -> str:
        return repr(self.words[i] or self.numbers[i] or "end of input")

    def enter(self) -> None:
        """Open one more rule; past :data:`_MAX_RULES`, fail at the last token read."""
        self.depth += 1
        if self.depth > _MAX_RULES:
            raise self.error("expression nested too deeply", self.index - 1)

    def expect_op(self, op: str) -> None:
        if self.words[self.index] != op:
            raise self.error(f"expected {op!r}, found {self.found(self.index)}", self.index)
        self.index += 1

    # expr := term (('+'|'-') term)*;  term := factor (('*'|'/') factor)*
    def expr(self, level: int = _SUM) -> _Node:
        """The longest run of operators binding at ``level`` or tighter."""
        self.enter()
        node = self.factor()
        while (op_level := _BINARY.get(self.words[self.index], 0)) >= level:
            op = self.words[self.index]
            self.index += 1
            right = self.expr(op_level + 1)
            node = (f"{_source(node, op_level)} {op} {_source(right, op_level + 1)}",
                    op_level, max(node[2], right[2]) + 1)
        self.depth -= 1
        return node

    # factor := '-' factor | atom ('^' factor)?   (^ is right-associative)
    def factor(self) -> _Node:
        self.enter()
        # A run of unary minuses is read in a loop, not one rule each.
        first = self.index
        while self.words[self.index] == "-":
            self.index += 1
        start = self.index
        node = self.atom()
        if self.words[self.index] == "^":
            self.index += 1
            right = self.factor()
            depth = max(node[2], right[2]) + 1
            # A call to abs is never negative, so ** cannot go complex there
            # and needs no _power check.  Python's ** takes a unary minus on
            # its right, as ^ does.
            if self.words[start] == "abs":
                node = f"{_source(node)} ** {_source(right, _NEG)}", _POW, depth
            else:
                node = f"pow({_source(node)}, {_source(right)})", _ATOM, depth
        if start > first:
            node = "-" * (start - first) + _source(node, _NEG), _NEG, node[2] + start - first
        self.depth -= 1
        return node

    def atom(self) -> _Node:
        i = self.index
        self.index += 1
        name = self.words[i]
        if self.numbers[i]:
            param = f"_{len(self.params)}"
            self.params.append(param)
            return param, _ATOM, 1
        if name == "x":
            return "x", _ATOM, 1
        if name in _FUNCTIONS:
            self.expect_op("(")
            args = [self.expr()]
            while self.words[self.index] == ",":
                self.index += 1
                args.append(self.expr())
            self.expect_op(")")
            low, high, _ = _FUNCTIONS[name]
            if len(args) < low or (high is not None and len(args) > high):
                wanted = str(low) if high == low else f"at least {low}"
                raise self.error(f"{name}() takes {wanted} argument(s), got {len(args)}", i)
            return (f"{name}({', '.join(map(_source, args))})", _ATOM,
                    max(arg[2] for arg in args) + 1)
        if name.isidentifier():
            raise self.error(f"unknown identifier {name!r}", i)
        if name == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise self.error(
            f"expected a number, 'x', a function call or '(', found {self.found(i)}", i)

    def function(self) -> Callable[..., float]:
        """Parse and compile the whole text into its shape's function."""
        try:
            node = self.expr()
        except RecursionError:  # a caller already deep in the stack
            raise self.error("expression nested too deeply", self.index - 1) from None
        if self.index < len(self.words) - 1:
            raise self.error(f"unexpected trailing input {self.found(self.index)}", self.index)
        if node[2] > _MAX_DEPTH:
            raise ExpressionError("expression nested too deeply to compile", 0)
        # The literals lead, for the partial to fill.  Positional-only
        # parameters are the form Python's parser tries first, so the
        # cheapest to compile.
        params = ", ".join([*self.params, "x", "/"])
        try:
            code = compile(f"lambda {params}: float({_source(node)})", "<expression>", "eval")
        except (SyntaxError, RecursionError):  # past 200 parentheses, or a deep caller
            raise ExpressionError("expression nested too deeply to compile", 0) from None
        # The compiled expression only makes the function: its one constant.
        return FunctionType(code.co_consts[0], _NAMESPACE)


def parse_expression(text: str) -> Expression:
    """Parse ``text`` into an :class:`Expression`.

    Raises :class:`ExpressionError` (with offset) on malformed input,
    unknown identifiers, wrong call arity, or nesting too deep to parse
    (offset of the last token read) or to compile (offset 0).
    """
    tokens = _token_re().findall(text)
    tokens.append(("", "", ""))
    words, numbers, others = zip(*tokens)
    if any(others):  # its word is "", as a number's is: never look it up
        index = next(i for i, other in enumerate(others) if other)
        raise _Parser(text, words, numbers).error(f"unexpected character {others[index]!r}", index)
    # A hit is one pop and one store: no other thread can evict in between.
    fn = _SHAPES.pop(words, None) or _Parser(text, words, numbers).function()
    _SHAPES[words] = fn
    if len(_SHAPES) > _MAX_SHAPES:
        _SHAPES.popitem(last=False)
    expression = Expression(fn, *[float(number) for number in numbers if number])
    expression.source = text
    return expression
