#!/usr/bin/env python3
"""Count the lines of the package's modules, the scripts and the tests.

For each module of ``src/ratiosect/``, ``scripts/`` and ``tests/`` it
prints two counts:

* ``lines``, what ``wc -l`` counts (newline characters);
* ``code``, the lines that hold a token of code.  A line that is blank,
  holds only a comment, or lies in a docstring is not counted.  Tokens
  come from :mod:`tokenize`, and docstrings are found with :mod:`ast`:
  the string that opens a module, class or function body.

It prints JSON with the package's counts per module and their totals, and
the same for ``scripts/`` and ``tests/`` under the keys ``scripts`` and
``tests``::

    python3 scripts/linecount.py
"""

from __future__ import annotations

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ratiosect"

#: Tokens that carry no code: layout, comments and the stream's ends.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_WITH_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold code outside every docstring."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, _WITH_DOCSTRING) and node.body
                and isinstance(first := node.body[0], ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def count(directory: Path = PACKAGE) -> dict:
    """Per module of ``directory`` (by file name) its ``lines`` and
    ``code``, and the ``total`` of each."""
    modules = {}
    for path in sorted(directory.glob("*.py")):
        source = path.read_text()
        modules[path.name] = {"lines": source.count("\n"), "code": code_lines(source)}
    return {
        "modules": modules,
        "total": {key: sum(m[key] for m in modules.values()) for key in ("lines", "code")},
    }


def main() -> int:
    counts = {**count(), **{name: count(ROOT / name) for name in ("scripts", "tests")}}
    print(json.dumps(counts, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
