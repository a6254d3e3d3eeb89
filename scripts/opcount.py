#!/usr/bin/env python3
"""Count the Python opcodes and evaluations of one benchmark pass.

Runs one pass of the ``suite`` and ``sweep-c`` workloads' units, and the
first ``RANDOM_EXPR_TARGETS`` units of ``random-expr`` at seed ``SEED``,
all built by ``bench/workloads.py``, under ``sys.settrace`` with opcode
events on (``f_trace_opcodes``).  Each opcode is counted against the
module of the code object that executes it (a parsed expression's
function is ``<expression>``) and against the configuration of the
solver call it runs in, labelled as the benchmark labels it
(``ratio-a(c=0.001)``); opcodes outside every solver call count under
``OUTSIDE``.  An evaluation is a call of ``CountingObjective.evaluate``.
One untraced pass runs first, so that imports and caches are warm and
every counted pass does the same work.

It also counts one first parse of a new shape: the parser's shape cache
(``expressions._SHAPES``) is emptied, then ``FIRST_PARSE``, a text of
random-expr's shape, is parsed, so the count covers tokenizing, the
parser and generating the shape's source.  ``compile``, which turns that
source into the shape's function, is one C call and so one opcode.

The count does not depend on the host's load or clock, so two runs of
the same tree under the same interpreter agree exactly.  It sees only
Python bytecode: work done in C (``sorted``, ``float()``, ``math``) is
one opcode per call, however long it takes, so a change that moves work
into C looks free here.  Put the count beside the timings of
``bench/run.py``, never in their place.  Bytecode differs between Python
versions, so counts compare only under one interpreter.

Prints JSON: the Python version, and per workload and for the first
parse the total opcodes, the evaluations, the opcodes per module, and the
opcodes and evaluations per configuration::

    python3 scripts/opcount.py
"""

from __future__ import annotations

import gc
import json
import platform
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable

ROOT = Path(__file__).resolve().parent.parent
#: Workload -> how many of its units one counted pass runs (``None``: all).
WORKLOADS: dict[str, int | None] = {"suite": None, "sweep-c": None, "random-expr": 600}
#: ``bench/workloads.py`` takes a seed; only random-expr's draw uses it.
SEED = 1
#: The configuration of opcodes and evaluations outside every solver call.
OUTSIDE = "-"
#: The text whose first parse is counted: random-expr's shape.
FIRST_PARSE = "2.5*abs(x - 0.75)^1.5 + 3.0"


def _import_paths() -> None:
    for path in (ROOT / "bench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def warm_units(name: str, limit: int | None = None) -> list[Callable[[], object]]:
    """The first ``limit`` units (all if ``None``) of one pass of workload
    ``name``, each run once."""
    _import_paths()
    from workloads import WORKLOADS as BUILDERS

    units = BUILDERS[name](ROOT, SEED).units[:limit]
    for unit in units:
        unit()
    return units


def first_parse_units() -> list[Callable[[], object]]:
    """One unit, run once: empty the shape cache, then parse
    ``FIRST_PARSE``, so that every call is a first parse of its shape."""
    _import_paths()
    from ratiosect import expressions

    def unit() -> object:
        expressions._SHAPES.clear()
        return expressions.parse_expression(FIRST_PARSE)

    unit()
    return [unit]


def count(units: Iterable[Callable[[], object]]) -> dict:
    """Opcodes and evaluations of calling each of ``units`` once, traced."""
    from ratiosect import CountingObjective, MethodSpec
    from tracing import SOLVERS

    evaluate_code = CountingObjective.evaluate.__code__
    solver_codes = {fn.__code__: method for fn, method in SOLVERS.items()}
    by_module: Counter[str] = Counter()
    by_config: Counter[str] = Counter()
    evaluations: Counter[str] = Counter()
    # The running solver call's configuration and frame.
    current = [OUTSIDE, None]
    tracers: dict[str, Callable] = {}

    def tracer_for(module: str) -> Callable:
        def trace(frame, event, arg):
            if event == "opcode":
                by_module[module] += 1
                by_config[current[0]] += 1
            elif event == "return" and frame is current[1]:
                current[:] = OUTSIDE, None
            return trace
        return tracers.setdefault(module, trace)

    def on_call(frame, event, arg):
        code = frame.f_code
        if code is evaluate_code:
            evaluations[current[0]] += 1
        elif code in solver_codes and current[1] is None:
            # Labelled as bench/tracing.py labels a solve.
            method, cfg = solver_codes[code], frame.f_locals.get("cfg")
            c = MethodSpec(method).effective_c if cfg is None else cfg.c
            current[:] = method if c is None else f"{method}(c={c:g})", frame
        frame.f_trace_opcodes = True
        return tracer_for(frame.f_globals.get("__name__") or code.co_filename)

    # With the collector off, no gc callback runs Python code mid-count.
    collecting = gc.isenabled()
    gc.disable()
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for unit in units:
            unit()
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return {
        "opcodes": sum(by_module.values()),
        "evaluations": sum(evaluations.values()),
        "by_module": dict(sorted(by_module.items())),
        "by_config": {config: {"opcodes": by_config[config],
                               "evaluations": evaluations[config]}
                      for config in sorted(by_config.keys() | evaluations.keys())},
    }


def main() -> int:
    result = {
        "python": platform.python_version(),
        "random_expr_slice": {"seed": SEED, "targets": WORKLOADS["random-expr"]},
        "workloads": {name: count(warm_units(name, limit))
                      for name, limit in WORKLOADS.items()},
        "first_parse": {"text": FIRST_PARSE, **count(first_parse_units())},
    }
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
