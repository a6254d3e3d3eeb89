#!/usr/bin/env python3
"""Count the Python opcodes and evaluations of one benchmark pass.

Runs one pass of the ``suite`` and ``sweep-c`` workloads' units, built
by ``bench/workloads.py``, under ``sys.settrace`` with opcode events on
(``f_trace_opcodes``).  Each opcode is counted against the module of the
code object that executes it; an evaluation is a call of
``CountingObjective.evaluate``.  One untraced pass runs first, so that
imports and caches are warm and every counted pass does the same work.

The count does not depend on the host's load or clock, so two runs of
the same tree under the same interpreter agree exactly.  It sees only
Python bytecode: work done in C (``sorted``, ``float()``, ``math``) is
one opcode per call, however long it takes, so a change that moves work
into C looks free here.  Put the count beside the timings of
``bench/run.py``, never in their place.  Bytecode differs between Python
versions, so counts compare only under one interpreter.

Prints JSON: the Python version, and per workload the total opcodes,
the evaluations and the opcodes per module::

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
WORKLOADS = ("suite", "sweep-c")
#: ``bench/workloads.py`` takes a seed; these two workloads do not use it.
SEED = 1


def warm_units(name: str) -> list[Callable[[], object]]:
    """The units of one pass of workload ``name``, each run once."""
    for path in (ROOT / "bench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from workloads import WORKLOADS as BUILDERS

    units = BUILDERS[name](ROOT, SEED).units
    for unit in units:
        unit()
    return units


def count(units: Iterable[Callable[[], object]]) -> dict:
    """Opcodes and evaluations of calling each of ``units`` once, traced."""
    from ratiosect import CountingObjective

    evaluate_code = CountingObjective.evaluate.__code__
    by_module: Counter[str] = Counter()
    evaluations = 0
    tracers: dict[str, Callable] = {}

    def tracer_for(module: str) -> Callable:
        def trace(frame, event, arg):
            if event == "opcode":
                by_module[module] += 1
            return trace
        return tracers.setdefault(module, trace)

    def on_call(frame, event, arg):
        nonlocal evaluations
        if frame.f_code is evaluate_code:
            evaluations += 1
        frame.f_trace_opcodes = True
        return tracer_for(frame.f_globals.get("__name__", "?"))

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
        "evaluations": evaluations,
        "by_module": dict(sorted(by_module.items())),
    }


def main() -> int:
    result = {
        "python": platform.python_version(),
        "workloads": {name: count(warm_units(name)) for name in WORKLOADS},
    }
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
