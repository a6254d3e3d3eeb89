#!/usr/bin/env python3
"""ratiosect benchmark: one workload, timed closed loop, answers checked.

Run from the repository root::

    python3 bench/run.py --workload suite --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with only the solver calls
timed; ``--trace 1`` runs the workload untraced and then traced for half of
``--seconds`` each, checks that both give the same answers, and reports the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a fuller record (the
per-configuration evaluation totals, every failed solve, the inputs and the
seed) goes to ``bench/results/``.  See ``bench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

#: How often the timed loop re-checks which CPU is fastest.
CPU_CHECK_S = 1.0

#: Fresh interpreters that each time ``import ratiosect`` plus loading the
#: bundled fixtures; ``setup_s`` is their median.
SETUP_RUNS = 15
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ratiosect
ratiosect.benchmark_suite()
for fid in range(1, 21):
    ratiosect.load_reference_minimizer(fid)
print(time.perf_counter() - t0)
"""


def measure_setup() -> float:
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def _calibration_loop() -> float:
    """Seconds for a fixed interpreter loop, best of three."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


class CpuPicker:
    """Keeps the process on whichever allowed CPU runs a fixed calibration
    loop fastest, and restores the original CPU set on exit.  Does nothing
    where affinity cannot be set or only one CPU is allowed."""

    def __init__(self) -> None:
        self.allowed = (sorted(os.sched_getaffinity(0))
                        if hasattr(os, "sched_setaffinity") else [])

    def pick(self) -> None:
        if len(self.allowed) < 2:
            return
        speeds = {}
        try:
            for cpu in self.allowed:
                os.sched_setaffinity(0, {cpu})
                speeds[cpu] = _calibration_loop()
            os.sched_setaffinity(0, {min(speeds, key=speeds.get)})
        except OSError:  # affinity refused: stay wherever the OS puts us
            os.sched_setaffinity(0, self.allowed)
            self.allowed = []

    def __enter__(self) -> "CpuPicker":
        self.pick()
        return self

    def __exit__(self, *exc: object) -> None:
        if len(self.allowed) > 1:
            os.sched_setaffinity(0, self.allowed)


@dataclass
class Phase:
    """Outcome of one closed-loop phase: units run back to back."""

    #: Best (lowest) time of each unit over the phase's passes.
    best_unit_s: list[float]
    busy_s: float = 0.0
    passes: int = 0
    #: Recorded solves of the first full pass (or the reference handed in).
    first: list = field(default_factory=list)
    #: Solves of the trailing partial pass.
    tail: int = 0
    #: Solves whose answer differs from the same solve of the first pass.
    diverged: int = 0

    @property
    def best_pass_s(self) -> float:
        return sum(self.best_unit_s)


def run_phase(workload, log, seconds: float, whole_passes: bool,
              reference: list | None = None) -> Phase:
    """Run units until ``seconds`` have passed and at least one full pass is
    done; with ``whole_passes`` stop only at the end of a pass.  Each pass's
    answers are compared with ``reference`` or else with the first pass.

    Every ``CPU_CHECK_S`` the process moves to the allowed CPU that is
    fastest at that moment: on the shared host one CPU at a time runs slow,
    for a second up to a whole run.  The check runs outside unit timing."""
    units = workload.units
    phase = Phase([math.inf] * len(units), first=reference or [])
    clock = time.perf_counter
    deadline = clock() + seconds
    done = 0
    check_at = clock() + CPU_CHECK_S
    with CpuPicker() as cpus:
        while True:
            i = done % len(units)
            t0 = clock()
            units[i]()
            t1 = clock()
            phase.busy_s += t1 - t0
            phase.best_unit_s[i] = min(phase.best_unit_s[i], t1 - t0)
            done += 1
            end_of_pass = i == len(units) - 1
            if end_of_pass:
                _compare(phase, log.take_pass(), full=True)
            if t1 >= deadline and done >= len(units) and (end_of_pass or not whole_passes):
                break
            if t1 >= check_at:
                cpus.pick()
                check_at = clock() + CPU_CHECK_S
    phase.passes = done // len(units)
    if not end_of_pass:
        tail = log.take_pass()
        phase.tail = len(tail)
        _compare(phase, tail, full=False)
    return phase


def _compare(phase: Phase, solves: list, full: bool) -> None:
    if not phase.first:
        phase.first = solves
        return
    if full and len(solves) != len(phase.first):
        phase.diverged += abs(len(solves) - len(phase.first))
    phase.diverged += sum(
        not a.same_answer(b) for a, b in zip(solves, phase.first)
    )


def count_failed(phase: Phase, failing: list[int]) -> int:
    return phase.passes * len(failing) + sum(i < phase.tail for i in failing)


def end_to_end(phase: Phase, log, setup_s: float, failed: int) -> dict:
    """Timings are each solve's and each unit's best over the passes."""
    evals_per_pass = sum(s.evaluations for s in phase.first)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "solves_per_s": (len(phase.first) / phase.best_pass_s, "1/s"),
        "solve_us_p50": (statistics.median(log.best_us), "us"),
        "solve_us_p99": (statistics.quantiles(log.best_us, n=100)[98], "us"),
        "us_per_eval": (phase.best_pass_s * 1e6 / evals_per_pass, "us"),
        "evals_per_solve": (evals_per_pass / len(phase.first), "evals"),
        "pass_frac": (1.0 - failed / log.attempted, "frac"),
        "rss_peak_mb": (rss_kib / 1024.0, "MB"),
    }


def per_layer(tracer, traced: Phase, untraced: Phase) -> dict:
    from tracing import LAYERS

    n = traced.passes
    calls, self_ns, total_ns = tracer.calls, tracer.self_ns, tracer.total_ns
    counters = tracer.counters

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_pass(name: str) -> tuple[float, str]:
        return calls[name] / n, "count"

    def self_s(name: str) -> tuple[float, str]:
        return self_ns[name] / 1e9 / n, "s"

    flat, mono = "classify.detect_flat_bottom", "classify.detect_monotone"
    metrics = {
        f"{flat}.calls": per_pass(flat),
        f"{flat}.self_s": self_s(flat),
        f"{flat}.points_scanned": (counters["flat_points_scanned"] / n, "count"),
        f"{flat}.hit_ratio": (ratio(counters["flat_hits"], calls[flat]), "ratio"),
        f"{mono}.calls": per_pass(mono),
        f"{mono}.self_s": self_s(mono),
        f"{mono}.confirm_ratio":
            (ratio(counters["monotone_confirmed"], calls[mono]), "ratio"),
        f"{mono}.probe_evals": (counters["monotone_probe_evals"] / n, "count"),
        "target.calls": per_pass("target.call"),
        "target.self_s": self_s("target.call"),
        "target.ns_per_call":
            (ratio(self_ns["target.call"], calls["target.call"]), "ns"),
        "expressions.parse_expression.calls":
            per_pass("expressions.parse_expression"),
        "expressions.parse_expression.us_per_call": (ratio(
            total_ns["expressions.parse_expression"],
            calls["expressions.parse_expression"]) / 1e3, "us"),
        "core.evaluate.calls": per_pass("core.evaluate"),
        "core.evaluate.self_s": self_s("core.evaluate"),
        "core.evaluate.self_ns_per_call":
            (ratio(self_ns["core.evaluate"], calls["core.evaluate"]), "ns"),
        "core.stop_test.calls": per_pass("core.stop_test"),
        "active_search.parabola_vertex.calls":
            per_pass("active_search.parabola_vertex"),
        "polyfit.fit_polynomial.self_s": self_s("polyfit.fit_polynomial"),
    }
    layers = tracer.layer_self_ns()
    for layer in ("section_search", "active_search", "brent", "benchsuite"):
        metrics[f"{layer}.self_s"] = (layers[layer] / 1e9 / n, "s")
    busy_ns = traced.busy_s * 1e9
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (layers[layer] / busy_ns, "frac")
    metrics["bench.share"] = (1.0 - sum(layers.values()) / busy_ns, "frac")
    metrics["trace.overhead_frac"] = (
        traced.best_pass_s / untraced.best_pass_s - 1.0, "frac")
    return metrics


def config_totals(solves: list) -> dict[str, int]:
    totals: dict[str, int] = {}
    for s in solves:
        totals[s.config] = totals.get(s.config, 0) + s.evaluations
    return totals


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite", "sweep-c", "random-expr"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "ratiosect" / "__init__.py").is_file():
        print(f"error: no ratiosect sources under {SRC}", file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    import ratiosect
    from tracing import Patches, SolveLog, Tracer
    from workloads import WORKLOADS

    if Path(ratiosect.__file__).resolve().parent != SRC / "ratiosect":
        print(f"error: imported ratiosect from {ratiosect.__file__}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ROOT, args.seed)

    log = SolveLog()
    with Patches() as patches:
        log.install(patches)
        seconds = args.seconds / 2 if args.trace else args.seconds
        plain = run_phase(workload, log, seconds, whole_passes=False)
    failures, problems = workload.check(plain.first)
    failed_keys = {(f.config, f.problem) for f in failures}
    failing = [i for i, p in enumerate(workload.plan)
               if (p.config, p.problem) in failed_keys]
    attempted = log.attempted
    failed = count_failed(plain, failing)
    if plain.diverged:
        problems.append(f"{plain.diverged} solves of later passes differ from the first")

    if args.trace:
        tracer = Tracer()
        traced_log = SolveLog()
        with Patches() as patches:
            tracer.install(patches)
            traced_log.install(patches)
            traced = run_phase(workload, traced_log, args.seconds / 2,
                               whole_passes=True, reference=plain.first)
        if traced.diverged:
            problems.append(f"{traced.diverged} traced solves differ from the "
                            "untraced run (evaluation count or x_min)")
        attempted += traced_log.attempted
        failed += count_failed(traced, failing)
        metrics = per_layer(tracer, traced, plain)
    else:
        metrics = end_to_end(plain, log, setup_s, failed)

    correct = not problems and all(f.known for f in failures)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": workload.inputs, "passes": plain.passes,
        "solves_per_pass": len(workload.plan),
        "config_evaluation_totals": config_totals(plain.first),
        "failures": [vars(f) | {"known": f.known} for f in failures],
        "problems": problems, **result,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    for f in failures:
        print(f"FAILED {'known' if f.known else 'NEW'} "
              f"{f.workload}/{f.config}/{f.problem}: {f.reason}")
    for p in problems:
        print(f"INVALID {p}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
