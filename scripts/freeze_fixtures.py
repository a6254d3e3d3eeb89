#!/usr/bin/env python3
"""Regenerate the five frozen fixtures in tests/data.

The tests compare live runs with these files bit for bit:

* ``measured_counts.csv`` — the evaluation count, classification and
  status of each of the seven reference solver configurations
  (``REFERENCE_CONFIGS``) on each of the 20 suite problems
  (``run_benchmark``, default tolerance).
* ``sweep_c_counts.csv`` — every ``(c, mean count)`` sample of
  ``sweep_ratio_c`` over ids 7-20 at its default grid (c = 0.01..0.80,
  80 samples), as exact float ``repr``.
* ``transcript_digests.csv`` — one SHA-256 per suite cell above, plus one
  over all runs of the sweep.  A digest covers every probe of its run(s)
  in evaluation order, as the ``.hex()`` of ``x`` and ``y``.  The counts
  only catch a change in how many probes a run spends; these digests also
  catch a probe that moved by one ulp.
* ``random_transcript_digests.csv`` — one SHA-256 per solver of
  ``scripts/random_harness.py`` (each at its default ratio) over 300
  targets ``a*|x - v|^p + k`` drawn by ``draw_target`` from
  ``random.Random(0)`` with ``Tolerance(max_evaluations=50_000)``.
  Besides every probe it covers every ``bracket_log`` entry and the
  outcome.  Those targets drive ratio-a far deeper into its parabolic
  phase than the suite does.
* ``cli_digests.csv`` — the command line's output: one row per invocation
  in ``CLI_CASES`` (every subcommand in all three formats) with its argv,
  exit code and the SHA-256 of its stdout.

Run with ``PYTHONPATH=src python scripts/freeze_fixtures.py``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib.util
import io
import pathlib
import random
import shlex
import sys
from collections.abc import Iterator

from ratiosect import CountingObjective, Tolerance, benchsuite, cli, parse_expression
from ratiosect.benchsuite import REFERENCE_CONFIGS

CONFIGS = list(REFERENCE_CONFIGS.values())
IDS = range(1, 21)
SWEEP_IDS = range(7, 21)
RANDOM_COUNT = 300
SCRIPTS_DIR = pathlib.Path(__file__).resolve().parent
DATA_DIR = SCRIPTS_DIR.parent / "tests" / "data"

_TARGET = ["--expr", "0.2+abs(x-1.3)^1.5", "--a", "0", "--b", "4"]
_CLI_BASE = [
    *(["minimize", *_TARGET, "--method", m]
      for m in ("bisect", "golden", "ratio-p", "ratio-a", "brent", "brent-m")),
    ["minimize", "--expr", "exp(x)", "--a", "0", "--b", "2", "--method", "ratio-a"],
    ["minimize", *_TARGET, "--method", "brent-m", "--c", "0.3"],
    # Spends the whole budget: exit code 2.
    ["minimize", "--expr", "(x-0.3)^2", "--a", "0", "--b", "1",
     "--method", "ratio-p", "--c", "1e-12"],
    ["bench", "--methods", "bisect,golden,ratio-p,ratio-a,brent,brent-m"],
    ["bench", "--methods", "bisect,golden,ratio-p,ratio-a,brent,brent-m",
     "--compare-paper"],
    # Only some of the selected configurations have reference counts.
    ["bench", "--methods", "bisect,ratio-p,brent,brent-m", "--c", "0.3",
     "--compare-paper"],
    ["bench", "--methods", "golden,ratio-p", "--functions", "1-3,7,12",
     "--eps", "1e-8"],
    ["sweep-c"],
    ["sweep-c", "--fit-degree", "3"],
    ["sweep-j"],
]
#: Every subcommand invocation above, in each output format.
CLI_CASES = [[*argv, "--format", fmt] for argv in _CLI_BASE
             for fmt in ("csv", "markdown", "json-lines")]


@contextlib.contextmanager
def recorded_objectives() -> Iterator[list[CountingObjective]]:
    """Collect, in creation order, every wrapper ``benchsuite`` makes."""
    made: list[CountingObjective] = []

    class Recorded(CountingObjective):
        def __init__(self, target):
            super().__init__(target)
            made.append(self)

    saved = benchsuite.CountingObjective
    benchsuite.CountingObjective = Recorded
    try:
        yield made
    finally:
        benchsuite.CountingObjective = saved


def hash_probes(h, obj: CountingObjective) -> None:
    for p in obj.transcript:
        h.update(f"{p.x.hex()} {p.y.hex()}\n".encode())


def digest(objectives: list[CountingObjective]) -> str:
    h = hashlib.sha256()
    for obj in objectives:
        hash_probes(h, obj)
    return h.hexdigest()


def compute_counts() -> list[tuple[str, int, int, str, str]]:
    """``(config, function id, evaluations, classification, status)`` rows,
    one per suite cell, in ``run_benchmark`` order."""
    report = benchsuite.run_benchmark(CONFIGS, IDS)
    return [(row.method, row.fid, row.evaluations, row.classification, row.status)
            for row in report.rows]


def compute_sweep() -> list[tuple[str, str]]:
    """``(c, mean count)`` rows of the sweep, as exact float ``repr``."""
    samples, _ = benchsuite.sweep_ratio_c(SWEEP_IDS)
    return [(repr(c), repr(mean)) for c, mean in samples]


def compute() -> list[tuple[str, str, str]]:
    """``(config, function ids, sha256)`` rows: one per suite cell, in
    ``run_benchmark`` order, then one for the whole sweep."""
    with recorded_objectives() as made:
        report = benchsuite.run_benchmark(CONFIGS, IDS)
    rows = [(row.method, str(row.fid), digest([obj]))
            for row, obj in zip(report.rows, made, strict=True)]
    with recorded_objectives() as made:
        benchsuite.sweep_ratio_c(SWEEP_IDS)
    rows.append(("sweep_ratio_c", f"{SWEEP_IDS[0]}-{SWEEP_IDS[-1]}", digest(made)))
    return rows


def compute_random(as_text: bool = False) -> list[tuple[str, str]]:
    """``(solver, sha256)`` rows, one per solver of the random harness, in
    its order; each digest covers all targets in draw order.

    With ``as_text``, each target is rendered in the expression language
    as the random-expr benchmark renders it, and the solvers minimize what
    ``parse_expression`` makes of that text."""
    spec = importlib.util.spec_from_file_location(
        "random_harness", SCRIPTS_DIR / "random_harness.py")
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    rng = random.Random(0)
    tol = Tolerance(max_evaluations=50_000)
    targets = [harness.draw_target(rng, tol) for _ in range(RANDOM_COUNT)]
    rows = []
    for name, run in harness.SOLVERS:
        h = hashlib.sha256()
        for f, _, interval, _ in targets:
            if as_text:
                a, p, k, v = f.__defaults__
                f = parse_expression(f"{a!r}*abs(x - {v!r})^{p!r} + {k!r}")
            obj = CountingObjective(f)
            log: list[tuple[float, float]] = []
            out = run(obj, interval, tol, log)
            hash_probes(h, obj)
            for lo, hi in log:
                h.update(f"[{lo.hex()} {hi.hex()}]\n".encode())
            h.update(f"{out.x_min.hex()} {out.f_min.hex()} {out.evaluations} "
                     f"{out.classification.value} {out.status.value}\n".encode())
        rows.append((name, h.hexdigest()))
    return rows


def compute_cli() -> list[tuple[str, str, str]]:
    """``(argv, exit code, sha256 of stdout)`` rows, one per ``CLI_CASES``
    entry."""
    rows = []
    for argv in CLI_CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        rows.append((shlex.join(argv), str(code),
                     hashlib.sha256(out.getvalue().encode()).hexdigest()))
    return rows


def write(name: str, header: list[str], rows: list[tuple]) -> None:
    path = DATA_DIR / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")


def main() -> int:
    write("measured_counts.csv",
          ["config", "function_id", "evaluations", "classification", "status"],
          compute_counts())
    write("sweep_c_counts.csv", ["c", "mean_evaluations"], compute_sweep())
    write("transcript_digests.csv", ["config", "function_id", "sha256"], compute())
    write("random_transcript_digests.csv", ["solver", "sha256"], compute_random())
    write("cli_digests.csv", ["argv", "exit_code", "sha256"], compute_cli())
    return 0


if __name__ == "__main__":
    sys.exit(main())
