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
* ``random_transcript_digests.csv`` — one row per run of each solver of
  ``scripts/random_harness.py`` (``benchsuite``'s six, each at its default
  ratio) on each of the first 300 random-expr targets ``a*|x - v|^p + k``
  of seed 0 (``bench/randexpr.py``, ``Tolerance(max_evaluations=50_000)``),
  each minimized as ``parse_expression`` makes it from its text: the
  target's index in draw order, the evaluation count, classification and
  status, then two digests.  The probe digest covers every probe and the
  returned point, the bracket digest every ``bracket_log`` entry.  Those
  targets drive ratio-a far deeper into its parabolic phase than the
  suite does.  The two digests are the first 16 hex digits of a SHA-256:
  64 bits are plenty to tell one run from another.
* ``cli_digests.csv`` — the command line's output: one row per invocation
  in ``CLI_CASES`` (every subcommand in all three formats) with its argv,
  exit code and the SHA-256 of its stdout.

Run with ``PYTHONPATH=src python scripts/freeze_fixtures.py``.  With
``--diff`` it writes nothing: it prints each row of every fixture whose
live value differs from the frozen one, column by column, and exits 1 if
any row moved.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import pathlib
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


def compute_random() -> list[tuple[str, ...]]:
    """``(solver, target, evaluations, classification, status, probe
    digest, bracket digest)`` rows, one per run: the random harness's
    solvers in its order, each over all targets in draw order, every target
    minimized as ``parse_expression`` makes it from its text."""
    spec = importlib.util.spec_from_file_location(
        "random_harness", SCRIPTS_DIR / "random_harness.py")
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    tol = Tolerance(max_evaluations=50_000)
    targets = [(parse_expression(t.text), t.interval)
               for t in harness.draw_targets(0, RANDOM_COUNT, tol)]
    rows = []
    for name, solve, extra in harness.SOLVERS:
        for i, (f, interval) in enumerate(targets):
            obj = CountingObjective(f)
            log: list[tuple[float, float]] = []
            out = solve(obj, interval, tol, *extra, bracket_log=log)
            probes = hashlib.sha256()
            hash_probes(probes, obj)
            probes.update(f"{out.x_min.hex()} {out.f_min.hex()}\n".encode())
            brackets = hashlib.sha256(
                "".join(f"[{lo.hex()} {hi.hex()}]\n" for lo, hi in log).encode())
            rows.append((name, str(i), str(out.evaluations), out.classification.value,
                         out.status.value, probes.hexdigest()[:16],
                         brackets.hexdigest()[:16]))
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


#: Each fixture: its header, how many leading columns name a row, and the
#: function that computes its rows from live runs.
FIXTURES = {
    "measured_counts.csv": (
        ["config", "function_id", "evaluations", "classification", "status"],
        2, compute_counts),
    "sweep_c_counts.csv": (["c", "mean_evaluations"], 1, compute_sweep),
    "transcript_digests.csv": (["config", "function_id", "sha256"], 2, compute),
    "random_transcript_digests.csv": (
        ["solver", "target", "evaluations", "classification", "status",
         "probes_sha256", "brackets_sha256"],
        2, compute_random),
    "cli_digests.csv": (["argv", "exit_code", "sha256"], 1, compute_cli),
}


def write(name: str, header: list[str], rows: list[tuple]) -> None:
    path = DATA_DIR / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")


def diff(name: str, header: list[str], keys: int, rows: list[tuple]) -> int:
    """Print each row of fixture ``name`` that ``rows`` moves, with the old
    and new value of each column that changed; return how many moved."""
    with (DATA_DIR / name).open(newline="") as handle:
        frozen = {tuple(row[:keys]): tuple(row[keys:])
                  for row in list(csv.reader(handle))[1:]}
    rows = [tuple(map(str, row)) for row in rows]
    live = {row[:keys]: row[keys:] for row in rows}
    moved = 0
    for key in [*frozen, *(key for key in live if key not in frozen)]:
        old, new = frozen.get(key), live.get(key)
        if old == new:
            continue
        moved += 1
        if old is None or new is None:
            change = f"only {'live' if old is None else 'frozen'}: {','.join(old or new)}"
        else:
            change = ", ".join(f"{column} {a} -> {b}" for column, a, b
                               in zip(header[keys:], old, new) if a != b)
        print(f"{name} {','.join(key)}: {change}")
    print(f"{name}: {moved} of {len(frozen)} rows moved")
    return moved


def main(argv: list[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--diff", action="store_true",
                        help="print the moved rows of every fixture; write nothing")
    args = parser.parse_args(argv)
    if args.diff:
        moved = sum(diff(name, header, keys, compute_rows())
                    for name, (header, keys, compute_rows) in FIXTURES.items())
        return 1 if moved else 0
    for name, (header, _, compute_rows) in FIXTURES.items():
        write(name, header, compute_rows())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
