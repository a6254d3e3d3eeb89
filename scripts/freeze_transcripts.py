#!/usr/bin/env python3
"""Regenerate tests/data/transcript_digests.csv.

Freezes one SHA-256 per run of the seven reference solver configurations
over the 20 suite problems (``run_benchmark``, default tolerance), plus one
over all runs of ``sweep_ratio_c`` on ids 7-20.  A digest covers every
probe of its run(s) in evaluation order, as the ``.hex()`` of ``x`` and
``y``.  The counts files only catch a change in how many probes a run
spends; these digests also catch a probe that moved by one ulp.

Run with ``PYTHONPATH=src python scripts/freeze_transcripts.py``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import pathlib
import sys
from collections.abc import Iterator

from ratiosect import CountingObjective, MethodSpec, benchsuite

CONFIGS = [
    MethodSpec("bisect"),
    MethodSpec("golden"),
    MethodSpec("ratio-p", 0.5),
    MethodSpec("ratio-p", 0.2),
    MethodSpec("ratio-a", 0.001),
    MethodSpec("brent"),
    MethodSpec("brent-m", 0.2),
]
IDS = range(1, 21)
SWEEP_IDS = range(7, 21)
OUT_PATH = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data" / "transcript_digests.csv"


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


def digest(objectives: list[CountingObjective]) -> str:
    h = hashlib.sha256()
    for obj in objectives:
        for p in obj.transcript:
            h.update(f"{p.x.hex()} {p.y.hex()}\n".encode())
    return h.hexdigest()


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


def main() -> int:
    rows = compute()
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    with OUT_PATH.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["config", "function_id", "sha256"])
        writer.writerows(rows)
    print(f"wrote {OUT_PATH} ({len(rows)} digests)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
