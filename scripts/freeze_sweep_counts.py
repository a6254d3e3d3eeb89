#!/usr/bin/env python3
"""Regenerate tests/data/sweep_c_counts.csv.

Runs ``sweep_ratio_c`` over suite ids 7-20 at the default ratio grid
(c = 0.01..0.80, 80 samples) and tolerance, and freezes each
``(c, mean evaluation count)`` sample as an exact float ``repr``.  The
tests compare a live sweep against this file bit for bit, so any change
to ``minimize_ratio_p`` that shifts one count on one problem shows up.

Run with ``PYTHONPATH=src python scripts/freeze_sweep_counts.py``.
"""

from __future__ import annotations

import csv
import pathlib
import sys

from ratiosect import sweep_ratio_c

IDS = range(7, 21)


def main() -> int:
    out_path = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data" / "sweep_c_counts.csv"
    samples, _ = sweep_ratio_c(IDS)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["c", "mean_evaluations"])
        for c, mean in samples:
            writer.writerow([repr(c), repr(mean)])
    total = sum(mean * len(IDS) for _, mean in samples)
    print(f"wrote {out_path} ({len(samples)} samples, {total:.0f} evaluations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
