#!/usr/bin/env python3
"""Recompute the oracle minimizers and rewrite the fixtures file.

Runs the dense-grid + golden-refinement oracle, :func:`reference_minimizer`,
over all 20 suite problems and replaces the ``minimizer`` records in
``src/ratiosect/data/reference_data.txt``, keeping every other line as it
is.  Slow (tens of millions of evaluations in pure Python) — run it only
when the oracle or a problem definition changes.
"""

from __future__ import annotations

import math
import pathlib
import sys
import time
from typing import Callable

from ratiosect.benchsuite import benchmark_function
from ratiosect.core import Interval
from ratiosect.section_search import GOLDEN_RATIO

DATA = (
    pathlib.Path(__file__).resolve().parent.parent
    / "src" / "ratiosect" / "data" / "reference_data.txt"
)


def _golden_refine(
    f: Callable[[float], float], a: float, b: float, width: float = 1e-12
) -> float:
    x1 = b - GOLDEN_RATIO * (b - a)
    x2 = a + GOLDEN_RATIO * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > width:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN_RATIO * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN_RATIO * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def _edge_bisect(
    f: Callable[[float], float],
    inside: float,
    outside: float,
    level: float,
    iterations: int = 80,
) -> float:
    """Boundary of the region where ``f(x) == level`` exactly, between a
    point inside it and a point outside it."""
    for _ in range(iterations):
        mid = 0.5 * (inside + outside)
        if mid == inside or mid == outside:
            break
        if f(mid) == level:
            inside = mid
        else:
            outside = mid
    return inside


def reference_minimizer(
    fid: int, grid_points: int = 1_000_000
) -> tuple[float, float, Interval | None]:
    """Independent oracle: dense grid scan plus golden refinement.

    Scans ``grid_points + 1`` equispaced abscissas (endpoints exact),
    tracking the bit-exact minimum ordinate.  Three or more grid points
    sharing the minimum mean a plateau: its edges are located by bisection
    and the plateau interval is returned alongside its midpoint.  A
    singleton (or a symmetric tie pair) is refined by golden section down
    to an interval of width 1e-12; a minimum on an interval endpoint is
    returned as that exact endpoint.
    """
    bf = benchmark_function(fid)
    f = bf.evaluator
    lo, hi = bf.interval.lo, bf.interval.hi
    n = grid_points
    h = (hi - lo) / n

    best_y = math.inf
    first = last = -1
    hits = 0
    for i in range(n + 1):
        if i == 0:
            x = lo
        elif i == n:
            x = hi
        else:
            x = lo + i * h
        y = f(x)
        if y < best_y:
            best_y = y
            first = last = i
            hits = 1
        elif y == best_y:
            last = i
            hits += 1

    def grid_x(i: int) -> float:
        if i <= 0:
            return lo
        if i >= n:
            return hi
        return lo + i * h

    if hits >= 3:
        # A genuine plateau.  Its edges lie between the outermost hits and
        # their non-hit neighbors.
        left = grid_x(first)
        if first > 0:
            left = _edge_bisect(f, left, grid_x(first - 1), best_y)
        right = grid_x(last)
        if last < n:
            right = _edge_bisect(f, right, grid_x(last + 1), best_y)
        plateau = Interval(left, right)
        return plateau.midpoint, best_y, plateau

    if first == 0 and last == 0:
        return lo, best_y, None
    if first == n and last == n:
        return hi, best_y, None
    x_star = _golden_refine(f, grid_x(first - 1), grid_x(last + 1))
    return x_star, f(x_star), None


def main() -> int:
    lines = DATA.read_text().splitlines()
    kept = [ln for ln in lines if not ln.startswith("minimizer ")]

    records = []
    for fid in range(1, 21):
        t0 = time.perf_counter()
        x_star, f_star, plateau = reference_minimizer(fid)
        dt = time.perf_counter() - t0
        if plateau is None:
            plo = phi = "-"
        else:
            plo, phi = repr(plateau.lo), repr(plateau.hi)
        records.append(f"minimizer {fid} {x_star!r} {f_star!r} {plo} {phi}")
        print(f"id {fid:2d}: x* = {x_star!r:>25}  f* = {f_star!r:>25}  "
              f"plateau = {plo}..{phi}  ({dt:.1f}s)", file=sys.stderr)

    DATA.write_text("\n".join(kept + records) + "\n")
    print(f"wrote {len(records)} minimizer records to {DATA}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
