#!/usr/bin/env python3
"""Randomized property harness over synthetic strictly unimodal targets.

Each trial takes one target f(x) = a*|x - v|^p + k (a > 0, p in [1, 6])
on a random interval containing v, as the random-expr benchmark draws and
renders it (``bench/randexpr.py``), runs each of ``benchsuite``'s six
solvers at its default ratio on what ``parse_expression`` makes of the
text, and checks four properties:

* bracketing: every logged uncertainty interval contains v, up to the
  target's staircase slack;
* accuracy: the final minimizer is within the slack of v;
* convergence: no solver exhausts its evaluation budget;
* contraction: ratio-a's logged brackets halve over every window of
  ``2*K + 5`` entries (``K`` its phase-2 guard period) until the run
  ends.  Phase 2's guard halves the bracket within ``K + 3`` probes of
  each check while it is wider than ``8*e0``, and the stop test soon
  follows; phase 1's midpoint sections halve it faster.

In double precision the analytic minimum is surrounded by a staircase of
bit-identical ordinates that no evaluation-based method can separate;
``bench/randexpr.py`` measures it, redraws targets whose staircase is
wider than 10*e0(v), and sets each target's slack from it.

Deterministic for a fixed --seed.  Prints each solver's mean and maximum
evaluation count.  Exits 1 if any trial violates a property.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from ratiosect import CountingObjective, MethodSpec, Tolerance, parse_expression
from ratiosect.active_search import _GUARD_PERIOD
from ratiosect.benchsuite import METHOD_NAMES, _solver

BENCH_DIR = str(Path(__file__).resolve().parent.parent / "bench")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)
from randexpr import draw_targets  # noqa: E402

#: ratio-a's brackets halve over every window of this many log entries.
HALVING_WINDOW = 2 * _GUARD_PERIOD + 5
#: ``(name, solver, its arguments after (obj, interval, tol))`` for each of
#: ``benchsuite``'s methods at its default ratio, as ``run_benchmark`` runs it.
SOLVERS = [(name, *_solver(MethodSpec(name))) for name in METHOD_NAMES]


def contracts(log: list[tuple[float, float]]) -> bool:
    """Whether each logged bracket is at most half as wide as the one
    ``HALVING_WINDOW`` entries before it (widths exact)."""
    widths = [Fraction(hi) - Fraction(lo) for lo, hi in log]
    return all(2 * later <= width for width, later in zip(widths, widths[HALVING_WINDOW:]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=500,
                        help="number of random targets (default 500)")
    parser.add_argument("--eps", type=float, default=1e-5)
    args = parser.parse_args()

    # The budget is generous: near-degenerate curvatures (p close to 6
    # with small a) force the active solver into tolerance-sized steps.
    tol = Tolerance(epsilon=args.eps, max_evaluations=50_000)
    targets = draw_targets(args.seed, args.count, tol)

    failures = 0
    evals = dict.fromkeys(METHOD_NAMES, 0)
    worst = dict.fromkeys(METHOD_NAMES, 0)
    for trial, target in enumerate(targets):
        f = parse_expression(target.text)
        v, interval, slack = target.v, target.interval, target.slack
        for name, solve, extra in SOLVERS:
            obj = CountingObjective(f)
            log: list[tuple[float, float]] = []
            out = solve(obj, interval, tol, *extra, bracket_log=log)
            evals[name] += out.evaluations
            worst[name] = max(worst[name], out.evaluations)
            bad_bracket = any(
                not (blo - slack <= v <= bhi + slack) for blo, bhi in log
            )
            off = abs(out.x_min - v) > slack
            slow = name == "ratio-a" and not contracts(log)
            if bad_bracket or off or slow or not out.converged:
                failures += 1
                print(f"trial {trial} {name}: v={v!r} "
                      f"[{interval.lo!r}, {interval.hi!r}] "
                      f"x_min={out.x_min!r} slack={slack!r} "
                      f"bracket_violation={bad_bracket} off_target={off} "
                      f"slow_contraction={slow} status={out.status.value}")

    print(f"{args.count} targets x {len(SOLVERS)} solvers, "
          f"{failures} violations")
    for name in METHOD_NAMES:
        print(f"  {name:8s} mean evaluations {evals[name] / args.count:.1f}, "
              f"max {worst[name]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
