#!/usr/bin/env python3
"""Randomized property harness over synthetic strictly unimodal targets.

Each trial draws f(x) = a*|x - v|^p + k (a > 0, p in [1, 6]) on a random
interval containing v, runs every solver, and checks four properties:

* bracketing: every logged uncertainty interval contains v, up to the
  staircase slack described below;
* accuracy: the final minimizer is within the slack of v;
* convergence: no solver exhausts its evaluation budget;
* contraction: ratio-a's logged brackets halve over every window of
  ``2*K + 5`` entries (``K`` its phase-2 guard period) until the run
  ends.  Phase 2's guard halves the bracket within ``K + 3`` probes of
  each check while it is wider than ``8*e0``, and the stop test soon
  follows; phase 1's midpoint sections halve it faster.

In double precision the analytic minimum is surrounded by a staircase:
near v the term a*|x - v|^p underflows relative to ulp(k), so a whole
neighborhood of abscissas shares bit-identical ordinates and no
evaluation-based method can separate them.  The harness measures that
neighborhood empirically — ``staircase_radius`` doubles a probe distance
until the ordinate strictly exceeds the one at distance e0 on both
sides — and allows ``slack = 2 * (radius + 10 * e0(v))``.  Draws whose
staircase is wider than 10*e0(v) are resampled, since such targets are
not strictly unimodal in machine arithmetic to begin with.

Deterministic for a fixed --seed.  Prints each solver's mean and maximum
evaluation count.  Exits 1 if any trial violates a property.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from ratiosect import (
    CountingObjective,
    Interval,
    RatioConfig,
    Tolerance,
    brent_m_minimize,
    brent_minimize,
    e0,
    minimize_bisection,
    minimize_golden,
    minimize_ratio_a,
    minimize_ratio_p,
)
from ratiosect.active_search import _GUARD_PERIOD

#: ratio-a's brackets halve over every window of this many log entries.
HALVING_WINDOW = 2 * _GUARD_PERIOD + 5

SOLVERS = [
    ("bisect", lambda o, iv, t, log: minimize_bisection(o, iv, t, bracket_log=log)),
    ("golden", lambda o, iv, t, log: minimize_golden(o, iv, t, bracket_log=log)),
    ("ratio-p", lambda o, iv, t, log: minimize_ratio_p(
        o, iv, t, RatioConfig(0.2), bracket_log=log)),
    ("ratio-a", lambda o, iv, t, log: minimize_ratio_a(
        o, iv, t, RatioConfig(1e-3), bracket_log=log)),
    ("brent", lambda o, iv, t, log: brent_minimize(o, iv, t, bracket_log=log)),
    ("brent-m", lambda o, iv, t, log: brent_m_minimize(
        o, iv, t, RatioConfig(0.2), bracket_log=log)),
]


def staircase_radius(f, v: float, step: float, width: float) -> float:
    """Smallest probed distance d (doubling from ``step``) at which the
    ordinate strictly exceeds f at distance d on both sides of v.

    Measures how far the bit-identical bottom plateau extends; capped at
    ``width``.
    """
    d = step
    while d < width:
        if f(v + d + step) > f(v + d) and f(v - d - step) > f(v - d):
            return d
        d *= 2.0
    return width


def contracts(log: list[tuple[float, float]]) -> bool:
    """Whether each logged bracket is at most half as wide as the one
    ``HALVING_WINDOW`` entries before it (widths exact)."""
    widths = [Fraction(hi) - Fraction(lo) for lo, hi in log]
    return all(2 * later <= width for width, later in zip(widths, widths[HALVING_WINDOW:]))


def draw_target(rng: random.Random, tol: Tolerance):
    """One conditioned draw: resample until the staircase around the
    minimizer is narrower than 10*e0(v), i.e. the target is strictly
    unimodal in machine arithmetic at the working tolerance."""
    while True:
        a = 10.0 ** rng.uniform(-2, 2)
        p = rng.uniform(1.0, 6.0)
        k = rng.uniform(-5.0, 5.0)
        v = rng.uniform(-10.0, 10.0)
        lo = v - 10.0 ** rng.uniform(-2, 1)
        hi = v + 10.0 ** rng.uniform(-2, 1)

        def f(x: float, a=a, p=p, k=k, v=v) -> float:
            return a * abs(x - v) ** p + k

        tiny = e0(tol, v)
        radius = staircase_radius(f, v, tiny, min(v - lo, hi - v))
        if radius <= 10.0 * tiny:
            return f, v, Interval(lo, hi), radius


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=500,
                        help="number of random targets (default 500)")
    parser.add_argument("--eps", type=float, default=1e-5)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    # The budget is generous: near-degenerate curvatures (p close to 6
    # with small a) force the active solver into tolerance-sized steps.
    tol = Tolerance(epsilon=args.eps, max_evaluations=50_000)

    failures = 0
    evals = {name: 0 for name, _ in SOLVERS}
    worst = dict.fromkeys(evals, 0)
    for trial in range(args.count):
        f, v, interval, radius = draw_target(rng, tol)
        slack = 2.0 * (radius + 10.0 * e0(tol, v))

        for name, run in SOLVERS:
            obj = CountingObjective(f)
            log: list[tuple[float, float]] = []
            out = run(obj, interval, tol, log)
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
    for name, _ in SOLVERS:
        print(f"  {name:8s} mean evaluations {evals[name] / args.count:.1f}, "
              f"max {worst[name]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
