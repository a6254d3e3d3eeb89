"""Seeded conditioned targets ``a*|x - v|^p + k`` for the random-expr workload.

The distribution and the staircase conditioning are those of the
randomized property harness (``scripts/random_harness.py``), copied here so
that edits to the scripts cannot change the workload: for one seed both
draw the same targets in the same order.

In double precision the analytic minimum sits on a staircase: near ``v`` the
term ``a*|x - v|^p`` falls below ``ulp(k)``, so a neighbourhood of abscissas
shares bit-identical ordinates.  :func:`staircase_radius` measures it, and a
draw whose staircase is wider than ``10*e0(v)`` is redrawn, since such a
target is not strictly unimodal in machine arithmetic.  A solve is correct
when ``|x_min - v| <= 2*(radius + 10*e0(v))``.

Each target is rendered in the CLI expression language; :func:`draw_targets`
checks that the parsed text reproduces the Python closure bit for bit at
``lo``, ``hi`` and ``v`` before handing it out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ratiosect import Interval, Tolerance, e0, parse_expression


@dataclass(frozen=True)
class Target:
    text: str
    v: float
    interval: Interval
    slack: float


def staircase_radius(f, v: float, step: float, width: float) -> float:
    """Smallest probed distance d (doubling from ``step``) at which the
    ordinate strictly exceeds f at distance d on both sides of v; capped at
    ``width``."""
    d = step
    while d < width:
        if f(v + d + step) > f(v + d) and f(v - d - step) > f(v - d):
            return d
        d *= 2.0
    return width


def _draw(rng: random.Random, tol: Tolerance):
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
            return f, (a, p, k, v), Interval(lo, hi), radius


def draw_targets(seed: int, count: int, tol: Tolerance) -> list[Target]:
    """``count`` targets drawn from ``random.Random(seed)``.

    Raises ``ValueError`` if a rendered expression does not reproduce its
    closure bit for bit.
    """
    rng = random.Random(seed)
    targets = []
    for _ in range(count):
        f, (a, p, k, v), interval, radius = _draw(rng, tol)
        text = f"{a!r}*abs(x - {v!r})^{p!r} + {k!r}"
        parsed = parse_expression(text)
        for x in (interval.lo, interval.hi, v):
            if parsed(x).hex() != f(x).hex():
                raise ValueError(f"{text!r} at x={x!r}: {parsed(x)!r} != {f(x)!r}")
        slack = 2.0 * (radius + 10.0 * e0(tol, v))
        targets.append(Target(text, v, interval, slack))
    return targets
