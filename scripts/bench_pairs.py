#!/usr/bin/env python3
"""Paired before/after runs of ``bench/run.py`` from two checkouts.

Runs ``--pairs`` alternating parent/change pairs of every workload that
``BENCHMARK.json`` declares, each run ``run_seconds`` long as it sets,
with the side that runs first alternating from pair to pair.  Writes
``BENCH_<n>.json`` at the root of the change checkout: per end-to-end
metric the medians, inclusive quartiles, the parent's IQR width, how many
pairs the change won, whether the change meets the gain rule and stays
within the metric's bound, and every run's value, plus each run's correctness,
failures and per-configuration evaluation totals (the parent's, and the
change's as well where a pair's two sides differ).  ``--trace-pairs`` adds
that many traced pairs (``--trace 1``, ``TRACE_SECONDS`` long) with every
per-layer metric.  Last, each checkout that has ``scripts/opcount.py`` runs
it once; both JSON outputs go into the file beside the Python version, as
opcode counts compare only under one interpreter.  Each checkout that has
``scripts/linecount.py`` runs it too, and both outputs go in beside them.

Example, from the change checkout with the parent unpacked beside it::

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --number 10 --pairs 10 --trace-pairs 4

Seeds run from ``--first-seed`` (default 1) up, one block per workload in
``BENCHMARK.json`` order, its traced pairs after its untraced ones, so a
claim can be measured on seeds that were not looked at while the change was
written.

Both checkouts' ``bench/results/`` are overwritten as the runs go.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
FIRST_SEED = 1
TRACE_SECONDS = 6.0


def quartiles(values: list[float]) -> list[float]:
    """First and third quartile, inclusive method."""
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(parent: list[float], change: list[float], better: str,
              bound: float) -> dict:
    """One metric over the pairs: ``parent[i]`` and ``change[i]`` are pair
    ``i``.  A pair is a win when the change is strictly better; a tie
    counts for neither side.

    ``gain_rule_met``: the change wins at least 9 pairs in 10 and its
    median moves the better way by more than the parent's IQR width.
    ``within_bound``: the change's median is no worse than the parent's
    by more than ``bound``, a fraction of the parent's median (the
    metric's ``bound`` in ``BENCHMARK.json``).
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    parent_iqr = quartiles(parent)
    parent_iqr_width = parent_iqr[1] - parent_iqr[0]
    gain = sign * (change_median - parent_median)
    return {
        "better": better,
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_iqr": parent_iqr,
        "change_iqr": quartiles(change),
        "parent_iqr_width": parent_iqr_width,
        "change_wins": wins,
        "ties": ties,
        "pairs": len(parent),
        "gain_rule_met": 10 * wins >= 9 * len(parent) and gain > parent_iqr_width,
        "bound": bound,
        "within_bound": gain >= -bound * abs(parent_median),
        "parent_runs": list(parent),
        "change_runs": list(change),
    }


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run in ``tree``: its result line plus the
    evaluation totals from the record it writes."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = tree / "bench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    result["totals"] = json.loads(record.read_text())["config_evaluation_totals"]
    result["values"] = {k: m["value"] for k, m in result["metrics"].items()}
    return result


def run_script(tree: Path, name: str) -> dict | None:
    """``scripts/<name>.py``'s JSON output in ``tree``, or ``None`` if the
    checkout has no such script."""
    if not (tree / "scripts" / f"{name}.py").is_file():
        return None
    done = subprocess.run([sys.executable, f"scripts/{name}.py"], cwd=tree,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def run_pairs(trees: dict[str, Path], workloads: list[str], seeds: dict[str, list[int]],
              seconds: float, trace: int) -> dict[str, list[dict]]:
    """Every workload's pairs, pair ``i`` of each workload before pair
    ``i + 1`` of any, so a slow spell of the host spreads over all."""
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(max(len(s) for s in seeds.values())):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in workloads:
            pair = {"first": order[0], "seed": seeds[w][i]}
            for side in order:
                pair[side] = run_bench(trees[side], w, seeds[w][i], seconds, trace)
                print(f"{w} seed {seeds[w][i]} {side}: correct={pair[side]['correct']}",
                      file=sys.stderr)
            runs[w].append(pair)
    return runs


def workload_summary(pairs: list[dict], seconds: float,
                     metric_specs: dict[str, dict]) -> dict:
    """One workload's pairs; ``metric_specs`` maps each end-to-end metric to
    its ``BENCHMARK.json`` entry (``better`` and ``bound`` are read)."""
    metrics = {name: summarize([p["parent"]["values"][name] for p in pairs],
                               [p["change"]["values"][name] for p in pairs],
                               spec["better"], spec["bound"])
               for name, spec in metric_specs.items()}
    totals = {p["seed"]: p["parent"]["totals"] for p in pairs}
    out = {
        "seconds_per_run": seconds,
        "seeds": [p["seed"] for p in pairs],
        "first_side_per_pair": [p["first"] for p in pairs],
        "metrics": metrics,
        "correct_all_runs": all(p[s]["correct"] for p in pairs for s in SIDES),
        "failed_per_run": {s: [p[s]["failed"] for p in pairs] for s in SIDES},
        "config_totals_identical_in_every_pair":
            all(p["parent"]["totals"] == p["change"]["totals"] for p in pairs),
    }
    if all(t == totals[pairs[0]["seed"]] for t in totals.values()):
        out["config_evaluation_totals_one_pass"] = totals[pairs[0]["seed"]]
    else:
        out["config_evaluation_totals_one_pass_per_seed"] = totals
    if not out["config_totals_identical_in_every_pair"]:
        out["change_config_evaluation_totals_one_pass_per_seed"] = {
            p["seed"]: p["change"]["totals"] for p in pairs}
    return out


def trace_summary(pairs: list[dict], seconds: float, workload: str) -> dict:
    names = pairs[0]["parent"]["values"]
    return {
        "command": f"python3 bench/run.py --workload {workload} --seed S "
                   f"--seconds {seconds:g} --trace 1",
        "seeds": [p["seed"] for p in pairs],
        "correct_all_runs": all(p[s]["correct"] for p in pairs for s in SIDES),
        "metrics": {name: {
            "parent_median": statistics.median(p["parent"]["values"][name] for p in pairs),
            "change_median": statistics.median(p["change"]["values"][name] for p in pairs),
            "parent_runs": [p["parent"]["values"][name] for p in pairs],
            "change_runs": [p["change"]["values"][name] for p in pairs],
        } for name in names},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--number", type=int, required=True,
                        help="n of the BENCH_<n>.json written in the change checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace-pairs", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=FIRST_SEED)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.trace_pairs < 0:
        parser.error("--pairs must be positive and --trace-pairs not negative")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    metric_specs = {m["name"]: m for m in benchmark["end_to_end"]}

    seed = args.first_seed
    seeds, trace_seeds = {}, {}
    for w in workloads:
        seeds[w] = list(range(seed, seed + args.pairs))
        trace_seeds[w] = list(range(seed + args.pairs, seed + args.pairs + args.trace_pairs))
        seed += args.pairs + args.trace_pairs

    out: dict = {
        "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} "
                   "--trace 0, from each checkout; the side that runs first alternates "
                   "by pair (scripts/bench_pairs.py)",
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()} "
                f"{platform.release()}, Python {platform.python_version()}",
        "metric_notes": "medians and quartiles (inclusive method) over the pairs; "
                        "change_wins counts pairs where the change is strictly better; "
                        "ties count for neither side; gain_rule_met: at least 9 wins in "
                        "10 pairs and a median move beyond the parent's IQR width; "
                        "within_bound: the change's median is no worse than the "
                        "parent's by more than bound times the parent's median",
        "workloads": {},
    }
    runs = run_pairs(trees, workloads, seeds, seconds, trace=0)
    for w in workloads:
        out["workloads"][w] = workload_summary(runs[w], seconds, metric_specs)
    if args.trace_pairs:
        traced = run_pairs(trees, workloads, trace_seeds, TRACE_SECONDS, trace=1)
        for w in workloads:
            out["workloads"][w]["per_layer_trace_pairs"] = trace_summary(
                traced[w], TRACE_SECONDS, w)
    out["opcount"] = {"python": platform.python_version(),
                      **{side: run_script(trees[side], "opcount") for side in SIDES}}
    out["linecount"] = {side: run_script(trees[side], "linecount") for side in SIDES}
    path = trees["change"] / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
