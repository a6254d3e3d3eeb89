"""Command-line front end.

Subcommands:

* ``minimize`` — minimize a user-supplied expression on [a, b].
* ``bench`` — evaluation-count comparison over the built-in suite.
* ``sweep-c`` — mean count vs. section ratio, with a smoothing fit.
* ``sweep-j`` — active-search totals for c = 10^(j/2).

Exit codes: 0 success, 1 usage/parse error, 2 non-convergence (or a
benchmark run where every cell failed).  Output goes to stdout or, with
``--out``, to a file; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from operator import itemgetter
from typing import Callable, Sequence

from .benchsuite import (
    METHOD_NAMES,
    MethodSpec,
    _DEFAULT_C,
    benchmark_function,
    run_benchmark,
    solve_one,
    sweep_ratio_a_exponent,
    sweep_ratio_c,
)
from .core import CountingObjective, EvaluationError, Interval, Tolerance
from .expressions import ExpressionError, parse_expression

_FORMATS = ("csv", "markdown", "json-lines")
_BENCH_KEYS = ["method", "function_id", "evaluations", "x_min", "f_min",
               "classification", "status"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # non-convergence, so route all usage problems through exit code 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_function_ids(text: str) -> list[int]:
    """Parse ``1-20`` / ``7,9,12`` / mixed ``1-3,7`` id selections."""
    ids: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"empty id in --functions {text!r}")
        lo_s, sep, hi_s = token.partition("-")
        try:
            if sep:
                lo, hi = int(lo_s), int(hi_s)
                if lo > hi:
                    raise ValueError
                ids.extend(range(lo, hi + 1))
            else:
                ids.append(int(token))
        except ValueError:
            raise ValueError(f"bad id selection {token!r}") from None
    for fid in ids:
        if not 1 <= fid <= 20:
            raise ValueError(f"function id {fid} out of range 1..20")
    return ids


def _parse_method_specs(names: str, c: float | None) -> list[MethodSpec]:
    specs = [MethodSpec(name, c if name in _DEFAULT_C else None)
             for name in map(str.strip, names.split(","))]
    if c is not None and not any(s.name in _DEFAULT_C for s in specs):
        raise ValueError(f"--c requires at least one of {', '.join(_DEFAULT_C)}")
    return specs


def _tolerance(args: argparse.Namespace) -> Tolerance:
    if args.eps <= 0.0 or args.eps >= 1.0:
        raise ValueError(f"--eps must be in (0, 1), got {args.eps!r}")
    return Tolerance(epsilon=args.eps)


def _interval(args: argparse.Namespace) -> Interval:
    if not args.a < args.b:
        raise ValueError(f"need --a < --b, got {args.a!r} and {args.b!r}")
    return Interval(args.a, args.b)


def _fmt(value: float) -> str:
    """Shortest round-trip decimal form, ``.`` separator, no locale."""
    return repr(float(value))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _markdown_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |\n"
    text = line(header)
    text += "|" + "|".join("-" * (w + 2) for w in widths) + "|\n"
    for row in rows:
        text += line(row)
    return text


#: An output column: record key (the csv and json-lines name), markdown
#: header, and markdown cell formatter.
_Column = tuple[str, str, Callable[[object], str]]


def _render(fmt: str, columns: Sequence[_Column],
            records: Sequence[dict[str, object]]) -> str:
    """Format records as csv (floats through :func:`_fmt`, ``None``
    empty), a markdown table, or json-lines (non-finite floats ``null``)."""
    keys = [key for key, _, _ in columns]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        writer.writerows(
            [_fmt(v) if isinstance(v, float) else "" if v is None else v
             for v in map(rec.__getitem__, keys)]
            for rec in records
        )
        return buf.getvalue()
    if fmt == "markdown":
        return _markdown_table(
            [header for _, header, _ in columns],
            [[cell(rec[key]) for key, _, cell in columns] for rec in records],
        )
    return "".join(json.dumps({
        key: None if isinstance(v, float) and not math.isfinite(v) else v
        for key, v in zip(keys, map(rec.__getitem__, keys))
    }) + "\n" for rec in records)


def _cmd_minimize(args: argparse.Namespace) -> int:
    if args.c is not None and args.method not in _DEFAULT_C:
        raise ValueError(f"--c is not valid for method {args.method!r}")
    try:
        expression = parse_expression(args.expr)
    except ExpressionError as exc:
        print(f"expression error: {exc}", file=sys.stderr)
        return 1
    interval = _interval(args)
    tol = _tolerance(args)
    spec = MethodSpec(args.method, args.c)
    obj = CountingObjective(expression)
    try:
        outcome = solve_one(spec, obj, interval, tol)
    except EvaluationError as exc:
        print(f"evaluation error at x = {exc.x!r}: {exc}", file=sys.stderr)
        return 1

    columns: list[_Column] = [("x_min", "x_min", _fmt), ("f_min", "f_min", _fmt)]
    columns += [(k, k, str) for k in ("evaluations", "classification", "status")]
    record = {
        "x_min": outcome.x_min,
        "f_min": outcome.f_min,
        "evaluations": outcome.evaluations,
        "classification": outcome.classification.value,
        "status": outcome.status.value,
    }
    _emit(_render(args.format, columns, [record]), args.out)
    return 0 if outcome.converged else 2


def _bench_markdown(records: list[dict], totals: dict[str, int], compare: bool) -> str:
    """Suite-style layout: functions as rows, methods as columns, with
    total and relative-percentage footer rows (first column = 100%)."""
    columns: dict[str, list[dict]] = {label: [] for label in totals}
    for r in sorted(records, key=itemgetter("function_id")):
        columns[r["method"]].append(r)
    first = next(iter(totals.values()))
    header = ["f"]
    rows = [[str(r["function_id"])] for r in next(iter(columns.values()))]
    sum_row, relat_row = ["Sum k"], ["Relat"]
    for label, cells in columns.items():
        total = totals[label]
        header.append(label)
        sum_row.append(str(total))
        relat_row.append(f"{100.0 * total / first:.1f}%" if first else "-")
        for row, r in zip(rows, cells):
            row.append(f"{r['evaluations']} (failed)" if r["status"] == "failed"
                       else str(r["evaluations"]))
        if compare and cells[0]["reference"] is not None:
            header += [f"{label} ref", f"{label} d"]
            for row, r in zip(rows, cells):
                row += [str(r["reference"]), f"{r['delta']:+d}"]
            ref_total = sum(r["reference"] for r in cells)
            sum_row += [str(ref_total), f"{total - ref_total:+d}"]
            relat_row += ["", ""]
    return _markdown_table(header, rows + [sum_row, relat_row])


def _cmd_bench(args: argparse.Namespace) -> int:
    specs = _parse_method_specs(args.methods, args.c)
    ids = _parse_function_ids(args.functions)
    tol = _tolerance(args)
    report = run_benchmark(specs, ids, tol)
    if all(row.status == "failed" for row in report.rows):
        print("error: every benchmark cell failed", file=sys.stderr)
        return 2
    refs = {s.label: s.reference_key for s in specs}
    records: list[dict[str, object]] = []
    for row in report.rows:
        key = refs[row.method]
        ref = None if key is None else benchmark_function(row.fid).reference_counts[key]
        records.append({**dict(zip(_BENCH_KEYS, row)), "reference": ref,
                        "delta": None if ref is None else row.evaluations - ref})
    if args.format == "markdown":
        _emit(_bench_markdown(records, report.totals, args.compare_paper), args.out)
        return 0
    keys = _BENCH_KEYS + ["reference", "delta"] if args.compare_paper else _BENCH_KEYS
    _emit(_render(args.format, [(k, k, str) for k in keys], records), args.out)
    return 0


def _cmd_sweep_c(args: argparse.Namespace) -> int:
    ids = _parse_function_ids(args.functions)
    tol = _tolerance(args)
    if not 0.0 < args.c_from < args.c_to < 1.0:
        raise ValueError("need 0 < --from < --to < 1")
    if args.c_step <= 0.0:
        raise ValueError("--step must be positive")
    if args.fit_degree < 0:
        raise ValueError("--fit-degree must be nonnegative")
    samples, poly = sweep_ratio_c(
        ids, args.c_from, args.c_to, args.c_step, tol, args.fit_degree
    )
    two_places = "{:.2f}".format
    columns = [("c", "c", two_places), ("mean_evaluations", "mean k", two_places),
               ("smoothed_value", "smoothed", two_places)]
    records = [{"c": c, "mean_evaluations": k, "smoothed_value": poly(c)}
               for c, k in samples]
    _emit(_render(args.format, columns, records), args.out)
    return 0


def _cmd_sweep_j(args: argparse.Namespace) -> int:
    ids = _parse_function_ids(args.functions)
    tol = _tolerance(args)
    if not -15 <= args.j_from <= args.j_to <= -2:
        raise ValueError("need -15 <= --from <= --to <= -2")
    rows = sweep_ratio_a_exponent(ids, args.j_from, args.j_to, tol)
    columns = [("j", "j", str), ("c", "c", "{:g}".format),
               ("total_evaluations", "Sum k", str)]
    records = [{"j": j, "c": c, "total_evaluations": total} for j, c, total in rows]
    _emit(_render(args.format, columns, records), args.out)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--eps", type=float, default=1e-5,
                     help="relative half-width tolerance (default 1e-5)")
    sub.add_argument("--out", help="write output to this file instead of stdout")
    sub.add_argument("--format", choices=_FORMATS, default="csv",
                     help="output format (default csv)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ratiosect",
                     description="Derivative-free univariate minimization.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_min = subs.add_parser("minimize", parents=[], help="minimize an expression")
    p_min.add_argument("--expr", required=True,
                       help="expression in x, e.g. '0.2+(x-1.5)^2'")
    p_min.add_argument("--a", type=float, required=True, help="left endpoint")
    p_min.add_argument("--b", type=float, required=True, help="right endpoint")
    p_min.add_argument("--method", required=True, choices=METHOD_NAMES)
    p_min.add_argument("--c", type=float,
                       help="section ratio (ratio-p, ratio-a, brent-m only)")
    _add_common(p_min)
    p_min.set_defaults(handler=_cmd_minimize)

    p_bench = subs.add_parser("bench", help="run the 20-problem benchmark")
    p_bench.add_argument("--methods", required=True,
                         help="comma list, e.g. bisect,golden,ratio-p")
    p_bench.add_argument("--functions", default="1-20",
                         help="ids as ranges/lists, e.g. 1-20 or 7,9,12")
    p_bench.add_argument("--c", type=float,
                         help="section ratio applied to the ratio-taking methods")
    p_bench.add_argument("--compare-paper", action="store_true",
                         help="add bundled reference counts and per-cell deltas")
    _add_common(p_bench)
    p_bench.set_defaults(handler=_cmd_bench)

    p_sc = subs.add_parser("sweep-c", help="mean count vs. section ratio")
    p_sc.add_argument("--functions", default="1-20")
    p_sc.add_argument("--from", dest="c_from", type=float, default=0.01)
    p_sc.add_argument("--to", dest="c_to", type=float, default=0.80)
    p_sc.add_argument("--step", dest="c_step", type=float, default=0.01)
    p_sc.add_argument("--fit-degree", type=int, default=5,
                      help="degree of the smoothing polynomial (default 5)")
    _add_common(p_sc)
    p_sc.set_defaults(handler=_cmd_sweep_c)

    p_sj = subs.add_parser("sweep-j", help="active-search totals for c = 10^(j/2)")
    p_sj.add_argument("--functions", default="1-20")
    p_sj.add_argument("--from", dest="j_from", type=int, default=-15)
    p_sj.add_argument("--to", dest="j_to", type=int, default=-2)
    _add_common(p_sj)
    p_sj.set_defaults(handler=_cmd_sweep_j)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ValueError as exc:  # a usage check, here or in the library
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
