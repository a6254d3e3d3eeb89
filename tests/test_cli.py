import csv
import io
import json
import subprocess
import sys

import pytest

from ratiosect.cli import main

from conftest import DATA_DIR, load_script


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# ------------------------------------------------------------------ minimize

def test_minimize_quadratic(capsys):
    code, out, err = run_cli(
        capsys, "minimize", "--expr", "0.2 + (x - 1.5)^2",
        "--a", "0", "--b", "4", "--method", "brent",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert list(row) == ["x_min", "f_min", "evaluations", "classification", "status"]
    assert abs(float(row["x_min"]) - 1.5) < 1e-3
    assert row["status"] == "converged"
    assert int(row["evaluations"]) > 0


def test_minimize_json_lines(capsys):
    code, out, _ = run_cli(
        capsys, "minimize", "--expr", "x^2", "--a", "-1", "--b", "1",
        "--method", "golden", "--format", "json-lines",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 1
    assert abs(records[0]["x_min"]) < 1e-3
    assert records[0]["status"] == "converged"


def test_minimize_markdown(capsys):
    code, out, _ = run_cli(
        capsys, "minimize", "--expr", "x^2", "--a", "-1", "--b", "1",
        "--method", "bisect", "--format", "markdown",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("| x_min")
    assert set(lines[1]) <= {"|", "-"}


def test_minimize_recognizes_monotone(capsys):
    code, out, _ = run_cli(
        capsys, "minimize", "--expr", "exp(x)", "--a", "0", "--b", "3",
        "--method", "ratio-p",
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert row["classification"] == "monotone_increasing"
    assert float(row["x_min"]) == 0.0
    assert int(row["evaluations"]) == 6


def test_minimize_budget_exhaustion_exit_2(capsys):
    # c just under 1 probes next to the far endpoint, so the bracket
    # shrinks by a sliver per evaluation and the default budget runs out.
    code, out, _ = run_cli(
        capsys, "minimize", "--expr", "(x-0.5)^2", "--a", "0", "--b", "1",
        "--method", "ratio-p", "--c", "0.999",
    )
    assert code == 2
    assert parse_csv(out)[0]["status"] == "budget_exhausted"


def test_minimize_expression_error_exit_1(capsys):
    code, out, err = run_cli(
        capsys, "minimize", "--expr", "2 +* x", "--a", "0", "--b", "1",
        "--method", "golden",
    )
    assert code == 1
    assert out == ""
    assert "expression error" in err


def test_minimize_expression_nested_too_deeply_exit_1():
    # Too deep for the parser's recursion: an expression error, not a
    # traceback from the interpreter.
    expr = "(" * 1000 + "x" + ")" * 1000
    proc = subprocess.run(
        [sys.executable, "-m", "ratiosect", "minimize", "--expr", expr,
         "--a", "0", "--b", "1", "--method", "golden"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("expression error: expression nested too deeply")
    assert "Traceback" not in proc.stderr


def test_minimize_evaluation_error_exit_1(capsys):
    code, _, err = run_cli(
        capsys, "minimize", "--expr", "1/x", "--a", "-1", "--b", "1",
        "--method", "ratio-p",
    )
    assert code == 1
    assert "evaluation error" in err


def test_minimize_rejects_c_for_parameterless_method(capsys):
    code, _, err = run_cli(
        capsys, "minimize", "--expr", "x^2", "--a", "-1", "--b", "1",
        "--method", "bisect", "--c", "0.3",
    )
    assert code == 1
    assert "error" in err


def test_minimize_rejects_empty_interval(capsys):
    code, _, err = run_cli(
        capsys, "minimize", "--expr", "x^2", "--a", "1", "--b", "1",
        "--method", "golden",
    )
    assert code == 1
    assert "--a < --b" in err


def test_minimize_rejects_bad_eps(capsys):
    code, _, err = run_cli(
        capsys, "minimize", "--expr", "x^2", "--a", "-1", "--b", "1",
        "--method", "golden", "--eps", "2.0",
    )
    assert code == 1
    assert "--eps" in err


def test_unknown_method_exits_1(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["minimize", "--expr", "x^2", "--a", "0", "--b", "1",
              "--method", "newton"])
    assert exc_info.value.code == 1


# --------------------------------------------------------------------- bench

def test_bench_csv_schema(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--methods", "bisect,golden", "--functions", "1-3",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 6
    assert list(rows[0]) == [
        "method", "function_id", "evaluations", "x_min", "f_min",
        "classification", "status",
    ]
    assert {r["method"] for r in rows} == {"bisect", "golden"}
    assert [int(r["function_id"]) for r in rows if r["method"] == "bisect"] == [1, 2, 3]


def test_bench_compare_paper_columns(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--methods", "golden", "--functions", "7",
        "--compare-paper",
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert "reference" in row and "delta" in row
    assert int(row["delta"]) == int(row["evaluations"]) - int(row["reference"])


def test_bench_ratio_method_c_applied(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--methods", "ratio-p", "--functions", "12",
        "--c", "0.5",
    )
    assert code == 0
    assert parse_csv(out)[0]["method"] == "ratio-p(c=0.5)"


def test_bench_markdown_layout(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--methods", "bisect,golden", "--functions", "1-3",
        "--format", "markdown",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("| f")
    assert "bisect" in lines[0] and "golden" in lines[0]
    assert any(line.startswith("| Sum k") for line in lines)
    relat = next(line for line in lines if line.startswith("| Relat"))
    assert "100.0%" in relat


def test_bench_json_lines(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--methods", "brent", "--functions", "12",
        "--format", "json-lines",
    )
    assert code == 0
    record = json.loads(out.splitlines()[0])
    assert record["method"] == "brent"
    assert record["function_id"] == 12
    assert record["status"] == "converged"


def test_bench_function_selection_forms(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--methods", "golden", "--functions", "1-3,7,9",
    )
    assert code == 0
    assert [int(r["function_id"]) for r in parse_csv(out)] == [1, 2, 3, 7, 9]


@pytest.mark.parametrize("selection", ["0", "5-2", "abc", "21", ""])
def test_bench_bad_function_selection(capsys, selection):
    code, _, err = run_cli(
        capsys, "bench", "--methods", "golden", "--functions", selection,
    )
    assert code == 1
    assert "error" in err


def test_bench_unknown_method_name(capsys):
    code, _, err = run_cli(
        capsys, "bench", "--methods", "golden,cauchy", "--functions", "1",
    )
    assert code == 1
    assert "cauchy" in err


def test_bench_c_without_ratio_method(capsys):
    code, _, err = run_cli(
        capsys, "bench", "--methods", "bisect", "--functions", "1", "--c", "0.2",
    )
    assert code == 1
    assert "--c" in err


@pytest.mark.parametrize("methods, functions, repeated", [
    ("golden,golden", "7,12", "method 'golden'"),
    ("golden,bisect", "7,7,12", "function id 7"),
    ("golden", "7-9,8", "function id 8"),
])
def test_bench_rejects_a_repeated_method_or_id(capsys, methods, functions, repeated):
    # Each cell would count twice in its method's total.
    code, out, err = run_cli(
        capsys, "bench", "--methods", methods, "--functions", functions,
        "--format", "markdown", "--compare-paper",
    )
    assert (code, out, err) == (1, "", f"error: repeated {repeated}\n")


def test_bench_out_file_and_determinism(capsys, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for path in (first, second):
        code, out, _ = run_cli(
            capsys, "bench", "--methods", "bisect,ratio-p", "--functions",
            "7-9", "--compare-paper", "--out", str(path),
        )
        assert code == 0
        assert out == ""  # everything went to the file
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().startswith(b"method,function_id,")


# -------------------------------------------------------------------- sweeps

def test_sweep_c_csv(capsys):
    code, out, _ = run_cli(
        capsys, "sweep-c", "--functions", "12", "--from", "0.1",
        "--to", "0.2", "--step", "0.05", "--fit-degree", "1",
    )
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0]) == ["c", "mean_evaluations", "smoothed_value"]
    assert [round(float(r["c"]), 2) for r in rows] == [0.1, 0.15, 0.2]


def test_sweep_c_rejects_bad_range(capsys):
    code, _, err = run_cli(
        capsys, "sweep-c", "--functions", "12", "--from", "0.5", "--to", "0.2",
    )
    assert code == 1
    assert "--from" in err


def test_sweep_j_csv(capsys):
    code, out, _ = run_cli(
        capsys, "sweep-j", "--functions", "12", "--from", "-4", "--to", "-2",
    )
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0]) == ["j", "c", "total_evaluations"]
    assert [int(r["j"]) for r in rows] == [-4, -3, -2]
    assert float(rows[0]["c"]) == 10.0 ** (-4 / 2)


def test_sweep_j_rejects_bad_range(capsys):
    code, _, err = run_cli(
        capsys, "sweep-j", "--functions", "12", "--from", "-1", "--to", "-1",
    )
    assert code == 1


def test_sweep_determinism(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "sweep-c", "--functions", "7,12", "--from", "0.1",
            "--to", "0.3", "--step", "0.1", "--fit-degree", "1",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_cli_output_digests_regression():
    # The stdout bytes and exit code of every subcommand in all three
    # formats, frozen as SHA-256 digests (scripts/freeze_fixtures.py
    # writes the file).  The schema tests above check fields; this checks
    # every byte.
    script = load_script("freeze_fixtures")
    with open(DATA_DIR / "cli_digests.csv", newline="") as fh:
        frozen = [tuple(row) for row in csv.reader(fh)][1:]
    assert len(frozen) == 48
    assert script.compute_cli() == frozen


# ------------------------------------------------------------- entry points

def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ratiosect", "minimize", "--expr", "x^2",
         "--a", "-1", "--b", "1", "--method", "brent"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("x_min,")


def test_missing_subcommand_exits_1():
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 1
