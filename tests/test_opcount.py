import csv
import json
import shutil
import subprocess
import sys
from collections import Counter

from conftest import DATA_DIR, SRC_DIR, load_script

opcount = load_script("opcount")
ROOT = SRC_DIR.parent


def _measured_totals():
    """measured_counts.csv's evaluation total per configuration."""
    totals = Counter()
    with open(DATA_DIR / "measured_counts.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            totals[row["config"]] += int(row["evaluations"])
    return totals


def _assert_splits_add_up(counted):
    assert sum(counted["by_module"].values()) == counted["opcodes"]
    by_config = counted["by_config"].values()
    assert sum(c["opcodes"] for c in by_config) == counted["opcodes"]
    assert sum(c["evaluations"] for c in by_config) == counted["evaluations"]
    assert counted["by_config"].get(opcount.OUTSIDE, {}).get("evaluations", 0) == 0


def test_suite_pass_counts_are_reproducible_and_split_by_module():
    units = opcount.warm_units("suite")
    first, second = opcount.count(units), opcount.count(units)
    assert first == second
    measured = _measured_totals()
    assert first["evaluations"] == measured.total()
    _assert_splits_add_up(first)
    assert first["by_module"]["ratiosect.core"] > 0
    # measured_counts.csv's column totals, one configuration each.
    assert {config: c["evaluations"] for config, c in first["by_config"].items()} == {
        opcount.OUTSIDE: 0, **measured}


def test_random_expr_slice_counts_are_reproducible_and_split_by_config():
    units = opcount.warm_units("random-expr", 12)
    assert len(units) == 12
    first, second = opcount.count(units), opcount.count(units)
    assert first == second
    _assert_splits_add_up(first)
    # Six solvers per target, and the parsed expressions' own opcodes.
    assert len(first["by_config"]) == 7
    assert first["by_module"]["<expression>"] > 0


def test_first_parse_counts_are_reproducible_and_cover_the_parser():
    units = opcount.first_parse_units()
    first, second = opcount.count(units), opcount.count(units)
    assert first == second
    _assert_splits_add_up(first)
    assert first["evaluations"] == 0
    assert first["by_module"]["ratiosect.expressions"] > 0
    # With the shape cached, the same text is only tokenized.
    from ratiosect.expressions import parse_expression
    cached = opcount.count([lambda: parse_expression(opcount.FIRST_PARSE)])
    assert cached["opcodes"] < first["opcodes"]


def _suite_count_in(tree):
    code = ("import json, sys; sys.path.insert(0, 'scripts'); import opcount; "
            "print(json.dumps(opcount.count(opcount.warm_units('suite'))))")
    done = subprocess.run([sys.executable, "-I", "-c", code], cwd=tree,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_one_extra_statement_in_the_driver_loop_counts_more(tmp_path):
    # A mutation check on two scratch copies of the tree: the same code,
    # and the same code with one statement more in core._drive's loop.
    counts = []
    for mutate in (False, True):
        tree = tmp_path / str(mutate)
        for part in ("src", "bench", "tests/data"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", "results"))
        (tree / "scripts").mkdir()
        shutil.copy(ROOT / "scripts" / "opcount.py", tree / "scripts")
        if mutate:
            core = tree / "src" / "ratiosect" / "core.py"
            loop = "    while True:\n"
            text = core.read_text()
            assert text.count(loop) == 1
            core.write_text(text.replace(loop, loop + "        x = None\n"))
        counts.append(_suite_count_in(tree))
    same, mutated = (run["by_module"] for run in counts)
    assert counts[0]["evaluations"] == counts[1]["evaluations"] == _measured_totals().total()
    assert mutated.pop("ratiosect.core") > same.pop("ratiosect.core")
    assert mutated == same
