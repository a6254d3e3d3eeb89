import json
import platform
from types import SimpleNamespace

import pytest

from conftest import load_script

pairs_script = load_script("bench_pairs")


def test_summary_of_a_higher_is_better_metric():
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [11.0, 12.0, 10.0, 14.0, 12.0]
    assert pairs_script.summarize(parent, change, "higher", 0.25) == {
        "better": "higher",
        "parent_median": 11.0,
        "change_median": 12.0,
        "parent_iqr": [10.0, 12.0],
        "change_iqr": [11.0, 12.0],
        "parent_iqr_width": 2.0,
        "change_wins": 3,
        "ties": 1,
        "pairs": 5,
        "gain_rule_met": False,
        "bound": 0.25,
        "within_bound": True,
        "parent_runs": parent,
        "change_runs": change,
    }


def test_summary_of_a_lower_is_better_metric_interpolates_quartiles():
    summary = pairs_script.summarize([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 4.0, 3.0], "lower",
                                     0.1)
    assert summary["parent_median"] == 2.5
    assert summary["parent_iqr"] == [1.75, 3.25]
    assert summary["parent_iqr_width"] == 1.5
    assert summary["change_iqr"] == [1.0, 3.25]
    assert (summary["change_wins"], summary["ties"]) == (2, 1)


def test_summary_of_one_pair():
    summary = pairs_script.summarize([5.0], [4.0], "lower", 0.1)
    assert summary["parent_iqr"] == [5.0, 5.0]
    assert summary["parent_iqr_width"] == 0.0
    assert summary["change_wins"] == 1


PARENT_10 = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


@pytest.mark.parametrize("better, move, wins, met", [
    # The median moves 5.0 against a parent IQR width of 4.5.
    ("higher", 5.0, 10, True),
    ("lower", 5.0, 10, True),
    # Nine wins in ten pairs are enough.
    ("higher", 5.0, 9, True),
    # Eight are not, however far the median moves.
    ("higher", 50.0, 8, False),
    # Ten wins, but a median move of 4.0 is inside the IQR width.
    ("lower", 4.0, 10, False),
    # Every pair lost.
    ("higher", 5.0, 0, False),
])
def test_gain_rule_needs_nine_wins_in_ten_and_a_move_beyond_the_iqr(
        better, move, wins, met):
    step = move if better == "higher" else -move
    # The change loses the first 10 - wins pairs and wins the rest.
    change = [p - step if i < 10 - wins else p + step
              for i, p in enumerate(PARENT_10)]
    summary = pairs_script.summarize(PARENT_10, change, better, 0.25)
    assert summary["parent_iqr_width"] == 4.5
    assert summary["change_wins"] == wins
    assert summary["gain_rule_met"] is met


@pytest.mark.parametrize("better, change_median, within", [
    ("higher", 80.0, True),   # 20 % worse against a 25 % bound
    ("higher", 75.0, True),   # exactly at the bound
    ("higher", 74.0, False),
    ("higher", 130.0, True),  # better is always within
    ("lower", 125.0, True),
    ("lower", 126.0, False),
    ("lower", 50.0, True),
])
def test_within_bound_is_relative_to_the_parent_median(better, change_median, within):
    summary = pairs_script.summarize([100.0] * 3, [change_median] * 3, better, 0.25)
    assert summary["within_bound"] is within


BETTER = {"solves_per_s": {"better": "higher", "bound": 0.25},
          "us_per_eval": {"better": "lower", "bound": 0.25}}


def _run(value, totals, correct=True):
    values = dict.fromkeys(BETTER, value)
    return {"values": values, "totals": totals, "correct": correct, "failed": 0}


@pytest.mark.parametrize("same_totals", [True, False])
def test_workload_summary_folds_equal_totals(same_totals):
    pairs = [{"seed": seed, "first": first,
              "parent": _run(1.0, {"bisect": 10 if same_totals else seed}),
              "change": _run(2.0, {"bisect": 10 if same_totals else seed})}
             for seed, first in ((7, "parent"), (8, "change"))]
    out = pairs_script.workload_summary(pairs, 3.0, BETTER)
    assert out["seeds"] == [7, 8]
    assert out["first_side_per_pair"] == ["parent", "change"]
    assert out["correct_all_runs"] and out["config_totals_identical_in_every_pair"]
    assert out["metrics"]["solves_per_s"]["change_wins"] == 2
    assert out["metrics"]["us_per_eval"]["change_wins"] == 0
    assert out["metrics"]["solves_per_s"]["within_bound"]
    assert not out["metrics"]["us_per_eval"]["within_bound"]
    if same_totals:
        assert out["config_evaluation_totals_one_pass"] == {"bisect": 10}
    else:
        assert out["config_evaluation_totals_one_pass_per_seed"] == {
            7: {"bisect": 7}, 8: {"bisect": 8}}
    assert "change_config_evaluation_totals_one_pass_per_seed" not in out


def test_workload_summary_records_the_change_totals_that_moved():
    # A change that moves a count: the parent's totals fold as before, and
    # the change's are recorded per seed beside them.
    pairs = [{"seed": seed, "first": "parent",
              "parent": _run(1.0, {"bisect": 10, "golden": 8}),
              "change": _run(2.0, {"bisect": 10, "golden": seed})}
             for seed in (7, 8)]
    out = pairs_script.workload_summary(pairs, 3.0, BETTER)
    assert not out["config_totals_identical_in_every_pair"]
    assert out["config_evaluation_totals_one_pass"] == {"bisect": 10, "golden": 8}
    assert out["change_config_evaluation_totals_one_pass_per_seed"] == {
        7: {"bisect": 10, "golden": 7}, 8: {"bisect": 10, "golden": 8}}


def _fake_run(cmd, cwd, **kwargs):
    """``subprocess.run`` of one ``bench/run.py`` or ``scripts/opcount.py``
    run: the change side is twice as fast, and its record says so too."""
    assert kwargs["check"] and kwargs["capture_output"]
    if cmd[1] == "scripts/opcount.py":
        return SimpleNamespace(stdout=json.dumps({"python": "3.x", "tree": cwd.name}))
    if cmd[1] == "scripts/linecount.py":
        return SimpleNamespace(stdout=json.dumps({"total": {"code": 1}, "tree": cwd.name}))
    args = dict(zip(cmd[2::2], cmd[3::2]))
    record = (cwd / "bench" / "results" /
              f"{args['--workload']}-seed{args['--seed']}-trace{args['--trace']}.json")
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"config_evaluation_totals": {"bisect": 10}}))
    value = 2.0 if cwd.name == "change" else 1.0
    line = {"correct": True, "failed": 0, "metrics": {"solves_per_s": {"value": value}}}
    return SimpleNamespace(stdout="warming up\n" + json.dumps(line) + "\n")


@pytest.mark.parametrize("with_parent_opcount", [True, False])
def test_main_records_both_opcounts_beside_the_pairs(tmp_path, monkeypatch,
                                                     with_parent_opcount):
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for side, tree in trees.items():
        if side == "change" or with_parent_opcount:
            (tree / "scripts").mkdir(parents=True)
            (tree / "scripts" / "opcount.py").write_text("")
            (tree / "scripts" / "linecount.py").write_text("")
        tree.mkdir(exist_ok=True)
    (trees["change"] / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "solves_per_s", "better": "higher", "bound": 0.25}],
    }))
    monkeypatch.setattr(pairs_script.subprocess, "run", _fake_run)
    assert pairs_script.main(["--parent", str(trees["parent"]), "--change",
                              str(trees["change"]), "--number", "3", "--pairs", "2"]) == 0
    out = json.loads((trees["change"] / "BENCH_3.json").read_text())
    assert out["opcount"] == {
        "python": platform.python_version(),
        "parent": {"python": "3.x", "tree": "parent"} if with_parent_opcount else None,
        "change": {"python": "3.x", "tree": "change"},
    }
    assert out["linecount"] == {
        "parent": ({"total": {"code": 1}, "tree": "parent"}
                   if with_parent_opcount else None),
        "change": {"total": {"code": 1}, "tree": "change"},
    }
    summary = out["workloads"]["w"]
    assert summary["seeds"] == [1, 2]
    assert summary["metrics"]["solves_per_s"]["change_wins"] == 2
    assert summary["config_totals_identical_in_every_pair"]


def test_main_runs_its_seeds_from_the_first_seed(tmp_path, monkeypatch):
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for tree in trees.values():
        tree.mkdir()
    (trees["change"] / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}, {"name": "v"}],
        "end_to_end": [{"name": "solves_per_s", "better": "higher", "bound": 0.25}],
    }))
    monkeypatch.setattr(pairs_script.subprocess, "run", _fake_run)
    assert pairs_script.main(["--parent", str(trees["parent"]), "--change",
                              str(trees["change"]), "--number", "3", "--pairs", "2",
                              "--first-seed", "501"]) == 0
    out = json.loads((trees["change"] / "BENCH_3.json").read_text())
    assert out["workloads"]["w"]["seeds"] == [501, 502]
    assert out["workloads"]["v"]["seeds"] == [503, 504]
