import pytest

from conftest import load_script

pairs_script = load_script("bench_pairs")


def test_summary_of_a_higher_is_better_metric():
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [11.0, 12.0, 10.0, 14.0, 12.0]
    assert pairs_script.summarize(parent, change, "higher") == {
        "better": "higher",
        "parent_median": 11.0,
        "change_median": 12.0,
        "parent_iqr": [10.0, 12.0],
        "change_iqr": [11.0, 12.0],
        "parent_iqr_width": 2.0,
        "change_wins": 3,
        "ties": 1,
        "pairs": 5,
        "parent_runs": parent,
        "change_runs": change,
    }


def test_summary_of_a_lower_is_better_metric_interpolates_quartiles():
    summary = pairs_script.summarize([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 4.0, 3.0], "lower")
    assert summary["parent_median"] == 2.5
    assert summary["parent_iqr"] == [1.75, 3.25]
    assert summary["parent_iqr_width"] == 1.5
    assert summary["change_iqr"] == [1.0, 3.25]
    assert (summary["change_wins"], summary["ties"]) == (2, 1)


def test_summary_of_one_pair():
    summary = pairs_script.summarize([5.0], [4.0], "lower")
    assert summary["parent_iqr"] == [5.0, 5.0]
    assert summary["parent_iqr_width"] == 0.0
    assert summary["change_wins"] == 1


BETTER = {"solves_per_s": "higher", "us_per_eval": "lower"}


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
    if same_totals:
        assert out["config_evaluation_totals_one_pass"] == {"bisect": 10}
    else:
        assert out["config_evaluation_totals_one_pass_per_seed"] == {
            7: {"bisect": 7}, 8: {"bisect": 8}}
