from conftest import load_script

opcount = load_script("opcount")


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
    assert first["evaluations"] == 2656
    _assert_splits_add_up(first)
    assert first["by_module"]["ratiosect.core"] > 0
    # measured_counts.csv's column totals, one configuration each.
    assert {config: c["evaluations"] for config, c in first["by_config"].items()} == {
        opcount.OUTSIDE: 0, "bisect": 686, "golden": 528, "ratio-p(c=0.5)": 363,
        "ratio-p(c=0.2)": 276, "ratio-a(c=0.001)": 215, "brent": 384,
        "brent-m(c=0.2)": 204,
    }


def test_random_expr_slice_counts_are_reproducible_and_split_by_config():
    units = opcount.warm_units("random-expr", 12)
    assert len(units) == 12
    first, second = opcount.count(units), opcount.count(units)
    assert first == second
    _assert_splits_add_up(first)
    # Six solvers per target, and the parsed expressions' own opcodes.
    assert len(first["by_config"]) == 7
    assert first["by_module"]["<expression>"] > 0
