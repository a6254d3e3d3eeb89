from conftest import load_script

opcount = load_script("opcount")


def test_suite_pass_counts_are_reproducible_and_split_by_module():
    units = opcount.warm_units("suite")
    first, second = opcount.count(units), opcount.count(units)
    assert first == second
    assert first["evaluations"] == 2656
    assert sum(first["by_module"].values()) == first["opcodes"]
    assert first["by_module"]["ratiosect.core"] > 0
