import subprocess
import sys

import pytest

from conftest import SRC_DIR, load_script

harness = load_script("random_harness")
SCRIPT = SRC_DIR.parent / "scripts" / "random_harness.py"


@pytest.mark.parametrize("count", ["0", "-3", "2.5"])
def test_count_that_is_not_a_positive_integer_is_a_usage_error(count):
    # Before, 0 died with ZeroDivisionError and -3 exited 0 after
    # printing a mean of -0.0 for every solver.
    done = subprocess.run([sys.executable, str(SCRIPT), "--count", count],
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "--count" in done.stderr


def test_each_solver_line_gives_mean_p99_and_max(capsys):
    # The 99th percentile is the nearest rank: with 3 targets, the largest.
    assert harness.main(["--count", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "3 targets x 6 solvers, 0 violations"
    assert len(lines) == 7
    for line in lines[1:]:
        *_, p99_label, p99, max_label, worst = line.split()
        assert (p99_label, p99, max_label) == ("p99", f"{worst},", "max")
