import os
import pathlib

from hypothesis import HealthCheck, settings

# pytest puts src/ on its own path (pyproject.toml); the subprocesses some
# tests start (the CLI entry point, the random harness) need it as well.
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

DATA_DIR = pathlib.Path(__file__).parent / "data"

# One line per release-gate criterion, appended by tests/test_acceptance.py
# in execution order and echoed after the normal test summary.  pytest's
# default fd-level capture swallows direct writes to sys.__stdout__, so the
# scorecard goes through a terminal-summary hook instead.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
