import csv
import math
from collections import Counter

import pytest

from ratiosect import benchsuite
from ratiosect.benchsuite import (
    COUNT_KEYS,
    METHOD_NAMES,
    REFERENCE_CONFIGS,
    BenchFunction,
    BenchRow,
    MethodSpec,
    benchmark_function,
    benchmark_suite,
    load_reference_minimizer,
    run_benchmark,
    solve_one,
    sweep_ratio_a_exponent,
    sweep_ratio_c,
)
from ratiosect.core import CountingObjective, FunctionClass, Interval, Tolerance
from ratiosect.section_search import RatioConfig

from conftest import DATA_DIR, load_script

def load_measured():
    with open(DATA_DIR / "measured_counts.csv", newline="") as fh:
        return {
            (row["config"], int(row["function_id"])): row
            for row in csv.DictReader(fh)
        }


# ------------------------------------------------------------------ fixtures

def test_suite_has_twenty_problems():
    suite = benchmark_suite()
    assert [bf.fid for bf in suite] == list(range(1, 21))
    for bf in suite:
        assert isinstance(bf, BenchFunction)
        assert bf.interval.lo < bf.interval.hi
        assert set(bf.reference_counts) == set(COUNT_KEYS)
        assert all(v > 0 for v in bf.reference_counts.values())


def test_each_problem_is_built_once_with_read_only_counts():
    for fid in range(1, 21):
        bf = benchmark_function(fid)
        assert benchmark_function(fid) is bf
        with pytest.raises(TypeError):
            bf.reference_counts["bisect"] = 0
    assert [bf.fid for bf in benchmark_suite()] == list(range(1, 21))


def test_each_reference_minimizer_is_built_once():
    for fid in range(1, 21):
        assert load_reference_minimizer(fid) is load_reference_minimizer(fid)


def test_bench_row_is_an_immutable_tuple_with_the_dataclass_repr():
    row = BenchRow("bisect", 1, 34, 0.5, 1.0, "strict_interior", "converged")
    for field in ("evaluations", "extra"):
        with pytest.raises(AttributeError):
            setattr(row, field, 0)
    assert repr(row) == (
        "BenchRow(method='bisect', fid=1, evaluations=34, x_min=0.5, "
        "f_min=1.0, classification='strict_interior', status='converged')")


#: Solver name in benchsuite's namespace, per MethodSpec name.
SOLVER_NAMES = {
    "bisect": "minimize_bisection",
    "golden": "minimize_golden",
    "ratio-p": "minimize_ratio_p",
    "ratio-a": "minimize_ratio_a",
    "brent": "brent_minimize",
    "brent-m": "brent_m_minimize",
}


def test_solvers_rebound_in_the_namespace_are_the_ones_called(monkeypatch):
    # A profiler wraps the solvers by rebinding these names after import,
    # and reads a ratio-taking solver's RatioConfig as its fourth
    # positional argument.
    calls = []

    def spy(name):
        original = getattr(benchsuite, name)

        def wrapper(obj, interval, tol, *args, **kwargs):
            calls.append((name, args, kwargs))
            return original(obj, interval, tol, *args, **kwargs)
        monkeypatch.setattr(benchsuite, name, wrapper)

    for name in SOLVER_NAMES.values():
        spy(name)
    run_benchmark([MethodSpec(m) for m in METHOD_NAMES], [12, 20])
    assert [name for name, _, _ in calls] == [
        SOLVER_NAMES[m] for m in METHOD_NAMES for _ in (12, 20)]
    assert [args for _, args, _ in calls[::2]] == [
        (), (), (RatioConfig(0.2),), (RatioConfig(1e-3),), (), (RatioConfig(0.2),)]
    assert all(kwargs == {} for _, _, kwargs in calls)

    calls.clear()
    solve_one(MethodSpec("brent-m", 0.3), CountingObjective(lambda x: x * x),
              Interval(-1.0, 2.0), Tolerance())
    solve_one(MethodSpec("golden"), CountingObjective(lambda x: x * x),
              Interval(-1.0, 2.0), Tolerance())
    assert calls == [("brent_m_minimize", (RatioConfig(0.3),), {}),
                     ("minimize_golden", (), {})]

    calls.clear()
    sweep_ratio_c([12], 0.25, 0.75, 0.25, fit_degree=1)
    assert calls == [("minimize_ratio_p", (RatioConfig(c),), {})
                     for c in (0.25, 0.5, 0.75)]

    calls.clear()
    sweep_ratio_a_exponent([12], -4, -3)
    assert calls == [("minimize_ratio_a", (RatioConfig(10.0 ** (j / 2.0)),), {})
                     for j in (-4, -3)]


def test_class_label_distribution():
    labels = Counter(bf.class_label for bf in benchmark_suite())
    assert labels[FunctionClass.CONSTANT] == 1
    assert labels[FunctionClass.MONOTONE_DECREASING] == 1
    assert labels[FunctionClass.MONOTONE_INCREASING] == 1
    assert labels[FunctionClass.FLAT_BOTTOM] == 3
    assert labels[FunctionClass.STRICT_INTERIOR] == 14


def test_bad_id_rejected():
    # True and 2.0 hash as 1 and 2, so a bare table lookup would take them.
    for fid in (0, 21, -3, True, False, 2.0, 12.0):
        with pytest.raises(ValueError):
            benchmark_function(fid)
        with pytest.raises(ValueError):
            load_reference_minimizer(fid)
        with pytest.raises(ValueError):
            run_benchmark([MethodSpec("golden")], [fid])


@pytest.mark.parametrize("key,total,total_7_20", [
    ("bisect", 772, 568),
    ("golden", 587, 431),
    ("ratio_p_c05", 467, 436),
    ("ratio_p_c02", 341, 308),
    ("ratio_a_c001", 227, 196),
    ("brent", 345, 214),
    ("brent_m_c02", 204, 176),
])
def test_reference_count_column_sums(key, total, total_7_20):
    suite = benchmark_suite()
    assert sum(bf.reference_counts[key] for bf in suite) == total
    assert sum(bf.reference_counts[key] for bf in suite if bf.fid >= 7) == total_7_20


def test_evaluators_are_finite_on_their_intervals():
    for bf in benchmark_suite():
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            x = bf.interval.lo + t * bf.interval.width
            assert math.isfinite(bf.evaluator(x)), bf.fid


# ---------------------------------------------------------------- MethodSpec

def test_method_spec_labels():
    assert MethodSpec("bisect").label == "bisect"
    assert MethodSpec("ratio-p", 0.5).label == "ratio-p(c=0.5)"
    assert MethodSpec("ratio-p").label == "ratio-p(c=0.2)"
    assert MethodSpec("ratio-a").label == "ratio-a(c=0.001)"
    assert MethodSpec("brent-m").label == "brent-m(c=0.2)"


def test_method_spec_reference_keys():
    assert MethodSpec("bisect").reference_key == "bisect"
    assert MethodSpec("ratio-p", 0.5).reference_key == "ratio_p_c05"
    assert MethodSpec("ratio-p", 0.2).reference_key == "ratio_p_c02"
    assert MethodSpec("ratio-a", 0.001).reference_key == "ratio_a_c001"
    assert MethodSpec("brent-m", 0.2).reference_key == "brent_m_c02"
    # Off-table configurations have no column to compare against.
    assert MethodSpec("ratio-p", 0.37).reference_key is None


def test_method_spec_validation():
    with pytest.raises(ValueError):
        MethodSpec("newton")
    with pytest.raises(ValueError):
        MethodSpec("bisect", 0.5)
    with pytest.raises(ValueError):
        MethodSpec("golden", 0.1)


# ------------------------------------------------------- reference minimizers

def test_frozen_minimizer_spot_checks():
    # Problems with closed-form minimizers; the frozen values must agree.
    m2 = load_reference_minimizer(2)
    assert m2.x == 6.8                      # decreasing: right endpoint
    assert m2.f == 20.0 + 16.0 / 6.8

    m8 = load_reference_minimizer(8)
    kink = (72.0 - math.sqrt(1440.0)) / 26.0  # branch crossover of the max
    assert abs(m8.x - kink) <= 1e-9

    m9 = load_reference_minimizer(9)
    assert abs(m9.x - 1.0) <= 1e-11        # |x - 1| kink
    assert abs(m9.f - 1.2) <= 1e-11

    m11 = load_reference_minimizer(11)
    assert abs(m11.x - (-1.0 + math.sqrt(4.0 - math.pi))) <= 1e-7
    assert m11.f == -0.7

    m12 = load_reference_minimizer(12)
    assert abs(m12.x - 1.5) <= 1e-7
    assert m12.f == 0.2

    m19 = load_reference_minimizer(19)
    assert abs(m19.x - (3.0 - math.log(4.0))) <= 1e-7


def test_frozen_plateaus():
    # The plateau-bearing problems carry their flat segment; everything
    # else carries none.
    with_plateau = {1, 4, 5, 6, 10, 14}
    for fid in range(1, 21):
        ref = load_reference_minimizer(fid)
        if fid in with_plateau:
            assert ref.plateau is not None, fid
            assert ref.plateau.lo <= ref.x <= ref.plateau.hi
        else:
            assert ref.plateau is None, fid

    m1 = load_reference_minimizer(1)
    iv = benchmark_function(1).interval
    assert (m1.plateau.lo, m1.plateau.hi) == (iv.lo, iv.hi)  # constant

    m14 = load_reference_minimizer(14)
    assert m14.plateau.width < 3e-4  # sub-tolerance flat cap of 1-cos(x^2)


def test_oracle_reproduces_frozen_values_on_coarse_grid():
    # The independent grid oracle, run fresh at a coarser resolution,
    # lands on the frozen answers (which were produced at 1e6 points).
    reference_minimizer = load_script("freeze_reference_minimizers").reference_minimizer
    for fid in (2, 9, 12):
        x, f, plateau = reference_minimizer(fid, grid_points=20_000)
        frozen = load_reference_minimizer(fid)
        assert abs(x - frozen.x) <= 1e-6, fid
        assert abs(f - frozen.f) <= 1e-9, fid

    x, f, plateau = reference_minimizer(1, grid_points=1_000)
    iv = benchmark_function(1).interval
    assert plateau is not None
    assert (plateau.lo, plateau.hi) == (iv.lo, iv.hi)
    assert x == iv.midpoint


def test_missing_minimizer_id_rejected():
    with pytest.raises(ValueError):
        load_reference_minimizer(99)


# -------------------------------------------------------------- run_benchmark

def test_measured_counts_regression():
    # Frozen per-cell regression: any solver change that shifts a single
    # evaluation count, classification, or status must show up here.
    measured = load_measured()
    report = run_benchmark(list(REFERENCE_CONFIGS.values()), range(1, 21))
    assert len(report.rows) == len(measured) == 140
    for row in report.rows:
        want = measured[(row.method, row.fid)]
        assert row.evaluations == int(want["evaluations"]), (row.method, row.fid)
        assert row.classification == want["classification"], (row.method, row.fid)
        assert row.status == want["status"], (row.method, row.fid)


def test_totals_and_ratios_consistent():
    report = run_benchmark([MethodSpec("bisect"), MethodSpec("golden")], [7, 12])
    by_method = {}
    for row in report.rows:
        by_method[row.method] = by_method.get(row.method, 0) + row.evaluations
    assert report.totals == by_method
    assert report.ratios[("bisect", "golden")] == pytest.approx(
        report.totals["bisect"] / report.totals["golden"]
    )


def test_classifications_compatible_with_labels():
    # For the recognizer-equipped solvers the reported class must be an
    # honest account of the target on its benchmark interval.  Divergence
    # from the catalog label is allowed only where machine arithmetic
    # genuinely changes the picture:
    #  - a constant is indistinguishable from a flat bottom,
    #  - a plateau touching an interval endpoint admits a monotone
    #    verdict (ids 5, 6),
    #  - 10 and 14 have sub-tolerance pseudo-plateaus in double precision,
    #  - 17, 18, 20 are monotone on their benchmark intervals.
    allowed = {
        FunctionClass.CONSTANT: {"flat_bottom"},
        FunctionClass.MONOTONE_DECREASING: {"monotone_decreasing"},
        FunctionClass.MONOTONE_INCREASING: {"monotone_increasing"},
        FunctionClass.FLAT_BOTTOM: {
            "flat_bottom", "monotone_increasing", "monotone_decreasing",
        },
        FunctionClass.STRICT_INTERIOR: {"strict_interior"},
    }
    overrides = {
        10: {"flat_bottom", "strict_interior"},
        14: {"flat_bottom", "strict_interior"},
        17: {"monotone_increasing"},
        18: {"monotone_decreasing"},
        20: {"monotone_decreasing"},
    }
    specs = [MethodSpec("ratio-p", 0.2), MethodSpec("ratio-a"), MethodSpec("brent-m")]
    report = run_benchmark(specs, range(1, 21))
    for row in report.rows:
        label = benchmark_function(row.fid).class_label
        acceptable = overrides.get(row.fid, allowed[label])
        assert row.classification in acceptable, (row.method, row.fid)


def test_empty_selection_rejected():
    with pytest.raises(ValueError):
        run_benchmark([], [1])
    with pytest.raises(ValueError):
        run_benchmark([MethodSpec("bisect")], [])


@pytest.mark.parametrize("methods, ids, message", [
    ([MethodSpec("golden")] * 2, [7, 12], "repeated method 'golden'"),
    # Two specs with one effective ratio share a label.
    ([MethodSpec("ratio-p"), MethodSpec("ratio-p", 0.2)], [7],
     "repeated method 'ratio-p(c=0.2)'"),
    ([MethodSpec("golden"), MethodSpec("bisect")], [7, 7, 12], "repeated function id 7"),
    ([MethodSpec("golden")], [9, 8, 9], "repeated function id 9"),
])
def test_repeated_method_or_id_rejected(methods, ids, message):
    # Totals are merged by label, so a repeat would count its cells twice.
    with pytest.raises(ValueError) as excinfo:
        run_benchmark(methods, ids)
    assert str(excinfo.value) == message


# -------------------------------------------------------------------- sweeps

def test_sweep_c_samples_and_fit():
    samples, poly = sweep_ratio_c([12], 0.10, 0.30, 0.05, fit_degree=2)
    assert [round(c, 2) for c, _ in samples] == [0.10, 0.15, 0.20, 0.25, 0.30]
    assert all(k > 0 for _, k in samples)
    assert poly.degree == 2


def test_sweep_c_validates_range():
    with pytest.raises(ValueError):
        sweep_ratio_c([12], 0.5, 0.2)
    with pytest.raises(ValueError):
        sweep_ratio_c([12], 0.0, 0.5)
    # Unchecked, 0.0 divides by zero, -0.01 leaves the fit no points and
    # nan fails to convert to int.
    for step in (0.0, -0.01, math.nan):
        with pytest.raises(ValueError, match="step must be positive"):
            sweep_ratio_c([12], step=step)


def test_sweep_c_counts_regression():
    # Frozen sweep: all 80 (c, mean count) samples over ids 7-20, compared
    # bit for bit (scripts/freeze_fixtures.py writes the file).
    with open(DATA_DIR / "sweep_c_counts.csv", newline="") as fh:
        frozen = [(float(row["c"]), float(row["mean_evaluations"]))
                  for row in csv.DictReader(fh)]
    samples, _ = sweep_ratio_c(range(7, 21))
    assert len(frozen) == 80
    assert sum(mean * 14 for _, mean in frozen) == pytest.approx(28174)
    assert [(c.hex(), mean.hex()) for c, mean in samples] == [
        (c.hex(), mean.hex()) for c, mean in frozen
    ]


def test_transcript_digests_regression():
    # Every probe of every suite cell and of the c sweep, frozen as SHA-256
    # digests of the probes' .hex() (scripts/freeze_fixtures.py writes
    # the file): a probe that moves by one ulp fails here even when the
    # counts above stay the same.
    script = load_script("freeze_fixtures")
    with open(DATA_DIR / "transcript_digests.csv", newline="") as fh:
        frozen = [tuple(row) for row in csv.reader(fh)][1:]
    assert len(frozen) == 7 * 20 + 1
    assert script.compute() == frozen


def test_random_transcript_digests_regression():
    # One row per run of each solver on the random harness's 300 targets,
    # the random-expr benchmark's, each parsed from its text: count,
    # verdict, and digests of every probe and every bracket_log entry
    # (scripts/freeze_fixtures.py writes the file).  The suite gives
    # ratio-a 215 evaluations in all; these targets give it 8,377, 6,918
    # of them in its parabolic phase.
    script = load_script("freeze_fixtures")
    with open(DATA_DIR / "random_transcript_digests.csv", newline="") as fh:
        frozen = [tuple(row) for row in csv.reader(fh)][1:]
    assert [(name, int(target)) for name, target, *_ in frozen] == [
        (name, target)
        for name in ("bisect", "golden", "ratio-p", "ratio-a", "brent", "brent-m")
        for target in range(300)]
    assert script.compute_random() == frozen


def test_freeze_script_rewrites_every_fixture_unchanged(tmp_path):
    # The freeze script end to end, writers included: run into an empty
    # directory, it writes every file of tests/data, each byte for byte.
    script = load_script("freeze_fixtures")
    script.DATA_DIR = tmp_path
    assert script.main() == 0
    names = sorted(path.name for path in DATA_DIR.iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    assert len(names) == 5
    for name in names:
        assert (tmp_path / name).read_bytes() == (DATA_DIR / name).read_bytes(), name


def test_freeze_script_diff_names_each_moved_row(tmp_path, capsys):
    # --diff writes nothing and prints each moved row with the old and new
    # value of every column that changed, then how many of a fixture's
    # moved rows fell, rose or kept their count: here in the random
    # fixture a count edited up with a digest, a count edited down, a
    # digest alone, and one row the live runs lack.
    script = load_script("freeze_fixtures")
    for path in DATA_DIR.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    script.DATA_DIR = tmp_path
    assert script.main(["--diff"]) == 0
    assert "rows moved" in capsys.readouterr().out
    path = tmp_path / "random_transcript_digests.csv"
    lines = path.read_text().splitlines(keepends=True)
    row, down, kept = (line.split(",") for line in lines[1:4])
    lines[1] = ",".join([*row[:2], "999", *row[3:6], "0" * 16 + "\n"])
    lines[2] = ",".join([*down[:2], "1", *down[3:]])
    lines[3] = ",".join([*kept[:6], "0" * 16 + "\n"])
    lines.append("brent,300,1,strict_interior,converged,0,0\n")
    path.write_text("".join(lines))
    edited = path.read_bytes()
    assert script.main(["--diff"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert path.read_bytes() == edited
    assert [line for line in out if line.startswith("random_transcript")] == [
        f"random_transcript_digests.csv bisect,0: evaluations 999 -> {row[2]}, "
        f"brackets_sha256 {'0' * 16} -> {row[6].strip()}",
        f"random_transcript_digests.csv bisect,1: evaluations 1 -> {down[2]}",
        f"random_transcript_digests.csv bisect,2: "
        f"brackets_sha256 {'0' * 16} -> {kept[6].strip()}",
        "random_transcript_digests.csv brent,300: "
        "only frozen: 1,strict_interior,converged,0,0",
        "random_transcript_digests.csv: 4 of 1801 rows moved",
        "random_transcript_digests.csv: 1 fell, 1 rose, 1 kept their count; "
        f"evaluations {999 + 1 + int(kept[2])} -> "
        f"{int(row[2]) + int(down[2]) + int(kept[2])} in those rows",
    ]
    for name in script.FIXTURES:
        if name != path.name:
            assert f"{name}: 0 of " in "\n".join(out)


def test_sweep_j_rows():
    rows = sweep_ratio_a_exponent([12], -4, -2)
    assert [j for j, _, _ in rows] == [-4, -3, -2]
    for j, c, total in rows:
        assert c == 10.0 ** (j / 2.0)
        assert total > 0


def test_sweep_j_validates_range():
    with pytest.raises(ValueError):
        sweep_ratio_a_exponent([12], -20, -2)
    with pytest.raises(ValueError):
        sweep_ratio_a_exponent([12], -2, -1)


def test_custom_tolerance_threaded_through():
    generous = run_benchmark([MethodSpec("golden")], [12], Tolerance(epsilon=1e-2))
    strict = run_benchmark([MethodSpec("golden")], [12], Tolerance(epsilon=1e-8))
    assert generous.rows[0].evaluations < strict.rows[0].evaluations
