import json

from conftest import SRC_DIR, load_script

linecount = load_script("linecount")

# Code lines: the import, the class, the def, the two lines of the
# assignment (its string is not a docstring) and the two of the return.
SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line

# A comment on a line of its own.


class Box:
    """A one-line docstring."""

    def area(self):
        """A docstring
        over two lines."""

        text = """not a
        docstring"""
        return (math.pi +
                len(text))
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    assert linecount.code_lines(SOURCE) == 7
    assert linecount.code_lines("") == 0


def test_counts_per_module_sum_to_the_totals(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# c\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert linecount.count(tmp_path) == {
        "modules": {"a.py": {"lines": 19, "code": 7}, "b.py": {"lines": 3, "code": 1}},
        "total": {"lines": 22, "code": 8},
    }


def test_package_counts_match_wc_and_sum_to_the_totals(capsys):
    # The package's counts at the top level, then scripts/ and tests/ each
    # under its own key, in the same layout.
    assert linecount.main() == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["modules", "total", "scripts", "tests"]
    root = SRC_DIR.parent
    for counts, directory in ((out, SRC_DIR / "ratiosect"), (out["scripts"], root / "scripts"),
                              (out["tests"], root / "tests")):
        paths = sorted(directory.glob("*.py"))
        assert list(counts["modules"]) == [p.name for p in paths]
        for p in paths:
            module = counts["modules"][p.name]
            assert module["lines"] == p.read_bytes().count(b"\n")
            assert 0 < module["code"] < module["lines"]
        for key in ("lines", "code"):
            assert counts["total"][key] == sum(m[key] for m in counts["modules"].values())
