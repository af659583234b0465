"""tools/src_lines.py: the line counts of a source tree, with and without
docstrings, comments and blank lines."""

from script_modules import ROOT, load

src_lines = load(ROOT / "tools" / "src_lines.py", "src_lines")

# 19 lines; the code lines are 4, 6, 11, 14, 17 and 18
FIXTURE = '''"""Module docstring,
two lines."""

import math  # a trailing comment keeps its line

X = 1

# a comment line


class A:
    """One-line class docstring."""

    def f(self):
        """Function docstring
        over two lines."""
        return """a string that
        is not a docstring"""
    # an indented comment
'''


def test_fixture_counts():
    assert src_lines.count(FIXTURE) == (19, 6)


def test_tree_rows_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("\n\nY = [\n    1,\n\n    2,\n]\n")
    (tmp_path / "notes.txt").write_text("X = 1\n")
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["a.py", "19", "6"], ["b.py", "7", "4"],
                    ["total", "26", "10"]]
