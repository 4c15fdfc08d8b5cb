import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment keeps its line

# a comment line


class A:
    """Class docstring."""

    x = """a string that is
    not a docstring"""

    def f(self,
          y):
        """Function docstring."""
        return (y +
                1)
'''


def test_counts_code_without_blanks_comments_or_docstrings():
    # import, class, x (2 lines), def (2 lines), return (2 lines)
    assert code_lines.code_lines(SOURCE) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     8  {tmp_path / 'a.py'}", f"     1  {tmp_path / 'b.py'}", "     9  total"]
