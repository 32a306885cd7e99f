"""The code-line counter in ``tools/``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

# a comment
X = 1  # a trailing comment


def f():
    """Function docstring."""
    return (
        "a"
        "b"
    )


class C:
    "class docstring"
    y = """a string that is no docstring,
on two lines"""
'''


def test_counts_code_and_skips_docstrings_comments_and_blanks(tmp_path):
    "X, def, the four lines of return, class and both lines of y"
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert code_lines.code_lines(path) == 9


def test_prints_every_module_and_their_total(capsys):
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = {name: int(n) for name, n in rows[:-1]}
    assert modules.keys() == {p.name for p in code_lines.PACKAGE.glob("*.py")}
    assert rows[-1] == ["total", str(sum(modules.values()))]
