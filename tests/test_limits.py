"""The one table of resource caps: README's table and ``limits`` agree,
and every module that checks a cap reads the same object."""

import ast
import re
from pathlib import Path

import pytest

from orderchains import dense, encodings, limits, orders, reductions, trees, words

README = Path(__file__).resolve().parents[1] / "README.md"
CAPS = {name: value for name, value in vars(limits).items() if not name.startswith("__") and type(value) is int}


def _readme_caps() -> dict[str, int]:
    "name -> value of each row of README's cap table; a value is an int or 2^k"
    section = README.read_text(encoding="utf-8").split("\n## Resource caps\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([\d^]+) \|", section, flags=re.M)
    values = {}
    for name, value in rows:
        assert name not in values, f"README lists {name} twice"
        base, _, exp = value.partition("^")
        values[name] = int(base) ** int(exp) if exp else int(base)
    return values


def test_readme_cap_table_matches_limits():
    "a cap without a row, a row without a cap, or a row with another value fails"
    assert _readme_caps() == CAPS


def test_limits_imports_nothing():
    tree = ast.parse(Path(limits.__file__).read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize(
    "module, names",
    [
        (orders, ["MAX_AXIOM_SUPPORT", "MAX_AXIOM_VIOLATIONS", "_INT_KEY_BITS"]),
        (trees, ["MAX_BLOCK", "MAX_HORIZON"]),
        (reductions, ["MAX_BLOCK", "MAX_HORIZON", "MAX_NODES"]),
        (dense, ["MAX_DEPTH", "MAX_RESOLUTION", "MAX_STREAM_VALUES"]),
        (encodings, ["MAX_DYADIC_DIGITS"]),
        (words, ["ECHO_LIMIT"]),
    ],
)
def test_modules_check_the_table_caps(module, names):
    "each module keeps its old attribute names, bound to the table's objects"
    for name in names:
        assert getattr(module, name) is getattr(limits, name)
