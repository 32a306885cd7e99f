"""The demo scripts the README documents run to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import _child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    "an empty glob would let the parametrized test below pass vacuously"
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    "exit 0 with printed output"
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path, env=_child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
