"""The benchmark tracer's hooks name real functions and methods.

``perfbench/tracing.py`` wraps package functions by module attribute and
methods by class ``__dict__`` entry.  A rename in the package would only
show as a failed traced benchmark run; this test makes it fail here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module", tracing.MODULES[1:])
def test_traced_modules_exist(module):
    importlib.import_module(f"orderchains.{module}")


@pytest.mark.parametrize("metric, module, attr, record", tracing.FUNCTIONS)
def test_traced_functions_exist(metric, module, attr, record):
    assert callable(getattr(importlib.import_module(f"orderchains.{module}"), attr))


@pytest.mark.parametrize("metric, module, cls, method", tracing.METHODS)
def test_traced_methods_are_defined_on_their_class(metric, module, cls, method):
    assert method in vars(getattr(importlib.import_module(f"orderchains.{module}"), cls))


def test_word_counter_hook_exists():
    "the tracer counts enumerated words by wrapping trees.iter_words"
    assert callable(importlib.import_module("orderchains.trees").iter_words)
