"""The benchmark tracer's hooks name real functions and methods.

``perfbench/tracing.py`` wraps package functions by module attribute and
methods by class ``__dict__`` entry.  A rename in the package, or a
change that stops a workload from calling a traced layer, would only
show as a failed traced benchmark run; these tests make it fail here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import orderchains
import orderchains.cli  # noqa: F401  (the package does not import it)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
run = _load("run")


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


@pytest.mark.parametrize("workload", ["fuzz", "chains", "cli"])
def test_one_traced_round_reaches_every_layer(workload, tmp_path):
    "one round of the workload at seed 101 calls every layer its traced run needs"
    ops = run.inputs.operations(workload, 101)
    run.write_inputs(ops, str(tmp_path))
    calls = [run.worker.bind(orderchains, op, str(tmp_path)) for op in ops]
    tracer = tracing.Tracer(orderchains)
    tracer.install()
    try:
        for call in calls:
            call()
    finally:
        tracer.uninstall()
    assert [name for name in run.REACHES[workload] if not tracer.calls.get(name)] == []
