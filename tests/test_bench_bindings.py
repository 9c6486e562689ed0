"""The benchmark's tracer wraps package functions by (module, attribute);
a binding whose attribute is gone would fail only when a traced run starts."""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "benches", "tracing.py")


def load_bindings():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BINDINGS


@pytest.mark.parametrize(
    "module_name, attribute",
    [(module_name, attribute) for module_name, attribute, _ in load_bindings()],
)
def test_traced_binding_exists(module_name, attribute):
    assert callable(getattr(importlib.import_module(module_name), attribute, None))
