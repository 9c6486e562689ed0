"""The benchmark's tracer wraps package functions by (module, attribute);
a binding whose attribute is gone would fail only when a traced run starts."""

import ast
import glob
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


PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "symwedge")


def marked_imports(source):
    """Names bound by imports in ``source`` on a line marked ``# noqa: F401``."""
    lines = source.splitlines()
    return [
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "# noqa: F401" in lines[alias.lineno - 1]
    ]


def test_every_marked_import_is_a_traced_binding():
    # an import kept unused only for the tracer must go when its binding does
    bound = {(module_name, attribute) for module_name, attribute, _ in load_bindings()}
    marked = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        stem = os.path.basename(path)[: -len(".py")]
        module_name = "symwedge" if stem == "__init__" else f"symwedge.{stem}"
        with open(path) as handle:
            marked += [(module_name, name) for name in marked_imports(handle.read())]
    assert [pair for pair in marked if pair not in bound] == []
