"""Every name a module imports is used there, and every private name the
package defines is used somewhere.

No linter runs over the repository, so this test is the check: it parses
each module of the package, the tests and the scripts with ``ast`` and fails
on an imported name that the module never reads. Names listed in ``__all__``
are re-exports, and an import marked ``# noqa: F401`` is kept on purpose (the
benchmark's tracer wraps it). The benchmark's own files are not scanned for
imports.

A module-level function, class or constant of the package whose name starts
with an underscore is dead when no file of the package, the tests, the
scripts or the benchmark names it: not as a read name, an attribute, an
import or a string (which ``setattr`` and ``getattr`` take).
"""

import ast
import functools
import glob
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "symwedge")
# Package modules are named by file name, tests and scripts by their path.
MODULES = {
    os.path.basename(path): path
    for path in glob.glob(os.path.join(PACKAGE, "*.py"))
    if os.path.basename(path) != "__init__.py"
}
for folder in ("tests", "scripts"):
    for path in glob.glob(os.path.join(ROOT, folder, "*.py")):
        MODULES[f"{folder}/{os.path.basename(path)}"] = path
SCANNED = [
    path
    for folder in (os.path.join("src", "symwedge"), "tests", "scripts", "benches")
    for path in glob.glob(os.path.join(ROOT, folder, "*.py"))
]


def unused_imports(source):
    """Names bound by imports in ``source`` that it neither reads nor exports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(
        (lineno, name) for name, lineno in imported.items() if name not in used | exported
    )


def test_unused_imports_are_found():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n__all__ = ['tau']\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


@pytest.mark.parametrize("name", sorted(MODULES))
def test_module_has_no_unused_imports(name):
    with open(MODULES[name]) as handle:
        assert unused_imports(handle.read()) == []


def private_definitions(source):
    """Module-level functions, classes and constants of ``source`` named with
    one leading underscore, in order."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def referenced_names(source):
    """Every name ``source`` reads, takes as an attribute, imports or spells as a string."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_dead_private_definitions_are_found():
    source = (
        "_USED = 1\n_BLOCKS = (16, 984)\n"
        "def _helper():\n    return _USED\n"
        "class _Box:\n    pass\n"
        "def public():\n    return _helper()\n"
    )
    used = referenced_names(source)
    assert [n for n in private_definitions(source) if n not in used] == ["_BLOCKS", "_Box"]


def read(path):
    with open(path) as handle:
        return handle.read()


@functools.cache
def used_names():
    return set().union(*(referenced_names(read(path)) for path in SCANNED))


@pytest.mark.parametrize("name", sorted(n for n in MODULES if "/" not in n))
def test_module_has_no_dead_private_definitions(name):
    dead = [n for n in private_definitions(read(MODULES[name])) if n not in used_names()]
    assert dead == []
