"""Every name a module imports is used there, and every private name the
package defines is used somewhere.

No linter runs over the repository, so this test is the check: it parses
each module of the package, the tests and the scripts with ``ast`` and fails
on an imported name that the module never reads. Names listed in ``__all__``
are re-exports, and an import marked ``# noqa: F401`` is kept on purpose (the
benchmark's tracer wraps it). A marked import must be unused, so a stale
marker cannot hide a live import. The benchmark's own files are not scanned
for imports.

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


def imports(source):
    """Each name ``source`` binds by an import, as (lineno, name, marked,
    used): marked means a ``# noqa: F401`` on its line, used that the module
    reads or exports it."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(
        (lineno, name, "# noqa: F401" in lines[lineno - 1], name in used)
        for name, lineno in imported.items()
    )


def unused_imports(source):
    """Names bound by unmarked imports in ``source`` that it neither reads nor exports."""
    return [(line, name) for line, name, marked, used in imports(source) if not (marked or used)]


def used_marked_imports(source):
    """Names bound by ``# noqa: F401`` imports in ``source`` that it reads or exports."""
    return [(line, name) for line, name, marked, used in imports(source) if marked and used]


def test_unused_imports_are_found():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n__all__ = ['tau']\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


def test_used_marked_imports_are_found():
    source = "import os  # noqa: F401\nfrom math import pi  # noqa: F401\nprint(pi)\n"
    assert used_marked_imports(source) == [(2, "pi")]


@pytest.mark.parametrize("name", sorted(MODULES))
def test_module_has_no_unused_imports(name):
    with open(MODULES[name]) as handle:
        assert unused_imports(handle.read()) == []


@pytest.mark.parametrize("name", sorted(MODULES))
def test_module_marks_no_import_it_uses(name):
    # a marker on a live import would hide it turning unused later
    with open(MODULES[name]) as handle:
        assert used_marked_imports(handle.read()) == []


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
