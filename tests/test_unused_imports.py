"""Every name a module imports is used there.

No linter runs over the repository, so this test is the check: it parses
each module of the package, the tests and the scripts with ``ast`` and fails
on an imported name that the module never reads. Names listed in ``__all__``
are re-exports, and an import marked ``# noqa: F401`` is kept on purpose (the
benchmark's tracer wraps it). The benchmark's own files are not scanned.
"""

import ast
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
