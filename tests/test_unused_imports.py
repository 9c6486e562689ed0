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
with an underscore is dead when no file of the package, the scripts or the
benchmark names it: not as a read name, an attribute, an import or a string
(which ``setattr`` and ``getattr`` take). The tests do not count, so a
private name only tests use is dead: a reference copy a test compares
against lives in ``tests/helpers.py``.

A public module-level function or class of the package is dead when no
file of the package, the scripts or the benchmark names it outside its own
definition and ``__all__``: a class's string annotation of itself in its own
body does not count, and neither do the tests, so a name only tests call is
dead. ``symwedge/__init__.py`` does not count either, so exporting a name
does not keep it. An exported name may also be kept by the acceptance suite,
``tests/test_acceptance.py``, which is the package's contract. A public
method or property of a public package class is dead by the same rule,
where its class's own other statements count too.

``symwedge/__init__.py`` is the one list of what the package exports: no
other package module assigns ``__all__``, and its ``__all__`` names exactly
the names it imports, and ``__version__``.
"""

import ast
import functools
import glob
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "symwedge")
INIT = os.path.join(PACKAGE, "__init__.py")
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
    for folder in (os.path.join("src", "symwedge"), "scripts", "benches")
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


def referenced_names(tree):
    """Every name the syntax ``tree`` reads, takes as an attribute, imports or
    spells as a string."""
    names = set()
    for node in ast.walk(tree):
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
    used = referenced_names(ast.parse(source))
    assert [n for n in private_definitions(source) if n not in used] == ["_BLOCKS", "_Box"]


def read(path):
    with open(path) as handle:
        return handle.read()


@functools.cache
def used_names():
    return set().union(*(referenced_names(ast.parse(read(path))) for path in SCANNED))


@pytest.mark.parametrize("name", sorted(n for n in MODULES if "/" not in n))
def test_module_has_no_dead_private_definitions(name):
    dead = [n for n in private_definitions(read(MODULES[name])) if n not in used_names()]
    assert dead == []


def assigns_all(node):
    """Whether the statement ``node`` assigns ``__all__``."""
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def module_body(source):
    """The module-level statements of ``source`` other than its ``__all__`` assignments."""
    return [node for node in ast.parse(source).body if not assigns_all(node)]


@functools.cache
def names_outside_all(source):
    """Every name ``source`` names outside its ``__all__``."""
    return set().union(*map(referenced_names, module_body(source)))


def exported_names(source):
    """The names ``source`` lists in its ``__all__``."""
    for node in ast.parse(source).body:
        if assigns_all(node):
            return set(ast.literal_eval(node.value))
    return set()


ACCEPTANCE = "tests/test_acceptance.py"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(statements, elsewhere):
    """Each public function or class among ``statements``, with the names
    that ``elsewhere`` and the other statements give it, as (node, names)."""
    names = [referenced_names(node) for node in statements]
    for i, node in enumerate(statements):
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            yield node, elsewhere.union(*names[:i], *names[i + 1 :])


def callers(others, exported, node, names):
    """The names that keep the module-level definition ``node`` live: its
    ``names`` from the rest of its module, those of the ``others`` outside
    ``tests/`` and, if it is among the ``exported`` ones, the acceptance suite's."""
    paths = [path for path in others if not path.startswith("tests/")]
    if node.name in exported:
        paths.append(ACCEPTANCE)
    return names.union(*(names_outside_all(others.get(path, "")) for path in paths))


def dead_public_definitions(source, exported, others):
    """Public module-level functions and classes of ``source`` that nothing
    names outside their own definition and any ``__all__``.

    ``others`` maps paths relative to the repository root to sources. The
    rest of ``source`` counts, and so do the ``others`` outside ``tests/``.
    A name among the ``exported`` ones is also live when the acceptance
    suite names it; no other test counts."""
    return [
        node.name
        for node, names in public_definitions(module_body(source), set())
        if node.name not in callers(others, exported, node, names)
    ]


def dead_public_methods(source, exported, others):
    """Public methods and properties of the public module-level classes of
    ``source`` that nothing names outside their own definition, as
    ``Class.name``: a method counts as named where its class would, and in
    the rest of its class. A method of an exported class is also live when
    the acceptance suite names it."""
    dead = []
    for cls, names in public_definitions(module_body(source), set()):
        if isinstance(cls, ast.ClassDef):
            live = callers(others, exported, cls, names)
            dead += [
                f"{cls.name}.{node.name}"
                for node, method_names in public_definitions(cls.body, live)
                if not isinstance(node, ast.ClassDef) and node.name not in method_names
            ]
    return dead


def test_dead_public_definitions_are_found():
    module = (
        "__all__ = ['Box', 'Grid', 'helper', 'orphan', 'reset', 'solve', 'tested']\n"
        "class Box:\n    pass\n"
        "class Grid:\n    def copy(self) -> 'Grid':\n        return self\n"
        "def helper():\n    return 1\n"
        "def orphan():\n    return 2\n"
        "def reset():\n    return 3\n"
        "def solve():\n    return 4\n"
        "def tested():\n    return 5\n"
        "def _draw():\n    return reset()\n"
    )
    init = "from .m import Box, Grid, solve, tested\n__all__ = ['Box', 'Grid', 'solve', 'tested']\n"
    others = {
        "src/pkg/other.py": "from .m import Box\nBox()\n",
        "scripts/run.py": "from pkg.m import helper\nhelper()\n",
        "tests/test_m.py": "from pkg import tested\ntested()\n",
        ACCEPTANCE: "from pkg import solve\nsolve()\n",
    }
    exported = exported_names(init)
    # exported ``tested`` has only a test to call it, exported ``Grid`` only
    # its own string annotation; the acceptance suite keeps exported ``solve``
    assert dead_public_definitions(module, exported, others) == ["Grid", "orphan", "tested"]
    # with its only caller gone, ``reset`` is dead too
    dropped = module.replace("return reset()", "return 0")
    assert dead_public_definitions(dropped, exported, others) == ["Grid", "orphan", "reset", "tested"]
    # the acceptance suite keeps only exported names
    assert "solve" in dead_public_definitions(module, set(), others)


def test_dead_public_methods_are_found():
    module = (
        "class Box:\n"
        "    def open(self):\n        return self.lid\n"
        "    @property\n    def lid(self):\n        return 1\n"
        "    def spin(self):\n        return self.spin()\n"
        "    def tested(self):\n        return 2\n"
        "    def checked(self):\n        return 3\n"
        "    def shipped(self):\n        return 4\n"
        "    def _seal(self):\n        return self.tested\n"
        "    def __len__(self):\n        return 0\n"
        "class Grid:\n    def size(self):\n        return 5\n"
    )
    init = "from .m import Box, Grid\n__all__ = ['Box']\n"
    others = {
        "src/pkg/other.py": "from .m import Box\nBox().open()\n",
        "scripts/run.py": "import sys\nprint(sys.argv, 'shipped')\n",
        "tests/test_m.py": "from pkg import Box, Grid\nBox().tested()\nGrid().size()\n",
        ACCEPTANCE: "from pkg import Box, Grid\nBox().checked()\nGrid().size()\n",
    }
    exported = exported_names(init)
    # ``lid`` is kept by ``open``, ``tested`` by the private ``_seal``, and a
    # string is a name; ``spin`` only calls itself. The acceptance suite keeps
    # the exported class's ``checked``, not the unexported one's ``size``
    assert dead_public_methods(module, exported, others) == ["Box.spin", "Grid.size"]
    # with no caller but a test, ``tested`` is dead too
    sealed = module.replace("return self.tested", "return 0")
    assert dead_public_methods(sealed, exported, others) == ["Box.spin", "Box.tested", "Grid.size"]
    # the acceptance suite keeps only methods of exported classes
    assert "Box.checked" in dead_public_methods(module, set(), others)


def callers_of(path):
    """The sources that may name a public definition of the package module
    at ``path``, by path relative to the repository root: the other package
    modules but ``__init__.py``, the scripts, the benchmark files and the
    acceptance suite."""
    paths = [
        other
        for folder in (os.path.join("src", "symwedge"), "scripts", "benches")
        for other in glob.glob(os.path.join(ROOT, folder, "*.py"))
        if os.path.basename(other) != "__init__.py" and not os.path.samefile(other, path)
    ]
    paths.append(os.path.join(ROOT, ACCEPTANCE))
    return {os.path.relpath(other, ROOT).replace(os.sep, "/"): read(other) for other in paths}


@pytest.mark.parametrize("name", sorted(n for n in MODULES if "/" not in n))
def test_module_has_no_dead_public_definitions(name):
    exported = exported_names(read(INIT))
    dead = dead_public_definitions(read(MODULES[name]), exported, callers_of(MODULES[name]))
    assert dead == []


@pytest.mark.parametrize("name", sorted(n for n in MODULES if "/" not in n))
def test_module_has_no_dead_public_methods(name):
    exported = exported_names(read(INIT))
    dead = dead_public_methods(read(MODULES[name]), exported, callers_of(MODULES[name]))
    assert dead == []


@pytest.mark.parametrize("name", sorted(n for n in MODULES if "/" not in n))
def test_only_the_package_init_declares_exports(name):
    # ``symwedge/__init__.py`` is the one export list; a leading ``_`` marks
    # a private name inside a module
    tree = ast.parse(read(MODULES[name]))
    stores = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
    ]
    assert stores == []


def test_package_exports_exactly_what_its_init_imports():
    body = ast.parse(read(INIT)).body
    imported = [
        alias.asname or alias.name
        for node in body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    (exported,) = [ast.literal_eval(node.value) for node in body if assigns_all(node)]
    assert sorted(exported) == sorted(imported + ["__version__"])
