"""Every option the package offers is one that some program takes.

A defaulted parameter of a package function is a knob. It pays for itself
only when a call in the package, the scripts or the benchmark passes it, by
keyword or by position; a knob that only tests set is dead weight. A
defaulted dataclass field is a knob too, and one of those files must read it.

Calls are matched by the function's name alone, and a call that spreads
``*args`` or ``**kwargs`` counts as passing everything, so a same-named call
can hide a dead knob; a knob passed only under another name (through
``functools.partial``, say) is reported.
"""

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = glob.glob(os.path.join(ROOT, "src", "symwedge", "*.py"))
PROGRAMS = [
    path
    for folder in (os.path.join("src", "symwedge"), "scripts", "benches")
    for path in glob.glob(os.path.join(ROOT, folder, "*.py"))
]


def defaulted_parameters(tree):
    """(function, parameter, position) of every defaulted parameter; the
    position counts call arguments (``self`` and ``cls`` excluded) and is
    None for a keyword-only parameter."""
    knobs = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
        first = len(positional) - len(args.defaults)
        for k in range(first, len(positional)):
            knobs.append((node.name, positional[k].arg, k - skip))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                knobs.append((node.name, arg.arg, None))
    return knobs


def _has_default(value):
    if value is None:
        return False
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
    return True


def defaulted_fields(tree):
    """(class, field) of every dataclass field with a default."""
    knobs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.unparse(decorator) for decorator in node.decorator_list
        ):
            knobs += [
                (node.name, item.target.id)
                for item in node.body
                if isinstance(item, ast.AnnAssign) and _has_default(item.value)
            ]
    return knobs


def passes(call, name, position):
    """Whether ``call`` passes the parameter ``name`` at ``position``."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def unused_knobs(package_trees, program_trees):
    calls = {}
    read = set()
    for tree in program_trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(callee, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unused = []
    for tree in package_trees:
        unused += [
            f"{function}({name}=)"
            for function, name, position in defaulted_parameters(tree)
            if not any(passes(call, name, position) for call in calls.get(function, []))
        ]
        unused += [f"{cls}.{name}" for cls, name in defaulted_fields(tree) if name not in read]
    return unused


def test_unused_knobs_are_found():
    package = ast.parse(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, c=2, *, d=3, e=4): ...\n"
        "class Box:\n    def g(self, x=0, y=0): ...\n"
        "@dataclass(frozen=True)\n"
        "class Rec:\n    a: int\n    b: int = 0\n    c: str = field(default='', kw_only=True)\n"
        "    e: list = field(default_factory=list)\n"
    )
    programs = ast.parse("f(0, 1, d=2)\nBox().g(5)\nprint(r.c, r.e)\n")
    assert unused_knobs([package], [programs]) == ["f(c=)", "f(e=)", "g(y=)", "Rec.b"]
    assert unused_knobs([package], [ast.parse("f(*xs, **kw)\nBox().g(**kw)\nr.b, r.c, r.e")]) == []


def test_every_knob_is_taken_by_a_program():
    def parse(path):
        with open(path) as handle:
            return ast.parse(handle.read())

    assert unused_knobs([parse(p) for p in PACKAGE], [parse(p) for p in PROGRAMS]) == []
