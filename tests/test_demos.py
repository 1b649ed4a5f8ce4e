"""The demo scripts compile, every specsense name they use exists, and every
call they make to a specsense name binds to its signature.

No test runs the demos (they take minutes and some plot), so this is what
keeps a change to the public API from breaking them unnoticed.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
_MISSING = object()  # a name that a specsense module or object lacks


def specsense_bindings(tree):
    """Each name the tree binds by importing specsense, with the object it
    names (``_MISSING`` for a name its module lacks)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "specsense":
                    # "import a.b" binds a; "import a.b as c" binds c to a.b.
                    module = importlib.import_module(alias.name)
                    bound[alias.asname or "specsense"] = (
                        module if alias.asname else importlib.import_module("specsense"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("specsense"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                bound[alias.asname or alias.name] = getattr(module, alias.name, _MISSING)
    return bound


def resolve(node, bound):
    """The object a name or attribute chain rooted at a specsense binding
    names: ``_MISSING`` where a link is absent, None for any other expression."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = resolve(node.value, bound)
        if owner is None or owner is _MISSING:
            return owner
        return getattr(owner, node.attr, _MISSING)
    return None


def unbindable_calls(tree, bound):
    """'line: callee: reason' for each call to a specsense name whose
    arguments do not bind to the callee's signature."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = resolve(node.func, bound)
        if not callable(callee):
            continue
        # Placeholders: only the argument names and count are checked.
        args = ([] if any(isinstance(a, ast.Starred) for a in node.args)
                else [None] * len(node.args))
        kwargs = {kw.arg: None for kw in node.keywords if kw.arg is not None}
        try:
            inspect.signature(callee).bind_partial(*args, **kwargs)
        except TypeError as exc:
            yield f"{node.lineno}: {ast.unparse(node.func)}: {exc}"


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_compiles_and_its_names_resolve(path):
    source = path.read_text(encoding="utf-8")
    compile(source, str(path), "exec")
    tree = ast.parse(source)
    bound = specsense_bindings(tree)
    assert bound, "demo uses no specsense name"
    missing = {name for name, obj in bound.items() if obj is _MISSING}
    missing |= {ast.unparse(node) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and resolve(node, bound) is _MISSING}
    assert not missing, sorted(missing)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_calls_bind_to_their_signatures(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bad = list(unbindable_calls(tree, specsense_bindings(tree)))
    assert not bad, bad
