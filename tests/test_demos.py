"""The demo scripts compile and every specsense name they use exists.

No test runs the demos (they take minutes and some plot), so this is what
keeps a change to the public API from breaking them unnoticed.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def specsense_names(tree):
    """(module, name) for each specsense attribute or import in the tree."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "specsense":
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("specsense"):
            for alias in node.names:
                yield node.module, alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            yield aliases[node.value.id], node.attr


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_compiles_and_its_names_resolve(path):
    source = path.read_text(encoding="utf-8")
    compile(source, str(path), "exec")
    names = set(specsense_names(ast.parse(source)))
    assert names, "demo uses no specsense name"
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, missing
