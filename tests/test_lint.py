"""Static checks on the package source, with ``ast`` only.

Two kinds of dead code fail the suite: an import that a module never
uses, and a private top-level function that no module of the package
refers to (a helper only the tests need belongs in the tests).
``__init__`` re-exports its imports and is left out of the first check.
Any ``assert`` statement in the package fails the suite as well:
``python -O`` strips it, and an exactness check must survive that, so
the package raises instead.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hoffline"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _referenced(nodes):
    """Every name that ``nodes`` read, as a bare name or an attribute."""
    names = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__"}))
def test_no_unused_imports(module):
    tree = MODULES[module]
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = _referenced(tree.body)
    assert [name for name in bound if name not in used] == []


def test_private_functions_are_called_from_src():
    # a function's references to itself do not count
    tops = [node for tree in MODULES.values() for node in tree.body]
    refs = [_referenced([node]) for node in tops]
    unused = [
        node.name
        for node in tops
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not any(node.name in r for other, r in zip(tops, refs) if other is not node)
    ]
    assert unused == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_assert_statements(module):
    lines = [node.lineno for node in ast.walk(MODULES[module]) if isinstance(node, ast.Assert)]
    assert lines == []
