"""Static checks on the package source, with ``ast``.

Three kinds of dead code fail the suite: an import that a module never
uses, a private top-level function that no module of the package
refers to, and a public function, class, method or module-level
constant that neither the package, the benchmark harness in
``perfbench/`` nor ``__all__`` uses.  There are no exemptions: a helper
or oracle that only the tests need lives in the tests, as the deletion
lemma and ``build_sum`` do in ``bruteforce.py``.  ``__init__``
re-exports its imports and is left out of the first check.
Any ``assert`` statement in the package fails the suite as well:
``python -O`` strips it, and an exactness check must survive that, so
the package raises instead.  Every error class of the package must be
raised in it, or be the base of one that is.  Last, every span target that
``perfbench/spans.py`` lists must name a function of the package, so a
rename cannot leave a traced run without its span.
The CI workflow must load as YAML where PyYAML is installed, with
its two jobs and a command or an action in every step.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hoffline"
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


def _counts(nodes, attributes_only):
    """How often ``nodes`` read each name as an attribute and, unless
    ``attributes_only``, as a bare name."""
    counts = Counter()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                counts[node.attr] += 1
            elif isinstance(node, ast.Name) and not attributes_only:
                counts[node.id] += 1
    return counts


def _used_outside_src():
    """``__all__``, every name ``perfbench/`` reads, and each dotted part
    of its strings: ``spans.py`` names its targets in strings such as
    ``"MfsCatalog.save"``."""
    names = set()
    for node in MODULES["__init__"].body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["__all__"]:
            names.update(ast.literal_eval(node.value))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(node.value.split("."))
    return names


def test_public_api_is_used():
    # a function, class or constant counts as used when code outside its
    # own definition reads its name, a method only when such code reads
    # it as an attribute
    tops = [node for tree in MODULES.values() for node in tree.body]
    defs = [
        (node.name, node.name, node, False)
        for node in tops
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    defs += [
        (target.id, target.id, node, False)
        for node in tops
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    ]
    defs += [
        (f"{top.name}.{node.name}", node.name, node, True)
        for top in tops
        if isinstance(top, ast.ClassDef)
        for node in top.body
        if isinstance(node, ast.FunctionDef)
    ]
    seen = {flag: _counts(tops, flag) for flag in (False, True)}
    outside = _used_outside_src()
    unused = [
        label
        for label, name, node, method in defs
        if not name.startswith("_")
        and name not in outside
        and seen[method][name] == _counts([node], method)[name]
    ]
    assert unused == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_assert_statements(module):
    lines = [node.lineno for node in ast.walk(MODULES[module]) if isinstance(node, ast.Assert)]
    assert lines == []


def test_exception_classes_are_raised():
    # a base class counts through the classes derived from it
    tops = [node for tree in MODULES.values() for node in tree.body]
    bases = {
        node.name: {getattr(b, "id", None) for b in node.bases}
        for node in tops
        if isinstance(node, ast.ClassDef)
    }
    errors = {"HoffmanGraphError"}
    while more := {name for name, b in bases.items() if b & errors} - errors:
        errors |= more
    ok = {
        getattr(node.exc, "func", node.exc).id
        for tree in MODULES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
    }
    while more := set().union(*(bases[name] for name in ok if name in bases)) - ok:
        ok |= more
    assert sorted(errors - ok) == []


def _span_targets():
    """``TARGETS`` of ``perfbench/spans.py``, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS")


SPAN_TARGETS = _span_targets()


@pytest.mark.parametrize(
    "module, attr, span", SPAN_TARGETS, ids=[span for _module, _attr, span in SPAN_TARGETS]
)
def test_perfbench_span_targets_exist(module, attr, span):
    # a "Class.method" attribute resolves through the class
    owner = importlib.import_module(f"hoffline.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"{span}: hoffline.{module} has no {attr}"
    assert callable(owner)


def test_ci_workflow_parses():
    # GitHub refuses a workflow that is no YAML mapping, silently; every
    # step must run a command or use an action
    yaml = pytest.importorskip("yaml")
    doc = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    jobs = doc["jobs"]
    assert {"tests", "gated-n9"} <= set(jobs)
    steps = [step for job in jobs.values() for step in job["steps"]]
    assert steps and all("run" in step or "uses" in step for step in steps)
