"""src/ holds only what the program calls.

Every public top-level function or class of ``merton_risk``, and every
public method of a top-level class, must be referenced somewhere in
``src/`` outside its own definition: as a name, an attribute or an import
alias.  Helpers that only tests call belong under ``tests/``.  The one
exception is a target that the benchmark's tracer wraps by name.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

import merton_risk

PACKAGE = Path(merton_risk.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function or class
    and each public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _references(node: ast.AST) -> Counter:
    """How often each name is referenced under node."""
    refs = Counter()
    for cur in ast.walk(node):
        if isinstance(cur, ast.Name):
            refs[cur.id] += 1
        elif isinstance(cur, ast.Attribute):
            refs[cur.attr] += 1
        elif isinstance(cur, ast.alias):
            refs[cur.name] += 1
    return refs


def _traced_targets() -> set:
    """(module, qualified name) of every target the benchmark tracer wraps."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        from tracing import LAYERS
    finally:
        sys.path.remove(str(PERFBENCH))
    return {(module.rpartition(".")[2], name)
            for targets in LAYERS.values() for module, name in targets}


def unreferenced_names() -> list:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    traced = _traced_targets()
    return [f"{module}.{qualname}"
            for module, tree in trees.items()
            for qualname, node in _definitions(tree)
            if (module, qualname) not in traced
            and total[node.name] == _references(node)[node.name]]


def test_every_public_name_has_a_caller_in_src():
    assert unreferenced_names() == []
