"""src/ holds only what the program calls.

Three kinds of dead surface fail here:

- a public name with no reference in ``src/`` outside its own definition
  (as a name, an attribute or an import alias): a top-level function or
  class of ``merton_risk``, a method of a top-level class, or a name
  assigned at module level;
- a public field of a dataclass that no code in ``src/`` reads as an
  attribute;
- a defaulted parameter of a public function or method that no call in
  ``src/`` sets, by keyword, by position or through ``functools.partial``,
  and likewise a defaulted public field of a dataclass that no
  construction in ``src/`` sets: a call of the class (``cls(...)`` inside
  its own methods) by keyword or by position, or ``dataclasses.replace``
  by keyword.  Fields with ``init=False`` are skipped.

Helpers that only tests call belong under ``tests/``.  A target that the
benchmark's tracer wraps by name is exempt from the first check.
``KEPT_UNREFERENCED`` names each other name exempt from the first check,
and ``KEPT_DEFAULTS`` each parameter exempt from the third, with its
reason; each fails once the exemption is no longer needed.

The scan matches spellings, not bindings, so it has blind spots:

- dunder methods (``__init__``, ``__call__`` and the like) are out of its
  reach;
- every name is counted with all others spelled alike.  A method read
  only by tests passes while another class's field or method of the same
  name is read in ``src/``: ``RiskProfile.satisfied`` went unseen because
  ``ConditionCheck.satisfied`` is read.  Likewise a call sets a parameter
  of every function or method of the callee's name;
- a call through a name bound at run time (a callback such as
  ``BoundRules.budget``) is not traced to the function behind it, so it
  sets none of that function's parameters.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

import merton_risk

PACKAGE = Path(merton_risk.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (module, qualified name) -> why it stays with no reference in src/
KEPT_UNREFERENCED = {
    ("mc", "PathEnsemble.wealth"):
        "the benchmark tracer's _count reads the sampled wealth's shape and bytes",
}

# (module, qualified name, parameter or field) -> why no src/ call sets it
KEPT_DEFAULTS = {
    ("mc", "SimConfig", "time_grid"):
        "tests pin the monitoring times of a simulation",
    ("hjb", "hamiltonian_argmax_check", "n_probes"):
        "tests vary the probe count of the Hamiltonian check",
    ("cli", "main", "argv"):
        "the in-process seam through which tests and the benchmark call the CLI",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module):
    """(qualified name, name, node) of each public top-level function,
    class and assigned name, and each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and _public(name.id):
                        yield name.id, name.id, node
            continue
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if _public(node.name):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield f"{node.name}.{item.name}", item.name, item


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


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def unreferenced_names() -> list:
    trees = _trees()
    total = sum((_references(tree) for tree in trees.values()), Counter())
    traced = _traced_targets()
    return [f"{module}.{qualname}"
            for module, tree in trees.items()
            for qualname, name, node in _definitions(tree)
            if (module, qualname) not in traced
            and total[name] == _references(node)[name]]


def _callee(func: ast.AST):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _call_sites(tree: ast.Module):
    """(callee name, positional count, keyword names) of each call; a
    partial(f, ...) is a call of f.  A starred argument sets every
    positional parameter."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name, args = _callee(node.func), node.args
        if name == "partial" and args:
            name, args = _callee(args[0]), args[1:]
        if name is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in args)
        yield name, (float("inf") if starred else len(args)), {kw.arg for kw in node.keywords}


def _defaulted(node: ast.FunctionDef):
    """(parameter, positional index or None) of each defaulted parameter;
    the index counts from the first argument a call passes, after self or cls."""
    a = node.args
    positional = a.posonlyargs + a.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(a.defaults)
    for index, arg in enumerate(positional[first:], start=first - skip):
        yield arg.arg, index
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _dataclasses(tree: ast.Module):
    """Each public top-level class under a @dataclass decorator."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _public(node.name) and any(
                _callee(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                for d in node.decorator_list):
            yield node


def _fields(node: ast.ClassDef):
    """(field, positional index or None, defaulted) of each public field;
    the index counts the fields __init__ takes, and is None for an
    init=False field."""
    index = 0
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value, init = item.value, True
        defaulted = value is not None
        if isinstance(value, ast.Call) and _callee(value.func) == "field":
            kws = {kw.arg: kw.value for kw in value.keywords}
            init = not (isinstance(kws.get("init"), ast.Constant) and kws["init"].value is False)
            defaulted = "default" in kws or "default_factory" in kws
        if _public(item.target.id):
            yield item.target.id, index if init else None, defaulted
        index += init


def unread_fields() -> list:
    reads = Counter(node.attr for tree in _trees().values() for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    return [f"{module}.{node.name}.{name}"
            for module, tree in _trees().items() for node in _dataclasses(tree)
            for name, _, _ in _fields(node) if reads[name] == 0]


def _sets(calls, name: str, param: str, index) -> bool:
    """Whether a call of name sets param, by keyword or at index."""
    return any(callee == name and (param in kws or (index is not None and n > index))
               for callee, n, kws in calls)


def unset_defaults() -> set:
    trees = _trees()
    calls = [site for tree in trees.values() for site in _call_sites(tree)]
    found = set()
    for module, tree in trees.items():
        for qualname, name, node in _definitions(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for param, index in _defaulted(node):
                if not _sets(calls, name, param, index):
                    found.add((module, qualname, param))
        for node in _dataclasses(tree):
            # cls(...) in the class's own methods constructs it too
            built = calls + [(node.name, n, kws) for callee, n, kws in _call_sites(node)
                             if callee == "cls"]
            for field, index, defaulted in _fields(node):
                if (defaulted and index is not None
                        and not _sets(built, node.name, field, index)
                        and not _sets(built, "replace", field, None)):
                    found.add((module, node.name, field))
    return found


def test_every_public_name_has_a_caller_in_src():
    assert unreferenced_names() == [f"{module}.{name}"
                                    for module, name in KEPT_UNREFERENCED]


def test_every_dataclass_field_is_read_in_src():
    assert unread_fields() == []


def test_every_default_parameter_is_set_by_a_call_in_src():
    assert unset_defaults() == set(KEPT_DEFAULTS)
