"""Every public function and method of the package is used somewhere.

A public module-level function or public method (properties included)
counts as used if its name is referenced in ``src/`` outside its own
definition, if ``tests/test_acceptance.py`` imports it, or if it is a
trace target of the benchmark (``TARGETS`` in ``perfbench/child.py``).
Anything else is dead weight: wire it into an experiment or delete it.
The exceptions below are kept on purpose.  Likewise every name a module
of ``src/`` imports must be read in that module.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dissipeuler"

EXCEPTIONS = {
    "read_field": "reads back the field snapshots the CLI writes",
    "read_measure": "reads back the measure files the CLI writes",
    "divergence_defect": "the solver-invariant oracle of the tests",
    "TorusGrid.dof": "read by the benchmark tracer's run_path counters",
}


def _is_public_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
        and not node.name.startswith("_")


def _definitions():
    """(qualified name, bare name, node) of every public function and method."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if _is_public_def(node):
                yield node.name, node.name, node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if _is_public_def(item):
                        yield f"{node.name}.{item.name}", item.name, item


def _references(tree) -> Counter:
    """How often each name is read as a bare name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _acceptance_imports() -> set:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {alias.name for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom)
            and (n.module or "").startswith("dissipeuler")
            for alias in n.names}


def _trace_targets() -> set:
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return {entry.elts[1].value for entry in node.value.elts}
    raise AssertionError("perfbench/child.py defines no TARGETS")


def _unused() -> list:
    refs = sum((_references(ast.parse(p.read_text()))
                for p in sorted(SRC.glob("*.py"))), Counter())
    external = _acceptance_imports() | _trace_targets()
    out = []
    for qualname, name, node in _definitions():
        if qualname in external or name in external:
            continue
        if refs[name] - _references(node)[name] == 0:
            out.append(qualname)
    return out


def test_every_public_definition_is_used():
    unused = [q for q in _unused() if q not in EXCEPTIONS]
    assert unused == [], f"public but unused: {unused}"


def test_exceptions_are_current():
    # an exception that is now used, or no longer defined, must leave the list
    assert sorted(_unused()) == sorted(EXCEPTIONS)


def _unused_imports(tree) -> list:
    """Names an import binds that the module never reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    refs = _references(tree)
    return [name for name in bound if refs[name] == 0]


def test_every_import_is_read():
    unused = {p.name: _unused_imports(ast.parse(p.read_text()))
              for p in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in unused.items() if v} == {}
