"""The benchmark tracer wraps functions by name; every name must resolve."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"
SRC = ROOT / "src" / "dissipeuler"
# targets no code path of the experiments calls; each must stay unreferenced
UNREFERENCED = {("dissipeuler.young", "estimate_from_family")}


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.TARGETS


def _referenced(name: str) -> bool:
    """Whether src/ names ``name`` outside a definition of it."""
    for path in SRC.glob("*.py"):
        stack = [ast.parse(path.read_text())]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name == name:
                continue
            if (isinstance(node, ast.Name) and node.id == name) or \
                    (isinstance(node, ast.Attribute) and node.attr == name):
                return True
            stack.extend(ast.iter_child_nodes(node))
    return False


@pytest.mark.parametrize("modname,attr", [t[:2] for t in _targets()])
def test_trace_target_resolves(modname, attr):
    obj = importlib.import_module(modname)
    for part in attr.split("."):
        obj = inspect.getattr_static(obj, part)
    assert callable(obj)


@pytest.mark.parametrize("modname,attr", [t[:2] for t in _targets()])
def test_trace_target_on_the_experiments_path(modname, attr):
    # a target only tests reach times nothing in a benchmark run
    referenced = _referenced(attr.rpartition(".")[2])
    assert referenced != ((modname, attr) in UNREFERENCED)


def test_unreferenced_list_names_targets():
    assert UNREFERENCED <= {t[:2] for t in _targets()}
