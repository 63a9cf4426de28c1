"""The benchmark tracer wraps functions by name; every name must resolve."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.TARGETS


@pytest.mark.parametrize("modname,attr", [t[:2] for t in _targets()])
def test_trace_target_resolves(modname, attr):
    obj = importlib.import_module(modname)
    for part in attr.split("."):
        obj = inspect.getattr_static(obj, part)
    assert callable(obj)
