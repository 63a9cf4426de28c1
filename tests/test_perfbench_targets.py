"""The benchmark tracer wraps functions by name; every name must resolve.

Every benchmark workload must also load and parse as the benchmark runs it,
so that a schema change shows here rather than as a failed benchmark child.
"""

import ast
import copy
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from dissipeuler import cli
from dissipeuler.config import RunConfig, parse_config

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"
BENCH_RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
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


def _bench_run(monkeypatch):
    """perfbench/run.py as a module, imported without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH_RUN.parent))   # run.py imports layers
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_loads_and_its_command_line_parses(name, monkeypatch,
                                                     tmp_path):
    spec = WORKLOADS[name]
    cfg = parse_config(copy.deepcopy(spec["config"]), spec["experiment"])
    assert isinstance(cfg, RunConfig)
    run = _bench_run(monkeypatch)
    reference = json.loads(run.REFERENCE_FILE.read_text())
    argv = run.WorkloadRun(name, 0, reference).cli_args(tmp_path / "out")
    args = cli._build_parser().parse_args(argv)
    assert (args.command, args.threads) == (spec["experiment"], spec["threads"])
