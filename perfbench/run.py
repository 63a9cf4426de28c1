"""Benchmark of the dissipeuler CLI: end-to-end cost per workload, per-layer trace.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --record

One client runs a closed loop: each `dissipeuler` child starts when the
previous one has exited.  ``--trace 0`` runs children while another one
fits into ``--seconds`` (at least two) and reports the median of every
end-to-end metric.  ``--trace 1`` runs one untraced child and
two traced ones and reports the per-layer metrics of ``layers.py``.  Every
child is checked: exit status 0, an intact manifest, every audit row
passing, and the named audit values within tolerance of ``reference.json``.
Children of one run share one seed, so their manifests must be identical,
and the exact counts of the two traced children must be equal; otherwise
the benchmark stops with an error.  ``--record`` rewrites the recorded
audit values from one run of every workload on every input seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layers import COUNTS, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_runs"
WORKLOADS = json.loads((BENCH / "workloads.json").read_text())
REFERENCE_FILE = BENCH / "reference.json"

CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
MIN_CHILDREN = 2        # two runs of one seed are needed to check determinism
TRACED_CHILDREN = 2
RUN_BUDGET_S = 170.0    # a child still running then is killed


class BenchError(RuntimeError):
    """The benchmark cannot produce a result: no program, or nondeterminism."""


# -- environment ---------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "caches": _caches(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "child_env": CHILD_ENV}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


# -- one child -----------------------------------------------------------------


def spawn(cli_args, report: Path, log: Path, deadline: float, flags=()) -> dict:
    """Run child.py once; wall, CPU and peak RSS come from the parent's wait4."""
    argv = [sys.executable, str(BENCH / "child.py"), "--report", str(report),
            *flags, "--", *cli_args]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_ENV)
    with open(log, "wb") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    rep = json.loads(report.read_text()) if report.exists() else {}
    setup_end = rep.get("setup_end")
    return {"rc": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
            "setup_s": setup_end - t0 if setup_end is not None else None,
            "report": rep}


def _tree(out: Path):
    files = [p for p in out.rglob("*") if p.is_file()]
    manifest = out / "manifest.json"
    return {"bytes": sum(p.stat().st_size for p in files), "files": len(files),
            "manifest": manifest.read_text() if manifest.exists() else None}


# -- correctness gate ----------------------------------------------------------


def _rows(path: Path):
    return json.loads(path.read_text())["rows"]


def audit_values(experiment: str, out: Path) -> dict:
    """The audit values compared against reference.json, by name."""
    if experiment == "vanish":
        row = next(r for r in _rows(out / "reports/vanish.json")
                   if r["audit"] == "cauchy_distance_decreasing")
        return {f"cauchy_distance[{i}]": float(x)
                for i, x in enumerate(re.findall(r"'([^']*)'", row["detail"]))}
    if experiment == "weakstrong":
        rep = json.loads((out / "reports/weakstrong.json").read_text())
        vals = {f"sup_by_eps[{k}]": v for k, v in rep["sup_by_eps"].items()}
        vals.update({f"gronwall_margin[{k}]": v["min_margin"]
                     for k, v in rep["relative_energy"].items()})
        return vals
    return {r["audit"]: r["value"] for r in _rows(out / "reports/martingale.json")}


def check_child(experiment: str, out: Path, rc: int, recorded) -> list:
    """Reasons the child failed; empty when it passed every check."""
    from dissipeuler.manifest import verify_manifest

    problems = [] if rc == 0 else [f"exit status {rc}"]
    if not (out / "manifest.json").exists():
        return problems + ["no sealed manifest"]
    problems += [f"manifest: {rel} {why}" for rel, why in verify_manifest(out)]
    for rep in sorted((out / "reports").glob("*.json")):
        problems += [f"audit {r['audit']} failed" for r in _rows(rep) if not r["pass"]]
    if recorded is None or problems:
        return problems
    got = audit_values(experiment, out)
    rtol, atol = recorded["rtol"], recorded["atol"]
    for name, want in recorded["values"].items():
        if name not in got or abs(got[name] - want) > rtol * abs(want) + atol:
            problems.append(f"{name} = {got.get(name)} but {want} was recorded")
    return problems


# -- workload runs -------------------------------------------------------------


class WorkloadRun:
    """Children of one workload on one seed, sharing a config and a work dir."""

    def __init__(self, name: str, seed: int, reference: dict):
        self.name = name
        self.spec = WORKLOADS[name]
        seeds = reference["input_seeds"]
        self.input_seed = seeds[seed % len(seeds)]
        values = reference["values"].get(name, {}).get(str(self.input_seed))
        if values is None and reference["values"]:
            raise BenchError(f"{name}: no audit values recorded for input seed "
                             f"{self.input_seed}")
        self.recorded = None if values is None else {
            "rtol": reference["rtol"], "atol": reference["atol"], "values": values}
        self.work = WORK / f"{name}-seed{seed}-{os.getpid()}"
        self.config = self.work / "config.json"
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failures = []
        self.first_tree = None
        self.counts = None

    def __enter__(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        cfg = dict(self.spec["config"])
        cfg["ensemble"] = dict(cfg["ensemble"], seed=self.input_seed)
        self.config.write_text(json.dumps(cfg, indent=2) + "\n")
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run's directory is still there
            pass

    def cli_args(self, out):
        args = [self.spec["experiment"], "--config", str(self.config), "--out", str(out)]
        if self.spec["threads"] != 1:
            args += ["--threads", str(self.spec["threads"])]
        return args

    def child(self, i: int, trace: bool = False, keep: bool = False) -> dict:
        out = self.work / f"run{i}"
        log = self.work / f"run{i}.log"
        r = spawn(self.cli_args(out), self.work / f"run{i}.json", log,
                  self.deadline, ["--trace"] if trace else [])
        self.attempted += 1
        problems = check_child(self.spec["experiment"], out, r["rc"], self.recorded)
        tree = _tree(out) if out.exists() else {"bytes": 0, "files": 0, "manifest": None}
        r["artifact_mb"] = tree["bytes"] / 1e6
        if problems:
            self.failures.append((i, problems, log.read_text()[-2000:]))
        elif self.first_tree is None:
            self.first_tree = tree
        elif tree != self.first_tree:
            raise BenchError(f"{self.name}: child {i} sealed a different tree "
                             "than the first passing child on the same seed")
        if trace:
            spans = r["report"].get("spans", [])
            r["layers"] = layer_metrics(spans, tree["bytes"], tree["files"])
            r["missing"] = r["report"].get("missing", [])
            counts = {m: r["layers"][m] for m in COUNTS}
            if not problems and self.counts is None:
                self.counts = counts
            elif not problems and counts != self.counts:
                diff = {m: (self.counts[m], v) for m, v in counts.items()
                        if v != self.counts[m]}
                raise BenchError(f"{self.name}: exact counts differ between "
                                 f"traced children: {diff}")
        r.pop("report")
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
        return r


def measure(name: str, seed: int, seconds: float, reference: dict) -> tuple:
    """End-to-end samples of one workload, one list per metric."""
    samples = {"wall_s": [], "setup_s": [], "cpu_s": [], "peak_rss_mb": [],
               "artifact_mb": []}
    with WorkloadRun(name, seed, reference) as run:
        start = time.monotonic()
        i, last = 0, 0.0
        # start another child only if one as long as the last still fits
        while i < MIN_CHILDREN or time.monotonic() - start + last <= seconds:
            r = run.child(i)
            for metric in samples:
                if r[metric] is not None:
                    samples[metric].append(r[metric])
            i, last = i + 1, r["wall_s"]
    return samples, run


def trace(name: str, seed: int, reference: dict) -> tuple:
    """Per-layer metrics: one untraced child, then the traced children."""
    with WorkloadRun(name, seed, reference) as run:
        untraced = run.child(0)["wall_s"]
        traced = [run.child(i + 1, trace=True) for i in range(TRACED_CHILDREN)]
    layers = {m: v if m in COUNTS else statistics.median(t["layers"][m] for t in traced)
              for m, v in traced[0]["layers"].items()}
    layers["trace.overhead_s"] = statistics.median(t["wall_s"] for t in traced) - untraced
    return layers, sorted({m for t in traced for m in t["missing"]}), run


def record(reference: dict) -> dict:
    """Audit values of one run per workload and input seed."""
    values = {}
    for name, spec in WORKLOADS.items():
        values[name] = {}
        for k, input_seed in enumerate(reference["input_seeds"]):
            with WorkloadRun(name, k, {**reference, "values": {}}) as run:
                run.child(0, keep=True)
                if run.failures:
                    raise BenchError(f"{name} input seed {input_seed}: "
                                     f"{run.failures[0][1]}")
                values[name][str(input_seed)] = audit_values(
                    spec["experiment"], run.work / "run0")
            print(f"recorded {name} input seed {input_seed}", flush=True)
    return {**reference, "values": values}


# -- output --------------------------------------------------------------------


def _fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def report_e2e(name, samples, run, metrics, out):
    n_fail = len(run.failures)
    print(f"== {name}: input seed {run.input_seed}, {run.spec['experiment']} "
          f"--threads {run.spec['threads']}, {run.attempted} runs")
    for metric, unit in metrics.items():
        vals = samples[metric]
        print(f"  {metric:14} {_fmt(statistics.median(vals)):>12} "
              f"{unit:6} n={len(vals)}  min {_fmt(min(vals))}  "
              f"max {_fmt(max(vals))}")
        out[metric] = {"value": statistics.median(vals), "unit": unit}
    print(f"  {'fail_frac':14} {_fmt(n_fail / run.attempted):>12} ratio  "
          f"n={run.attempted}")


def report_layers(name, layers, missing, run, metrics, out):
    print(f"== {name} (traced): input seed {run.input_seed}, "
          f"{run.attempted} runs, median of {TRACED_CHILDREN} traced")
    for metric, unit in metrics.items():
        print(f"  {metric:34} {_fmt(layers[metric]):>14} {unit}")
        out[metric] = {"value": layers[metric], "unit": unit}
    for target in missing:
        print(f"  warning: trace target {target} not found; its metrics read 0")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the recorded audit values and exit")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src/dissipeuler/cli.py").is_file():
        print(f"error: no dissipeuler sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    reference = json.loads(REFERENCE_FILE.read_text())

    try:
        if args.record:
            REFERENCE_FILE.write_text(json.dumps(record(reference), indent=1) + "\n")
            return 0
        print("env: " + json.dumps(environment(), sort_keys=True))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            out = {}
            if args.trace:
                layers, missing, run = trace(name, args.seed, reference)
                report_layers(name, layers, missing, run, per_layer, out)
            else:
                samples, run = measure(name, args.seed, seconds, reference)
                report_e2e(name, samples, run, e2e, out)
            for i, problems, log in run.failures:
                print(f"  FAILED run {i}: " + "; ".join(problems[:5]))
                print("    " + log.strip().replace("\n", "\n    "))
            attempted += run.attempted
            failed += len(run.failures)
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + m: v for m, v in out.items()})
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
