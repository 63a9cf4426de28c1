"""Command-line entry point: experiment orchestration and reporting.

Subcommands name the experiment kinds::

    dissipeuler simulate   --config cfg.json --out DIR [--seed N]
    dissipeuler vanish     --config cfg.json --out DIR ...
    dissipeuler ym         --config cfg.json --out DIR ...
    dissipeuler martingale --config cfg.json --out DIR ...
    dissipeuler weakstrong --config cfg.json --out DIR ...
    dissipeuler report     --dir  DIR

Every run writes an append-only artifact directory (echoed config, CSV
traces, field snapshots, binary Young-measure files, diagnostics) sealed
by a SHA-256 manifest; ``--out`` must be absent or empty.  Each
experiment returns its audit rows, most of them built by the library
function that computes the audited value, and ``main`` alone writes them
to ``reports/<experiment>.json``, the only place a verdict is stored.  The
(configuration, path) runs of an experiment, the weakstrong references
included, go through ``solver.run_ensemble`` on P = min(N, paths, usable
cores) processes for ``--threads N`` (N >= 1, default 1): this one and
P - 1 forked workers, path i in process i mod P.
Runs reach the experiment in one fixed order, so every artifact keeps
every bit at any N.  Exit status is 0 iff every enabled audit passed, 1 on
an audit failure, 2 on a configuration error (``--threads`` below 1 and
an ``--out`` with files included) and 3 on a crash, a worker's included.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

import numpy as np

from .config import EXPERIMENTS, ConfigError, RunConfig, load_config
from .limits import (
    MartingaleStat,
    energy_inequality_limit,
    linear_model_functionals_multi,
    martingale_test,
    probe_fields,
    run_ladder,
    solver_functionals_multi,
)
from .manifest import RunDirectory
from .reporting import all_passed, audit_row, render_report
from .solver import (BlowUpError, EnergyBudget, apriori_moment_report, run_ensemble,
                     snapshot_steps)
from .spectral import write_field
from .weakstrong import weak_strong_ladder
from .young import (
    TestIntegrand,
    YoungBinner,
    dirac_embed,
    pairing,
    write_measure,
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "report":
        try:
            text = render_report(args.dir)
        except Exception as err:  # missing manifest or artifacts
            print(f"error: {err}", file=sys.stderr)
            return 2
        print(text)
        return 0 if text.endswith("overall: PASS") else 1
    try:
        cfg, raw = load_config(args.config, args.command, args.seed, args.threads)
    except (ConfigError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    out_dir = Path(args.out if args.out is not None else f"runs/{args.command}")
    if out_dir.exists() and (not out_dir.is_dir() or any(out_dir.iterdir())):
        print(f"error: --out {out_dir} must be absent or empty", file=sys.stderr)
        return 2
    try:
        out = RunDirectory(out_dir)
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    out.write_json("config.echo.json", raw)

    runner = {
        "simulate": _run_simulate,
        "vanish": _run_vanish,
        "ym": _run_ym,
        "martingale": _run_martingale,
        "weakstrong": _run_weakstrong,
    }[args.command]
    try:
        rows, extras = runner(cfg, out, args.threads)
        out.write_json(f"reports/{args.command}.json",
                       {"experiment": args.command, "seed": cfg.seed,
                        "rows": rows, **extras})
    except Exception as err:  # a fault in the program, not a failed audit
        traceback.print_exc()
        print(f"crash: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    out.finalize()
    print(render_report(out.root))
    return 0 if all_passed(rows) else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dissipeuler",
        description="spectral experiments for stochastically forced "
                    "incompressible flow on the torus")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None,
                       help="artifact directory (default runs/<experiment>)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=1,
                       help="processes to run the paths on, at most the paths "
                            "and the usable cores (default 1)")
    rep = sub.add_parser("report")
    rep.add_argument("--dir", required=True)
    return parser


# -- simulate ----------------------------------------------------------------


def _run_simulate(cfg: RunConfig, out: RunDirectory, threads: int):
    rows = []
    runs = run_ensemble([cfg.solver], cfg.seed, range(cfg.paths),
                        lambda scfg, path: (EnergyBudget(scfg, path),), threads)
    for _, path, run, err, [trace] in runs:
        tag = f"eps{cfg.solver.eps:g}_path{path.path_id:04d}"
        trace.write_csv(out.path(f"traces/{tag}.csv"))   # partial after a blow-up
        if err is not None:
            rows.append(audit_row(
                f"energy_defect_{tag}", "ns_solver.energy_audit",
                float("inf"), 0.0, f"blow-up: {err}"))
            continue
        write_field(out.path(f"fields/final_{tag}.field"), run.final,
                    cfg.solver.horizon)
        tol = trace.tolerance(cfg.tolerances.energy_defect_c)
        val = trace.max_positive_defect()
        rows.append(audit_row(f"energy_defect_{tag}", "ns_solver.energy_audit",
                              val, tol))
    return rows, {}


# -- vanish ------------------------------------------------------------------


def _run_vanish(cfg: RunConfig, out: RunDirectory, threads: int):
    res = run_ladder(cfg.eps_values, cfg.solver, cfg.seed, range(cfg.paths),
                     cfg.binning, cfg.snapshot_times, threads)

    rows = []
    for eps, survivors in res.traces.items():
        for pid, trace in survivors:
            trace.write_csv(out.path(f"traces/eps{eps:g}_path{pid:04d}.csv"))
    blowup_rows = [audit_row(f"blowup_eps{eps:g}_path{pid}", "ns_solver.run_path",
                             float("inf"), 0.0, msg)
                   for eps, failures in res.blowups.items()
                   for pid, msg in failures]
    if res.family is None:
        return blowup_rows, {}

    for eps, V in res.measures.items():
        write_measure(out.path(f"measures/eps{eps:g}.ym"), V)
    write_measure(out.path("measures/family.ym"), res.family)

    d = res.cauchy_distances
    worst_rise = float(np.max(np.diff(d))) if len(d) > 1 \
        else (-d[0] if d else 0.0)
    rows.append(audit_row(
        "cauchy_distance_decreasing", "limit_verifier.run_ladder",
        worst_rise, 0.0, f"distances={['%.5g' % x for x in d]}"))

    traces = [trace for eps in res.tail for _, trace in res.traces[eps]]
    _, _, finest_trace, residual = res.finest
    tol = finest_trace.tolerance(cfg.tolerances.energy_defect_c)
    limit_rows, details = energy_inequality_limit(res.family, traces,
                                                  cfg.solver.forcing, tol)
    out.write_json("details/energy_limit.json", details)
    rows += limit_rows

    traces_by_eps = {eps: [trace for _, trace in res.traces[eps]]
                     for eps in res.measures}
    rows += apriori_moment_report(traces_by_eps, p=3.0)[0]

    sample_gap = cfg.binning.partition.slab_duration / cfg.young.snapshots_per_slab
    mom_tol = cfg.tolerances.energy_defect_c * sample_gap \
        * (1.0 + finest_trace.initial_energy)
    rows.append(audit_row("momentum_residual_finest",
                          "limit_verifier.momentum_residual",
                          residual, mom_tol))

    return rows + blowup_rows, {}


# -- ym ----------------------------------------------------------------------


def _run_ym(cfg: RunConfig, out: RunDirectory, threads: int):   # one path
    eps = cfg.eps_values[0]
    steps = snapshot_steps(cfg.solver, cfg.snapshot_times)
    [(_, _, _, err, [bins, trace])] = run_ensemble(
        [cfg.solver], cfg.seed, [0],
        lambda scfg, path: (YoungBinner(cfg.binning, steps), EnergyBudget(scfg, path)))
    trace.write_csv(out.path(f"traces/eps{eps:g}_path0000.csv"))   # partial after a blow-up
    if err is not None:
        return _blowup_report("ym", err)
    V = dirac_embed(bins)
    write_measure(out.path("measures/run.ym"), V)

    rows = []
    dim = cfg.solver.grid.dim
    energy_f = TestIntegrand("speed2", quad=(np.eye(dim), np.zeros(dim), 0.0))
    got = pairing(V, energy_f)
    want = float(np.mean(2.0 * trace.energy[sorted(steps)])
                 * cfg.solver.horizon)
    err = abs(got - want) / max(abs(want), 1e-300)
    rows.append(audit_row("pairing_vs_quadrature", "young_measure.pairing",
                          err, 0.02,
                          f"pairing={got:.6g} quadrature={want:.6g}"))

    mass_err = float(np.max(np.abs(V.nu.per_cell(V.partition.n_cells) - 1.0)))
    rows.append(audit_row("histogram_normalization",
                          "young_measure.dirac_embed", mass_err, 1e-12))
    rows.append(audit_row("concentration_mass", "young_measure.dirac_embed",
                          V.lam_total(), 0.0,
                          "quadrature-weighted |u|^2 beyond the truncation ball"))
    bary_norm = float(np.max(np.abs(V.nu_first)))
    rows.append(audit_row("barycenter_bounded", "young_measure.barycenter",
                          bary_norm, cfg.young.radius))
    return rows, {}


def _blowup_report(experiment: str, err: BlowUpError):
    """One failing row for an experiment whose run lost resolution."""
    return [audit_row(f"blowup_{experiment}", "ns_solver.run_path",
                      float("inf"), 0.0, f"blow-up: {err}")], {}


# -- martingale ---------------------------------------------------------------


def _run_martingale(cfg: RunConfig, out: RunDirectory, threads: int):
    scfg = cfg.solver
    fields = probe_fields(scfg.grid)
    pairs = cfg.martingale.pairs
    hists = cfg.martingale.histories
    n_tests = len(fields) * len(pairs) * len(hists) * (2 + scfg.forcing.rank)
    if scfg.transport:
        try:
            functionals = solver_functionals_multi(
                scfg, fields, cfg.seed, range(cfg.paths), pairs, threads)
        except BlowUpError as err:
            return _blowup_report("martingale", err)
    else:
        functionals = linear_model_functionals_multi(
            scfg.forcing, fields, cfg.seed, range(cfg.martingale.linear_paths),
            scfg.dt, scfg.steps, pairs)
    rows = []
    for phi_name, (by_pair, c) in functionals.items():
        for (s, t) in pairs:
            for hist in hists:
                stat = MartingaleStat(phi_name, s, t, history=hist)
                rows += martingale_test(stat, by_pair[(s, t)], c,
                                        n_tests=n_tests,
                                        alpha=cfg.tolerances.martingale_alpha)[0]
    return rows, {"n_tests": n_tests}


# -- weakstrong ----------------------------------------------------------------


def _run_weakstrong(cfg: RunConfig, out: RunDirectory, threads: int):
    try:
        rows, rep = weak_strong_ladder(
            cfg.eps_values, cfg.solver,
            cfg.reference.n, cfg.reference.dt_factor, cfg.seed,
            range(cfg.paths), cfg.binning, cfg.snapshot_times,
            level=cfg.reference.level, slack=cfg.tolerances.gronwall_slack,
            processes=threads)
    except BlowUpError as err:
        return _blowup_report("weakstrong", err)
    return rows, {
        "stopping_times": [float(x) for x in rep["stopping_times"]],
        "sup_by_eps": rep["monotone"]["sup_by_eps"],
        "relative_energy": {f"{eps:g}": rep["per_eps"][eps]["gronwall"]
                            for eps in cfg.eps_values}}


if __name__ == "__main__":
    sys.exit(main())
