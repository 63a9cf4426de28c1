"""Command-line entry point: experiment orchestration and reporting.

Subcommands name the experiment kinds::

    dissipeuler simulate   --config cfg.json --out DIR [--seed N]
    dissipeuler vanish     --config cfg.json --out DIR ...
    dissipeuler ym         --config cfg.json --out DIR ...
    dissipeuler martingale --config cfg.json --out DIR ...
    dissipeuler weakstrong --config cfg.json --out DIR ...
    dissipeuler report     --dir  DIR

Every run writes an append-only artifact directory (echoed config, CSV
traces, field snapshots, diagnostics) sealed by a SHA-256 manifest.  Each
experiment returns its audit rows, most of them built by the library
function that computes the audited value, and ``main`` alone writes them
to ``reports/<experiment>.json``, the only place a verdict is stored.  Runs
are sequential: the (viscosity, path) runs of an experiment go one after
another in fixed order.  ``--threads N`` is accepted for compatibility and
ignored.  Exit status is 0 iff every enabled audit passed, 1 on an audit
failure, 2 on a configuration error and 3 on a crash.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

import numpy as np

from .config import ConfigError, RunConfig, check_seed, load_config
from .limits import (
    MartingaleStat,
    ViscosityLadder,
    energy_inequality_limit,
    guarded_run,
    linear_model_functionals_multi,
    martingale_test,
    momentum_residual,
    run_ladder,
    solver_functionals_multi,
)
from .manifest import RunDirectory
from .reporting import all_passed, audit_row, render_report
from .solver import BlowUpError, apriori_moment_report
from .spectral import SpectralField, TorusGrid, kinetic_energy, write_field
from .weakstrong import weak_strong_ladder
from .young import (
    TestIntegrand,
    barycenter,
    dirac_embed,
    measure_to_dict,
    pairing,
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
        cfg = load_config(args.config, args.command)
        if args.seed is not None:
            cfg = _override_seed(cfg, args.seed)
    except (ConfigError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    out_dir = args.out if args.out is not None else f"runs/{args.command}"
    try:
        out = RunDirectory(out_dir)
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    from pathlib import Path
    raw = json.loads(Path(args.config).read_text())
    if args.seed is not None:
        raw.setdefault("ensemble", {})["seed"] = args.seed
    out.write_json("config.echo.json", raw)

    runner = {
        "simulate": _run_simulate,
        "vanish": _run_vanish,
        "ym": _run_ym,
        "martingale": _run_martingale,
        "weakstrong": _run_weakstrong,
    }[args.command]
    try:
        rows, extras = runner(cfg, out)
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
    for name in ("simulate", "vanish", "ym", "martingale", "weakstrong"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None,
                       help="artifact directory (default runs/<experiment>)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored; runs are sequential")
    rep = sub.add_parser("report")
    rep.add_argument("--dir", required=True)
    return parser


def _override_seed(cfg: RunConfig, seed: int) -> RunConfig:
    from dataclasses import replace
    return replace(cfg, seed=check_seed(seed))


def _test_fields(grid):
    """Two fixed divergence-free low-mode test functions.

    Parities are chosen to overlap the default forcing modes so the
    stochastic pairings <Phi e_k, phi> are nontrivial.
    """
    d1 = np.zeros(grid.dim, dtype=complex)
    d1[0] = 0.5 / 1j          # sin(k1 . x) e_1
    d2 = np.zeros(grid.dim, dtype=complex)
    d2[1] = 0.5               # cos(k2 . x) e_2
    k1 = (0, 1) if grid.dim == 2 else (0, 1, 0)
    k2 = (1, 0) if grid.dim == 2 else (1, 0, 0)
    return [("phi1", SpectralField.from_modes(grid, {k1: d1})),
            ("phi2", SpectralField.from_modes(grid, {k2: d2}))]


# -- simulate ----------------------------------------------------------------


def _run_simulate(cfg: RunConfig, out: RunDirectory):
    eps = cfg.eps_values[0]
    scfg = cfg.solver_config(eps)

    rows = []
    for pid in range(cfg.paths):
        run, err = guarded_run(scfg, cfg.seed, pid, snapshot_times=[])
        tag = f"eps{eps:g}_path{pid:04d}"
        if err is not None:
            if err.partial is not None:
                err.partial.write_csv(out.path(f"traces/{tag}.csv"))
            rows.append(audit_row(
                f"energy_defect_{tag}", "ns_solver.energy_audit",
                float("inf"), 0.0, f"blow-up: {err}"))
            continue
        run.trace.write_csv(out.path(f"traces/{tag}.csv"))
        write_field(out.path(f"fields/final_{tag}.field"), run.final,
                    cfg.horizon)
        tol = run.trace.tolerance(cfg.tolerances.energy_defect_c)
        val = run.trace.max_positive_defect()
        rows.append(audit_row(f"energy_defect_{tag}", "ns_solver.energy_audit",
                              val, tol))
    return rows, {}


# -- vanish ------------------------------------------------------------------


def _run_vanish(cfg: RunConfig, out: RunDirectory):
    part = cfg.partition
    snaps = cfg.snapshot_times
    base = cfg.solver_config(cfg.eps_values[0])
    ladder = ViscosityLadder(cfg.eps_values, base, cfg.seed,
                             tuple(range(cfg.paths)))

    res = run_ladder(ladder, part, cfg.young.radius, snapshot_times=snaps,
                     bins_per_axis=cfg.young.bins_per_axis,
                     sphere_bins=cfg.young.sphere_bins)

    rows = []
    for eps in cfg.eps_values:
        for run in res.runs.get(eps, []):
            run.trace.write_csv(
                out.path(f"traces/eps{eps:g}_path{run.path_id:04d}.csv"))
    blowup_rows = [audit_row(f"blowup_eps{eps:g}_path{pid}", "ns_solver.run_path",
                             float("inf"), 0.0, msg)
                   for eps, failures in res.blowups.items()
                   for pid, msg in failures]
    if res.family is None:
        return blowup_rows, {}

    for eps, V in res.measures.items():
        out.write_json(f"measures/eps{eps:g}.json", measure_to_dict(V))
    out.write_json("measures/family.json", measure_to_dict(res.family))

    d = res.cauchy_distances
    worst_rise = float(np.max(np.diff(d))) if len(d) > 1 \
        else (-d[0] if d else 0.0)
    rows.append(audit_row(
        "cauchy_distance_decreasing", "limit_verifier.run_ladder",
        worst_rise, 0.0, f"distances={['%.5g' % x for x in d]}"))

    traces = [r.trace for eps in res.tail for r in res.runs[eps]]
    finest = res.runs[res.tail[-1]][0]
    tol = finest.trace.tolerance(cfg.tolerances.energy_defect_c)
    limit_rows, details = energy_inequality_limit(res.family, traces,
                                                  cfg.forcing, tol)
    out.write_json("details/energy_limit.json", details)
    rows += limit_rows

    traces_by_eps = {eps: [r.trace for r in res.runs[eps]]
                     for eps in res.measures}
    rows += apriori_moment_report(traces_by_eps, p=3.0)[0]

    phi = _test_fields(cfg.grid)[0][1]
    residual = momentum_residual(finest, cfg.forcing,
                                 res.paths[finest.path_id], phi, t=cfg.horizon)
    sample_gap = part.slab_duration / cfg.young.snapshots_per_slab
    mom_tol = cfg.tolerances.energy_defect_c * sample_gap \
        * (1.0 + finest.trace.initial_energy)
    rows.append(audit_row("momentum_residual_finest",
                          "limit_verifier.momentum_residual",
                          residual, mom_tol))

    return rows + blowup_rows, {}


# -- ym ----------------------------------------------------------------------


def _run_ym(cfg: RunConfig, out: RunDirectory):
    eps = cfg.eps_values[0]
    part = cfg.partition
    snaps = cfg.snapshot_times
    run, err = guarded_run(cfg.solver_config(eps), cfg.seed, 0,
                           snapshot_times=snaps)
    if err is not None:
        return _blowup_report(out, "ym", err, f"eps{eps:g}_path0000")
    traj = run.trajectory()
    V = dirac_embed(traj, part, cfg.young.radius,
                    bins_per_axis=cfg.young.bins_per_axis,
                    sphere_bins=cfg.young.sphere_bins)
    out.write_json("measures/run.json", measure_to_dict(V))
    run.trace.write_csv(out.path(f"traces/eps{eps:g}_path0000.csv"))

    rows = []
    dim = cfg.grid.dim
    energy_f = TestIntegrand("speed2", quad=(np.eye(dim), np.zeros(dim), 0.0))
    got = pairing(V, energy_f)
    want = float(np.mean([2.0 * kinetic_energy(s) for s in run.snapshots])
                 * cfg.horizon)
    err = abs(got - want) / max(abs(want), 1e-300)
    rows.append(audit_row("pairing_vs_quadrature", "young_measure.pairing",
                          err, 0.02,
                          f"pairing={got:.6g} quadrature={want:.6g}"))

    mass_err = float(np.max(np.abs(V.nu.per_cell(part.n_cells) - 1.0)))
    rows.append(audit_row("histogram_normalization",
                          "young_measure.dirac_embed", mass_err, 1e-12))
    rows.append(audit_row("clipping_fraction", "young_measure.dirac_embed",
                          V.clipped_fraction, 0.0,
                          "values escaping the truncation ball"))
    bary_norm = float(np.max(np.abs(barycenter(V))))
    rows.append(audit_row("barycenter_bounded", "young_measure.barycenter",
                          bary_norm, cfg.young.radius))
    return rows, {}


def _blowup_report(out: RunDirectory, experiment: str, err: BlowUpError,
                   tag: str | None = None):
    """One failing row for a run that lost resolution, plus its partial trace."""
    if tag is not None and err.partial is not None:
        err.partial.write_csv(out.path(f"traces/{tag}.csv"))
    return [audit_row(f"blowup_{experiment}", "ns_solver.run_path",
                      float("inf"), 0.0, f"blow-up: {err}")], {}


# -- martingale ---------------------------------------------------------------


def _run_martingale(cfg: RunConfig, out: RunDirectory):
    fields = _test_fields(cfg.grid)
    pairs = cfg.martingale.pairs
    hists = cfg.martingale.histories
    n_tests = len(fields) * len(pairs) * len(hists) * (2 + cfg.forcing.rank)
    if cfg.transport:
        try:
            functionals = solver_functionals_multi(
                cfg.solver_config(cfg.eps_values[0]), fields, cfg.seed,
                range(cfg.paths), pairs)
        except BlowUpError as err:
            return _blowup_report(out, "martingale", err)
    else:
        functionals = linear_model_functionals_multi(
            cfg.forcing, fields, cfg.seed, range(cfg.martingale.linear_paths),
            cfg.dt, int(round(cfg.horizon / cfg.dt)), pairs)
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


def _run_weakstrong(cfg: RunConfig, out: RunDirectory):
    from dataclasses import replace

    part = cfg.partition
    snaps = cfg.snapshot_times
    weak_base = cfg.solver_config(cfg.eps_values[0])
    ref_grid = TorusGrid(cfg.grid.dim, cfg.reference.n)
    ref_cfg = replace(weak_base, grid=ref_grid, eps=0.0,
                      dt=cfg.dt / cfg.reference.dt_factor)

    try:
        rows, rep = weak_strong_ladder(
            cfg.eps_values, weak_base, ref_cfg, cfg.seed, range(cfg.paths),
            part, cfg.young.radius, snaps, level=cfg.reference.level,
            slack=cfg.tolerances.gronwall_slack,
            bins_per_axis=cfg.young.bins_per_axis,
            tail_tol=cfg.reference.tail_tol)
    except BlowUpError as err:
        return _blowup_report(out, "weakstrong", err)
    return rows, {
        "stopping_times": [float(x) for x in rep["stopping_times"]],
        "sup_by_eps": rep["monotone"]["sup_by_eps"],
        "relative_energy": {f"{eps:g}": rep["per_eps"][eps]["gronwall"]
                            for eps in cfg.eps_values}}


if __name__ == "__main__":
    sys.exit(main())
