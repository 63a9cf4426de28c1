"""Pathwise weak-strong uniqueness audit via the relative energy.

The "strong" solution is operationally a resolved reference: a run on a
finer grid with smaller dt, zero viscosity, and the same Wiener path
(Brownian-bridge refined), declared valid up to the first time its spectral
tail carries more than a configured energy fraction.  Against it the
relative energy

    F(t) = 0.5 int <nu, |xi - v|^2> dx + 0.5 lambda_t(T^dim)

is computed two ways per time slab: directly from the measure, and through
the expanded form E(t) + 0.5 ||v||^2 - <u, v>.  A Gronwall envelope
(F(0) + slack) exp(L t) with the stopping time tau_L (first time
||grad v||_inf exceeds L) closes the audit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forcing import WienerPath
from .reporting import audit_row
from .solver import SolverConfig, SolverRun, Trajectory, run_path
from .spectral import (
    SpectralField,
    TorusGrid,
    gradient_physical,
    l2_norm_sq,
    resample,
    tail_energy_fraction,
)
from .young import (
    CellPartition,
    GeneralizedYoungMeasure,
    dirac_embed,
    energy_of,
)


class WeakStrongError(ValueError):
    pass


@dataclass(frozen=True)
class StrongReference:
    """Resolved reference trajectory with its regularity traces."""

    traj: Trajectory
    grad_sup: np.ndarray       # ||grad v(t)||_inf at snapshot times
    energy_sq: np.ndarray      # ||v(t)||_{L^2}^2 at snapshot times
    horizon: float             # declared life span (resolution diagnostic)

    @property
    def grid(self) -> TorusGrid:
        return self.traj.grid

    def grad_sup_max(self) -> float:
        return float(np.max(self.grad_sup))


def build_reference(run: SolverRun, tail_tol: float = 1e-6) -> StrongReference:
    """Wrap a solver run as a strong reference.

    The horizon is the first snapshot time at which the dealias-band energy
    fraction exceeds tail_tol (the reference is no longer trusted as a
    classical solution there); otherwise the full run horizon.
    """
    if len(run.snapshots) == 0:
        raise WeakStrongError("reference run carries no snapshots")
    grad_sup = np.empty(len(run.snapshots))
    energy_sq = np.empty(len(run.snapshots))
    horizon = float(run.config.horizon)
    for i, f in enumerate(run.snapshots):
        tensor = gradient_physical(f)
        grad_sup[i] = float(np.sqrt((tensor ** 2).sum(axis=(0, 1)).max()))
        energy_sq[i] = l2_norm_sq(f)
        if tail_energy_fraction(f) > tail_tol and horizon >= run.snapshot_times[i]:
            horizon = float(run.snapshot_times[i])
    return StrongReference(run.trajectory(), grad_sup, energy_sq, horizon)


def stopping_time(ref: StrongReference, level: float) -> float:
    """First snapshot time with ||grad v||_inf > level, else the horizon."""
    if level <= 0:
        raise WeakStrongError("threshold must be positive")
    for t, g in zip(ref.traj.times, ref.grad_sup):
        if g > level and t <= ref.horizon:
            return float(t)
    return ref.horizon


# -- relative energy ---------------------------------------------------------


def _slab_snapshots(ref: StrongReference, part: CellPartition,
                    slab: int) -> list:
    """Indices of the reference snapshots inside one time slab."""
    sel = [m for m, t in enumerate(ref.traj.times)
           if part.slab_of(float(t)) == slab]
    if not sel:
        raise WeakStrongError(f"reference has no snapshots in slab {slab}")
    return sel


def _cell_average(ref: StrongReference, part: CellPartition,
                  slab: int) -> np.ndarray:
    """Slab mean of the reference velocity per space cell, (n_space, dim)."""
    sel = _slab_snapshots(ref, part, slab)
    acc = 0.0
    for m in sel:
        acc = acc + part.block_mean(ref.traj.values[m])
    return np.ascontiguousarray(np.moveaxis(acc / len(sel), -1, 0))


def relative_energy(V: GeneralizedYoungMeasure, ref: StrongReference,
                    slab: int) -> dict:
    """F on one slab, via the measure and via the expanded identity.

    measure form:  0.5 sum_cells <nu, |xi - v|^2> vol + 0.5 lambda_t
    expanded form: E_slab + 0.5 ||v||^2 - <barycenter, v>
    The recession of |xi - v|^2 is |xi|^2 = 1 on the sphere, so the
    concentration mass enters both forms in full.
    """
    part = V.partition
    if not 0 <= slab < part.n_t:
        raise WeakStrongError(f"slab {slab} out of range")
    vbar = _cell_average(ref, part, slab)
    nu = V.slab(slab)
    vc = vbar[nu.cell]

    tr = np.trace(nu.sec, axis1=1, axis2=2)
    per_entry = (tr - 2.0 * np.einsum("ei,ei->e", nu.mean, vc)
                 + (vc ** 2).sum(axis=1))
    osc = float(nu.per_cell(part.n_space, per_entry)
                @ np.ones(part.n_space)) * part.space_volume
    measure_form = 0.5 * osc + 0.5 * V.lam_t(slab)

    sel = _slab_snapshots(ref, part, slab)
    v_sq = float(np.mean([ref.energy_sq[m] for m in sel]))
    bary = nu.per_cell(part.n_space, nu.mean)
    cross = float(np.einsum("ci,ci->", bary, vbar)) * part.space_volume
    e_slab = energy_of(V, slab)
    expanded_form = e_slab + 0.5 * v_sq - cross

    # identity agreement is judged against the energy scale of the two
    # sides, not against F itself, which vanishes when weak tracks strong
    scale = e_slab + 0.5 * v_sq
    return {"slab": slab, "measure_form": measure_form,
            "expanded_form": expanded_form,
            "forms_gap": abs(measure_form - expanded_form),
            "scale": scale}


def initial_relative_energy(u0: SpectralField, v0: SpectralField) -> float:
    """F(0-) = 0.5 ||u(0) - v(0)||^2, compared on the finer grid."""
    if u0.grid.n == v0.grid.n:
        return 0.5 * l2_norm_sq(u0 - v0)
    fine, coarse = (u0, v0) if u0.grid.n > v0.grid.n else (v0, u0)
    return 0.5 * l2_norm_sq(fine - resample(coarse, fine.grid))


# -- Gronwall audit -----------------------------------------------------------


def gronwall_audit(times: np.ndarray, f_matrix: np.ndarray, f0: np.ndarray,
                   tau: np.ndarray, level: float, slack: float, eps: float = 0.0):
    """Check E[F(t and tau_L)] <= (E[F(0)] + slack) exp(L t) per time.

    f_matrix[p, i] is path p's relative energy at times[i]; beyond the
    path's stopping time the value freezes (the stopped process).  Returns
    the row ``gronwall_envelope_eps<eps>`` (minus the smallest envelope
    margin) and the envelope, stopped means, margin and stopped supremum.
    """
    times = np.asarray(times, dtype=float)
    f_matrix = np.asarray(f_matrix, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if f_matrix.shape != (len(tau), len(times)):
        raise WeakStrongError("relative-energy matrix shape mismatch")
    mean_f = _stopped(f_matrix, times, tau, f0).mean(axis=0)
    envelope = (float(np.mean(f0)) + slack) * np.exp(level * times)
    min_margin = float(np.min(envelope - mean_f))
    row = audit_row(f"gronwall_envelope_eps{eps:g}", "weak_strong.gronwall_audit",
                    -min_margin, 0.0, f"slack={slack} level={level:.3g}")
    return [row], {
        "times": [float(t) for t in times],
        "mean_stopped_F": [float(x) for x in mean_f],
        "envelope": [float(x) for x in envelope],
        "min_margin": min_margin,
        "sup_mean_F": float(np.max(mean_f)),
        "level": level,
        "slack": slack,
    }


def _stopped(f_matrix: np.ndarray, times: np.ndarray, tau: np.ndarray,
             f0: np.ndarray) -> np.ndarray:
    """The stopped process F(t and tau) per path (row) at the given times.

    A row freezes at its last time <= tau; a path stopped before the first
    time is held at F(0).
    """
    stopped = np.array(f_matrix, dtype=float)
    for p in range(len(tau)):
        alive = times <= tau[p] + 1e-12
        if alive.any():
            last = np.max(np.nonzero(alive)[0])
            stopped[p, last + 1:] = stopped[p, last]
        else:
            stopped[p, :] = float(f0[p])
    return stopped


# -- orchestration ------------------------------------------------------------


def weak_strong_ladder(eps_values, weak_base: SolverConfig,
                       reference_cfg: SolverConfig, seed: int, path_ids,
                       partition: CellPartition, radius: float,
                       snapshot_times, level: float | None = None,
                       slack: float = 0.0, bins_per_axis: int = 16,
                       tail_tol: float = 1e-6):
    """Full weak-strong audit along a viscosity ladder with shared noise.

    Each path's Wiener path is sampled once; the weak runs use it at every
    viscosity and the resolved reference, integrated once per path, uses
    its Brownian-bridge refinement.  Returns the audit rows (F(0) = 0,
    F >= 0, agreement of the two forms of F, the monotone ladder and one
    Gronwall envelope per eps) and the diagnostics: per-eps relative-energy
    matrices with their Gronwall diagnostics, the stopping times and the
    paired monotonicity diagnostics along the ladder.  The reference must
    refine the weak grid and divide its dt by a power of two; both are
    checked before any integration.
    """
    if reference_cfg.grid.n % weak_base.grid.n != 0:
        raise WeakStrongError("reference grid must refine the weak grid")
    ratio = weak_base.dt / reference_cfg.dt
    dt_ratio = int(round(ratio))
    if abs(ratio - dt_ratio) > 1e-9 or dt_ratio < 1:
        raise WeakStrongError("reference dt must divide the weak dt")
    if dt_ratio & (dt_ratio - 1):
        raise WeakStrongError("dt refinement must be a power of two")

    path_ids = list(path_ids)
    paths, refs, ref_ics = {}, {}, {}
    for pid in path_ids:
        paths[pid] = WienerPath.sample(seed, pid, weak_base.rank, weak_base.dt,
                                       weak_base.steps) \
            if weak_base.forcing is not None else None
        ref_path = paths[pid].refined(dt_ratio) \
            if paths[pid] is not None else None
        ref_run = run_path(reference_cfg, seed, pid, path=ref_path,
                           snapshot_times=snapshot_times)
        refs[pid] = build_reference(ref_run, tail_tol=tail_tol)
        ref_ics[pid] = ref_run.snapshots[0]

    if level is None:
        level = 1.05 * max(refs[pid].grad_sup_max() for pid in path_ids)
    taus = np.array([stopping_time(refs[pid], level) for pid in path_ids])
    slab_times = partition.t0 + (np.arange(partition.n_t) + 1.0) \
        * partition.slab_duration

    per_eps, gronwall_rows = {}, []
    for eps in eps_values:
        weak_cfg = weak_base.with_eps(eps)
        f_rows, f0s, gaps = [], [], []
        for pid in path_ids:
            weak_run = run_path(weak_cfg, seed, pid, path=paths[pid],
                                snapshot_times=snapshot_times)
            V = dirac_embed(weak_run.trajectory(), partition, radius,
                            bins_per_axis=bins_per_axis)
            slabs = [relative_energy(V, refs[pid], s)
                     for s in range(partition.n_t)]
            f_rows.append(np.array([s["measure_form"] for s in slabs]))
            f0s.append(initial_relative_energy(weak_run.snapshots[0],
                                               ref_ics[pid]))
            gaps.append(max(s["forms_gap"] / max(s["scale"], 1e-300)
                            for s in slabs))
        f_matrix = np.stack(f_rows)
        rows, audit = gronwall_audit(slab_times, f_matrix, np.asarray(f0s), taus,
                                     level, slack, eps)
        gronwall_rows += rows
        per_eps[eps] = {
            "f_matrix": f_matrix,
            "f0": np.asarray(f0s),
            "max_forms_gap_rel": float(np.max(gaps)),
            "gronwall": audit,
            "sup_mean_F": audit["sup_mean_F"],
        }
    mono_rows, monotone = ladder_monotone_within_ci(per_eps, list(eps_values),
                                                    taus, slab_times)
    module = "weak_strong.relative_energy"
    rows = [
        audit_row("initial_relative_energy", module,
                  max(float(np.max(e["f0"])) for e in per_eps.values()), 1e-12,
                  "identical data and noise force F(0) = 0"),
        audit_row("relative_energy_nonnegative", module,
                  -min(float(np.min(e["f_matrix"])) for e in per_eps.values()),
                  1e-12),
        audit_row("two_forms_agree", module,
                  max(e["max_forms_gap_rel"] for e in per_eps.values()), 0.02),
        *mono_rows, *gronwall_rows]
    return rows, {
        "eps_values": list(eps_values),
        "level": level,
        "slack": slack,
        "stopping_times": taus,
        "per_eps": per_eps,
        "monotone": monotone,
    }


def ladder_monotone_within_ci(per_eps: dict, eps_values, taus,
                              slab_times, z: float = 1.96):
    """Paired test that sup_t E[F(t and tau)] does not increase as eps drops.

    Returns the row ``sup_F_monotone_along_ladder``, whose value is the
    largest drop of the stopped supremum beyond z standard errors (0 for a
    single rung), and the diagnostics {"rows", "sup_by_eps"}.
    """
    sups = {eps: _stopped(per_eps[eps]["f_matrix"], slab_times, taus,
                          per_eps[eps]["f0"]).max(axis=1)
            for eps in eps_values}
    pairs = []
    for a, b in zip(eps_values, eps_values[1:]):
        diff = sups[a] - sups[b]     # should be >= 0: larger eps, larger F
        n = len(diff)
        se = float(diff.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        pairs.append({"from_eps": a, "to_eps": b, "mean_drop": float(diff.mean()),
                      "se": se})
    sup_by_eps = {e: float(np.mean(sups[e])) for e in eps_values}
    worst = float(np.max([-r["mean_drop"] - z * r["se"] for r in pairs])) \
        if pairs else 0.0
    row = audit_row("sup_F_monotone_along_ladder", "weak_strong.gronwall_audit",
                    worst, 0.0, f"sup_by_eps={sup_by_eps}")
    return [row], {"rows": pairs, "sup_by_eps": sup_by_eps}
