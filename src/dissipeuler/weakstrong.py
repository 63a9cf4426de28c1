"""Pathwise weak-strong uniqueness audit via the relative energy.

The "strong" solution is operationally a resolved reference: the weak
run's configuration on a finer grid with dt divided by a power of two, zero
viscosity, and the same Wiener path (Brownian-bridge refined).  Every state
lies in the dealias band, so the reference is trusted up to its horizon;
only the stopping time tau_L below cuts it short.  The reference is one
more configuration of ``solver.run_ensemble``, run once per path before
the ladder's rungs.  The observer ``build_reference`` builds for each path
reduces that path's reference run, as it runs, on the audit's partition to
what the relative energy reads per time slab: its slab-mean velocity per
space cell and its slab-mean ||v||^2, from each state's band coefficients
and point values, so the run keeps no snapshot.  At step 0 it takes F(0)
on the reference's band, in which it embeds the weak run's start,
``initial_state`` of the weak configuration.  Against the reference the
relative energy

    F(t) = 0.5 int <nu, |xi - v|^2> dx + 0.5 lambda_t(T^dim)

is computed two ways per time slab: directly from the measure, and through
the expanded form E(t) + 0.5 ||v||^2 - <u, v>.  A Gronwall envelope
(F(0) + slack) exp(L t) with the stopping time tau_L (first time
||grad v||_inf exceeds L) closes the audit.

``weak_strong_ladder`` checks its arguments before any run by the rules
the loader applies to the same fields, each stated once by the module
that owns it; the reference-grid and Gronwall-level rules live here.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .forcing import WienerPath, refinement_halvings
from .limits import decreasing_rungs
from .reporting import audit_row
from .solver import (SolverConfig, check_viscosity, initial_state, run_ensemble,
                     snapshot_steps)
from .spectral import (
    SpectralField,
    TorusGrid,
    _band_energy_and_grad_norm_sq,
    band_embed,
    band_gradient,
    l2_norm_sq,
)
from .young import (
    Binning,
    CellPartition,
    GeneralizedYoungMeasure,
    YoungBinner,
    dirac_embed,
    energy_of,
)


class WeakStrongError(ValueError):
    pass


@dataclass(frozen=True)
class StrongReference:
    """Resolved reference run reduced to its regularity traces and per-slab
    means, with its path's F(0)."""

    times: np.ndarray           # snapshot times
    grad_sup: np.ndarray        # ||grad v(t)||_inf at snapshot times
    horizon: float              # the reference run's horizon
    cell_mean: np.ndarray       # (n_t, n_space, dim) slab mean of v per space cell
    slab_energy_sq: np.ndarray  # (n_t,) slab mean of ||v(t)||_{L^2}^2
    f0: float                   # F(0) against the weak run's start

    def grad_sup_max(self) -> float:
        return float(np.max(self.grad_sup))


class ReferenceReduction:
    """Observer reducing the reference run of ``path`` on ``grid`` to
    ``partition`` as it runs; its ``payload()`` is the ``StrongReference``.

    At step 0 it takes F(0), ``initial_relative_energy`` of the weak run's
    start ``initial_state(weak, path.seed, path.path_id)`` and the
    reference start, both band arrays.  At the steps ``snapshot_steps`` it
    reads ||grad v||_inf (``band_gradient``), the space-cell averages of
    the point values and ||v||^2, and keeps nothing of the state; only
    ||v||^2 reads the full-layout field, formed from the band at these
    steps.  The payload gives each time slab the
    mean over its snapshots of the cell averages and of ||v||^2; a slab
    without a snapshot is an error.
    """

    def __init__(self, grid: TorusGrid, partition: CellPartition, snapshot_steps,
                 horizon: float, weak: SolverConfig, path: WienerPath):
        self.grid, self.partition, self.weak, self.path = grid, partition, weak, path
        self.horizon = float(horizon)
        self.snapshot_steps = frozenset(snapshot_steps)
        self.steps = self.snapshot_steps | {0}
        # per snapshot, then per slab in time order
        self._times, self._grad_sup, self._sums, self._norms = [], [], {}, {}

    def on_state(self, n, t, band, phys):
        grid = self.grid
        if n == 0:
            u0 = initial_state(self.weak, self.path.seed, self.path.path_id)
            self.f0 = initial_relative_energy(self.weak.grid, u0, grid, band)
        if n not in self.snapshot_steps:
            return
        tensor = band_gradient(grid, band)
        self._grad_sup.append(float(np.sqrt((tensor ** 2).sum(axis=(0, 1)).max())))
        self._times.append(t)
        slab = self.partition.slab_of(float(t))
        self._sums[slab] = self._sums.get(slab, 0.0) + self.partition.block_mean(phys)
        v = SpectralField(grid, grid.ops.from_band(band))
        self._norms.setdefault(slab, []).append(l2_norm_sq(v))

    def payload(self) -> StrongReference:
        cell_mean, slab_energy_sq = [], []
        for s in range(self.partition.n_t):
            if s not in self._sums:
                raise WeakStrongError(f"reference has no snapshots in slab {s}")
            count = len(self._norms[s])
            cell_mean.append(np.ascontiguousarray(
                np.moveaxis(self._sums[s] / count, -1, 0)))
            slab_energy_sq.append(np.mean(self._norms[s]))
        return StrongReference(np.asarray(self._times, dtype=float),
                               np.array(self._grad_sup), self.horizon,
                               np.stack(cell_mean), np.array(slab_energy_sq),
                               self.f0)


def build_reference(cfg: SolverConfig, partition: CellPartition, snapshot_times,
                    weak: SolverConfig):
    """The observers of the runs of the reference ``cfg``: the returned
    function of a Wiener path builds the ``ReferenceReduction`` of that
    path's run on ``partition``, with F(0) against the start of the weak
    configuration ``weak``.

    The snapshot times map to steps of ``cfg`` by ``step_index`` here, once,
    so a time off its step grid fails before any integration.
    """
    return partial(ReferenceReduction, cfg.grid, partition,
                   snapshot_steps(cfg, snapshot_times, WeakStrongError),
                   cfg.horizon, weak)


def check_reference_n(weak_n: int, ref_n: int, error=WeakStrongError) -> None:
    """The reference grid refines the weak one: ``ref_n`` is a multiple of
    ``weak_n`` (a NaN is not), or ``error``."""
    if not ref_n % weak_n == 0:
        raise error(f"reference grid must refine the weak grid: n={ref_n} is "
                    f"not a multiple of n={weak_n}")


def check_level(level: float, error=WeakStrongError) -> None:
    """A Gronwall level L is positive and finite (a NaN is not), or ``error``."""
    if not 0 < level < np.inf:
        raise error(f"threshold must be positive and finite, got {level}")


def stopping_time(ref: StrongReference, level: float) -> float:
    """First snapshot time with ||grad v||_inf > level, else the horizon."""
    check_level(level)
    for t, g in zip(ref.times, ref.grad_sup):
        if g > level:
            return float(t)
    return ref.horizon


# -- relative energy ---------------------------------------------------------


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
    if ref.cell_mean.shape != (part.n_t, part.n_space, V.dim):
        raise WeakStrongError("reference was reduced on another partition")
    vbar = ref.cell_mean[slab]
    cells = part.slab_cells(slab)
    first = V.nu_first[cells]

    # <nu, |xi - v|^2> = tr <nu, xi (x) xi> - 2 <nu, xi>.v + |v|^2 per cell
    per_cell = (np.trace(V.nu_second[cells], axis1=1, axis2=2)
                - 2.0 * np.einsum("ci,ci->c", first, vbar) + (vbar ** 2).sum(axis=1))
    osc = float(per_cell.sum()) * part.space_volume
    measure_form = 0.5 * osc + 0.5 * V.lam_t(slab)

    v_sq = float(ref.slab_energy_sq[slab])
    cross = float(np.einsum("ci,ci->", first, vbar)) * part.space_volume
    e_slab = energy_of(V, slab)
    expanded_form = e_slab + 0.5 * v_sq - cross

    # identity agreement is judged against the energy scale of the two
    # sides, not against F itself, which vanishes when weak tracks strong
    scale = e_slab + 0.5 * v_sq
    return {"slab": slab, "measure_form": measure_form,
            "expanded_form": expanded_form,
            "forms_gap": abs(measure_form - expanded_form),
            "scale": scale}


def initial_relative_energy(weak: TorusGrid, u0: np.ndarray, fine: TorusGrid,
                            v0: np.ndarray) -> float:
    """F(0-) = 0.5 ||u(0) - v(0)||^2 of the band arrays ``u0`` on ``weak`` and
    ``v0`` on its refinement ``fine``, by the runs' Parseval sum on the latter."""
    return _band_energy_and_grad_norm_sq(fine, band_embed(weak, u0, fine) - v0)[0]


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


def weak_strong_ladder(eps_values, weak_base: SolverConfig, ref_n: int,
                       dt_factor: int, seed: int, path_ids, binning: Binning,
                       snapshot_times, level: float | None = None,
                       slack: float = 0.0, processes: int = 1):
    """Full weak-strong audit along a viscosity ladder with shared noise.

    The reference is ``weak_base`` on the grid of size ``ref_n`` with zero
    viscosity and dt divided by ``dt_factor``.  ``solver.run_ensemble``
    runs the reference and then the rungs config-major, on up to
    ``processes`` processes: every path of one configuration, then the
    next.  It draws every Wiener path once, at the dt and steps of
    ``weak_base``, and runs the reference on the Brownian-bridge
    refinement of the path.  Every run is observed where it runs, by its
    own observer, whose payload comes back with the run: a reference run
    by the ``ReferenceReduction`` of ``build_reference`` on the partition
    of ``binning``, which also takes the path's F(0), and a weak run by a
    ``YoungBinner`` of ``binning`` at the snapshot steps, whose bins
    ``dirac_embed`` builds into the run's own measure here; each weak run
    is then compared with its path's reference.  The
    first blow-up, of a reference or a weak run (the references run
    first), is raised.  Returns the audit rows (F(0) = 0, F >= 0,
    agreement of the two forms of F, the monotone ladder and one Gronwall
    envelope per eps) and the diagnostics: per-eps
    relative-energy matrices with their Gronwall diagnostics, the stopping
    times and the paired monotonicity diagnostics along the ladder.  An
    unset ``level`` L is 1.05 times the largest ||grad v||_inf of the
    references; if every reference is flat that is 0, and no path stops.
    Checked before any integration, each by the rule of its owner, which
    raises ``WeakStrongError`` here: the ladder is non-empty and strictly
    decreasing (``limits.decreasing_rungs``) with no negative rung
    (``solver.check_viscosity``: an eps = 0 rung is allowed), a given level
    is positive (``check_level``), the reference refines the weak grid
    (``check_reference_n``) and divides its dt by a power of two
    (``forcing.refinement_halvings``), and the snapshot times lie on the
    weak step grid (``solver.snapshot_steps``) and reach every time slab
    (``CellPartition.check_slabs``).
    """
    eps_values = decreasing_rungs(eps_values, WeakStrongError)
    for eps in eps_values:   # eps = 0 is allowed
        check_viscosity(eps, WeakStrongError)
    if level is not None:
        check_level(level)
    check_reference_n(weak_base.grid.n, ref_n)
    refinement_halvings(dt_factor, WeakStrongError)
    reference_cfg = replace(weak_base, grid=TorusGrid(weak_base.grid.dim, ref_n),
                            eps=0.0, dt=weak_base.dt / dt_factor)
    steps = snapshot_steps(weak_base, snapshot_times, WeakStrongError)
    partition = binning.partition
    partition.check_slabs(snapshot_times, WeakStrongError)
    reduction = build_reference(reference_cfg, partition, snapshot_times, weak_base)

    def observe(cfg, path):
        if cfg is reference_cfg:
            return (reduction(path),)
        return (YoungBinner(binning, steps),)

    cfgs = [reference_cfg, *(weak_base.with_eps(eps) for eps in eps_values)]
    refs = []
    f_rows, gaps = [[] for _ in eps_values], [[] for _ in eps_values]
    with closing(run_ensemble(cfgs, seed, path_ids, observe, processes,
                              draw=weak_base)) as runs:
        for i, (_, _, _, err, kept) in enumerate(runs):
            if err is not None:
                raise err
            r, p = divmod(i, len(path_ids))   # configuration and path
            if r == 0:   # the reference of path p
                refs.append(kept[0])
                continue
            V = dirac_embed(kept[0])
            slabs = [relative_energy(V, refs[p], s) for s in range(partition.n_t)]
            f_rows[r - 1].append(np.array([s["measure_form"] for s in slabs]))
            gaps[r - 1].append(max(s["forms_gap"] / max(s["scale"], 1e-300)
                                   for s in slabs))
            del V   # released before the next run

    stops = True
    if level is None:   # flat references give 0: no path stops, and L = 0
        level = 1.05 * max(ref.grad_sup_max() for ref in refs)
        stops = level > 0
    taus = np.array([stopping_time(ref, level) if stops else ref.horizon
                     for ref in refs])
    slab_times = partition.t0 + (np.arange(partition.n_t) + 1.0) \
        * partition.slab_duration
    f0 = np.array([ref.f0 for ref in refs])
    per_eps, gronwall_rows = {}, []
    for eps, f_rows_eps, gaps_eps in zip(eps_values, f_rows, gaps):
        f_matrix = np.stack(f_rows_eps)
        rows, audit = gronwall_audit(slab_times, f_matrix, f0, taus, level,
                                     slack, eps)
        gronwall_rows += rows
        per_eps[eps] = {"f_matrix": f_matrix, "f0": f0,
                        "max_forms_gap_rel": float(np.max(gaps_eps)),
                        "gronwall": audit, "sup_mean_F": audit["sup_mean_F"]}
    mono_rows, monotone = ladder_monotone_within_ci(per_eps, list(eps_values),
                                                    taus, slab_times)
    module = "weak_strong.relative_energy"
    rows = [
        audit_row("initial_relative_energy", module, float(np.max(f0)), 1e-12,
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
