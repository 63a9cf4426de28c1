"""Vanishing-viscosity harness and martingale-identification statistics.

A viscosity ladder runs the solver at a strictly decreasing sequence of
viscosities with one bit-identical Wiener path per ensemble member.  The
family of trajectories feeds the Young-measure estimator; weak* Cauchy
distances between successive rungs stand in for subsequence extraction,
since no finite computation can exhibit the limit object itself.

The martingale side checks that the path functional

    M_t = <u(t) - u(0), phi> - eps int <u, lap phi> - int <nu, xi x xi> : grad phi
          (- concentration term)

behaves like the stochastic integral it must equal: zero conditional
increments, quadratic variation N_t = sum_k <Phi e_k, phi>^2 t, and cross
variation N^k_t = <Phi e_k, phi> t against the k-th Wiener coordinate, all
tested against history weights h evaluated at the earlier time.  One
``FunctionalRecorder`` computes M_t for both these statistics (observing
every step of a run) and the momentum residual |M_t - <Phi W(t), phi>|
(replaying a run's snapshots).  A martingale ensemble integrates each path
once, one recorder per test field, into arrays over paths at each (s, t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .forcing import ForcingOperator, WienerPath
from .reporting import audit_row
from .solver import BlowUpError, SolverConfig, SolverRun, run_path
from .spectral import (
    SpectralField,
    gradient_physical,
    inner_product,
    laplacian,
    tensor_pairing,
)
from .young import (
    CellPartition,
    GeneralizedYoungMeasure,
    estimate_from_family,
    slab_energies,
    weakstar_distance,
)


class LimitError(ValueError):
    pass


MIN_MARTINGALE_PATHS = 32   # smallest ensemble the martingale test accepts


# -- ladder ----------------------------------------------------------------


@dataclass(frozen=True)
class ViscosityLadder:
    eps_values: tuple
    base: SolverConfig
    seed: int
    path_ids: tuple = (0,)

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_values)
        if len(eps) < 1 or any(e <= 0 for e in eps):
            raise LimitError("ladder viscosities must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise LimitError("ladder must be strictly decreasing")
        object.__setattr__(self, "eps_values", eps)
        object.__setattr__(self, "path_ids", tuple(int(p) for p in self.path_ids))


@dataclass
class LadderResult:
    runs: dict                     # eps -> list of SolverRun
    measures: dict                 # eps -> pooled GeneralizedYoungMeasure
    family: GeneralizedYoungMeasure | None   # None if every path blew up
    cauchy_distances: list         # successive weak* distances
    blowups: dict                  # eps -> list of (path_id, message)
    tail: list                     # rungs the family pools, coarse to fine
    paths: dict                    # path_id -> shared WienerPath (or None)


def run_ladder(ladder: ViscosityLadder, partition: CellPartition,
               radius: float, snapshot_times=None, bins_per_axis: int = 16,
               sphere_bins: int = 32) -> LadderResult:
    """Run every rung on shared noise and estimate the family measure.

    The family measure pools the tail, the last half of the rungs with a
    surviving run; per-rung measures pool the ensemble at that viscosity.
    Blow-ups abort a single (eps, path) run and the ladder continues without
    it.  Runs go one after another in (eps, path) order.  Without
    ``snapshot_times`` each slab is sampled at four mid-interval times.
    """
    base = ladder.base
    if snapshot_times is None:
        snapshot_times = partition.sample_times(base.dt, 4)
    paths = {
        pid: WienerPath.sample(ladder.seed, pid, base.rank, base.dt, base.steps)
        for pid in ladder.path_ids
    } if base.forcing is not None else {pid: None for pid in ladder.path_ids}

    runs, blowups = {}, {}
    for eps in ladder.eps_values:
        cfg = base.with_eps(eps)
        good = []
        for pid in ladder.path_ids:
            run, err = guarded_run(cfg, ladder.seed, pid, path=paths[pid],
                                   snapshot_times=snapshot_times)
            if err is not None:
                blowups.setdefault(eps, []).append((pid, str(err)))
            else:
                good.append(run)
        runs[eps] = good

    measures = {eps: estimate_from_family([r.trajectory() for r in eps_runs],
                                          partition, radius, bins_per_axis,
                                          sphere_bins)
                for eps, eps_runs in runs.items() if eps_runs}

    usable = [eps for eps in ladder.eps_values if eps in measures]
    tail = usable[len(usable) // 2:]
    family_trajs = [r.trajectory() for eps in tail for r in runs[eps]]
    family = estimate_from_family(family_trajs, partition, radius,
                                  bins_per_axis, sphere_bins) \
        if family_trajs else None

    distances = [weakstar_distance(measures[a], measures[b])
                 for a, b in zip(usable, usable[1:])]
    return LadderResult(runs, measures, family, distances, blowups, tail,
                        paths)


def guarded_run(cfg: SolverConfig, seed: int, path_id: int, **kwargs):
    """run_path as (run, None), or (None, err) when the path blows up."""
    try:
        return run_path(cfg, seed, path_id, **kwargs), None
    except BlowUpError as err:
        return None, err


# -- momentum residual ------------------------------------------------------


def forcing_pairings(phi: SpectralField, forcing: ForcingOperator) -> np.ndarray:
    """<sigma_k g_k, phi> for every forcing mode."""
    grid = phi.grid
    return np.array([
        forcing.modes[k].sigma * inner_product(forcing.mode_field(grid, k), phi)
        for k in range(forcing.rank)])


def momentum_residual(run: SolverRun, forcing: ForcingOperator | None,
                      path: WienerPath | None, phi: SpectralField,
                      t: float) -> float:
    """|M_t - <Phi W(t), phi>| for one run, from its snapshots up to time t.

    The run's spectral snapshots on [0, t] replay through a
    ``FunctionalRecorder`` at the run's viscosity and transport setting, so
    M_t is the same left-point functional the martingale statistics use; the
    stochastic integral is the exact mode pairings times the Wiener
    coordinates.  Both 0 and t must be snapshot times of the run.
    """
    times = np.asarray(run.snapshot_times, dtype=float)
    if not (len(times) and abs(times[0]) <= 1e-9
            and np.any(np.abs(times - t) <= 1e-9)):
        raise LimitError(f"run needs snapshots at t=0 and t={t}")
    rec = FunctionalRecorder(phi, run.config.eps,
                             transport=run.config.transport)
    for n, (tm, u) in enumerate(zip(times, run.snapshots)):
        if tm > t + 1e-9:
            break
        rec.on_state(n, tm, u)
    m_t = float(rec.martingale_series()[-1])

    stochastic = 0.0
    if forcing is not None and path is not None:
        c = forcing_pairings(phi, forcing)
        beta = path.increments[:int(round(t / path.dt))].sum(axis=0)
        stochastic = float(c @ beta)
    return abs(m_t - stochastic)


# -- martingale statistics ---------------------------------------------------


class FunctionalRecorder:
    """Observer accumulating the ingredients of M_t along one trajectory.

    Each observed state is weighted by the gap to the next observed time
    (left-point quadrature), which matches the explicit scheme when every
    step is observed; the convective pairing reads <u x u, grad phi>
    pointwise on the grid.
    """

    def __init__(self, phi: SpectralField, eps: float, transport: bool = True):
        self.phi = phi
        self.eps = eps
        self.transport = transport
        grid = phi.grid
        self._grad_phi = gradient_physical(phi).reshape(grid.dim, grid.dim, -1)
        self._lap_phi = laplacian(phi)
        self._quad_w = grid.volume / grid.n ** grid.dim
        self.times = []
        self.pairings = []
        self._visc = []
        self._conv = []

    def on_state(self, n, t, u):
        self.times.append(float(t))
        self.pairings.append(inner_product(u, self.phi))
        if self.transport:
            phys = u.to_physical().reshape(u.grid.dim, -1)
            self._conv.append(tensor_pairing(phys, self._grad_phi) * self._quad_w)
        else:
            self._conv.append(0.0)
        self._visc.append(inner_product(u, self._lap_phi))

    def martingale_series(self) -> np.ndarray:
        """M at every observed time; the last state only closes the window."""
        p = np.asarray(self.pairings)
        gaps = np.diff(self.times)
        visc = np.concatenate(([0.0], np.cumsum(gaps * self._visc[:-1])))
        conv = np.concatenate(([0.0], np.cumsum(gaps * self._conv[:-1])))
        return p - p[0] - self.eps * visc - conv


@dataclass(frozen=True)
class MartingaleStat:
    """One (phi, s, t) martingale test specification."""

    phi_name: str
    s: float
    t: float
    history: str = "one"   # one | clamp_pair | clamp_beta

    HISTORY_KINDS = ("one", "clamp_pair", "clamp_beta")

    def __post_init__(self):
        if not 0 <= self.s < self.t:
            raise LimitError("need 0 <= s < t")
        if self.history not in self.HISTORY_KINDS:
            raise LimitError(f"unknown history functional {self.history!r}")


@dataclass(frozen=True)
class EnsembleFunctionals:
    """Values entering the martingale statistics at one (s, t), over P paths."""

    m_s: np.ndarray        # (P,) M at s
    m_t: np.ndarray        # (P,) M at t
    beta_s: np.ndarray     # (P, K) Wiener coordinates at s
    beta_t: np.ndarray     # (P, K) Wiener coordinates at t
    pair_s: np.ndarray     # (P,) <u(s), phi>, for the clamped history weight


def martingale_test(stat: MartingaleStat, ens: EnsembleFunctionals,
                    c: np.ndarray, n_tests: int = 1, alpha: float = 0.05):
    """Monte Carlo check of the three martingale identities at (s, t).

    ``ens`` holds the functionals of at least ``MIN_MARTINGALE_PATHS``
    independent paths, ``c`` the forcing pairings <Phi e_k, phi>.  Returns
    one audit row per identity, each holding |mean| to the
    Bonferroni-corrected confidence half-width, and the diagnostics {"z"}.
    """
    paths = len(ens.m_t)
    if paths < MIN_MARTINGALE_PATHS:
        raise LimitError(f"ensemble of {paths} is too small (need >= {MIN_MARTINGALE_PATHS})")
    z = float(ndtri(1.0 - alpha / (2.0 * max(1, n_tests))))
    dt_span = stat.t - stat.s
    n_qv = float(np.sum(c ** 2)) * dt_span

    h = np.clip({"one": np.ones(paths), "clamp_pair": ens.pair_s,
                 "clamp_beta": ens.beta_s[:, 0]}[stat.history], -1.0, 1.0)

    prefix = f"martingale_{stat.phi_name}_s{stat.s:g}_t{stat.t:g}_{stat.history}_"
    rows = [_ci_row(prefix + "increment", h * (ens.m_t - ens.m_s), z),
            _ci_row(prefix + "quadratic_variation",
                    h * (ens.m_t ** 2 - ens.m_s ** 2 - n_qv), z)]
    for k in range(len(c)):
        cross = h * (ens.m_t * ens.beta_t[:, k] - ens.m_s * ens.beta_s[:, k] - c[k] * dt_span)
        rows.append(_ci_row(prefix + f"cross_variation_k{k}", cross, z))
    return rows, {"z": z}


def _ci_row(name: str, samples: np.ndarray, z: float,
            atol: float = 1e-10) -> dict:
    """|mean| held to the confidence half-width z * se (plus atol)."""
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(len(samples)))
    return audit_row(name, "limit_verifier.martingale_test", abs(mean),
                     z * se + atol, f"se={se:.3e}")


def _by_pair(m, pairings, beta, pairs, dt: float) -> dict:
    """{(s, t): EnsembleFunctionals} from per-path series over the steps."""
    out = {}
    for s, t in pairs:
        if any(abs(x / dt - round(x / dt)) > 1e-9 for x in (s, t)):
            raise LimitError(f"pair ({s:g}, {t:g}) is off the step grid of dt={dt:g}")
        si, ti = round(s / dt), round(t / dt)
        out[(s, t)] = EnsembleFunctionals(m[:, si], m[:, ti], beta[:, si],
                                          beta[:, ti], pairings[:, si])
    return out


def linear_model_functionals_multi(forcing: ForcingOperator, fields, seed: int,
                                   path_ids, dt: float, steps: int, pairs) -> dict:
    """Exact transport-off functionals: M_t = sum_k c_k beta_k(t).

    With transport disabled and eps = 0 the stepper reduces to
    u(t) = u(0) + Phi W(t), so M from the trajectory side equals the
    stochastic integral identically; this fast path evaluates it from the
    increments, with <u(0), phi> = 0.  Returns {name: (by_pair, c)}.
    """
    beta = np.stack([WienerPath.sample(seed, pid, forcing.rank, dt, steps).coordinates()
                     for pid in path_ids])
    out = {}
    for name, phi in fields:
        c = forcing_pairings(phi, forcing)
        m = np.vecdot(beta, c)   # row-wise dots: the bits of c @ beta[n], unlike beta @ c
        out[name] = (_by_pair(m, m, beta, pairs, dt), c)
    return out


def solver_functionals_multi(cfg: SolverConfig, fields, seed: int, path_ids,
                             pairs) -> dict:
    """Full-model functionals: each path is integrated once, with one
    ``FunctionalRecorder`` per ``(name, phi)`` of ``fields`` observing every
    step.  Returns {name: (by_pair, c)}; a blow-up propagates.
    """
    runs = []
    for pid in path_ids:
        path = WienerPath.sample(seed, pid, cfg.forcing.rank, cfg.dt, cfg.steps)
        recs = [FunctionalRecorder(phi, cfg.eps, transport=cfg.transport)
                for _, phi in fields]
        run_path(cfg, seed, pid, path=path, snapshot_times=[], observers=recs)
        # keep the series, not the recorders and their test-field tables
        runs.append((path.coordinates(), [(r.martingale_series(), r.pairings) for r in recs]))
    beta = np.stack([b for b, _ in runs])
    out = {}
    for f, (name, phi) in enumerate(fields):
        m = np.stack([series[f][0] for _, series in runs])
        pairings = np.array([series[f][1] for _, series in runs])
        out[name] = (_by_pair(m, pairings, beta, pairs, cfg.dt),
                     forcing_pairings(phi, cfg.forcing))
    return out


# -- limit energy inequality -------------------------------------------------


def energy_inequality_limit(family: GeneralizedYoungMeasure, traces,
                            forcing: ForcingOperator | None, tol: float):
    """Slab-averaged energy inequality audit for the family measure.

    Implements the mollified form: compare slab energies of the measure
    against the Ito input and the tail-averaged stochastic integral, then
    require the compensated slab process to be non-increasing within tol
    (energetic sinks allowed, no positive jumps).  Returns the rows
    ``energy_inequality_family`` (largest pairwise defect) and
    ``no_positive_jumps`` (largest signed jump, 0 for a single slab), and
    the slab energies, compensated process and pairwise defects.
    """
    part = family.partition
    e_slab = slab_energies(family)
    hs2 = forcing.hs_norm_sq() if forcing is not None else 0.0

    i_slab = np.zeros(part.n_t)
    m_slab = np.zeros(part.n_t)
    if traces:
        stacked_m = np.mean([tr.stochastic for tr in traces], axis=0)
        times = traces[0].times
        slabs = np.array([part.slab_of(float(x)) for x in times])
        for s in range(part.n_t):
            sel = slabs == s
            m_slab[s] = stacked_m[sel].mean()
            i_slab[s] = 0.5 * hs2 * times[sel].mean()

    g = e_slab - i_slab - m_slab
    defects = []
    for si in range(part.n_t):
        for ti in range(si + 1, part.n_t):
            defects.append({"s_slab": si, "t_slab": ti,
                            "defect": float(g[ti] - g[si])})
    max_defect = float(np.max([d["defect"] for d in defects])) \
        if defects else 0.0
    max_jump = float(np.max(np.diff(g))) if part.n_t > 1 else 0.0
    module = "limit_verifier.energy_inequality_limit"
    rows = [audit_row("energy_inequality_family", module, max_defect, tol),
            audit_row("no_positive_jumps", module, max_jump, tol)]
    return rows, {"slab_energy": [float(x) for x in e_slab],
                  "compensated": [float(x) for x in g],
                  "defects": defects}
