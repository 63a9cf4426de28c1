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
tested against history weights h evaluated at the earlier time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .forcing import ForcingOperator, WienerPath
from .reporting import audit_row
from .solver import BlowUpError, SolverConfig, Trajectory, run_path
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


def run_ladder(ladder: ViscosityLadder, partition: CellPartition,
               radius: float, snapshot_times=None, bins_per_axis: int = 16,
               sphere_bins: int = 32) -> LadderResult:
    """Run every rung on shared noise and estimate the family measure.

    The family measure pools the tail (last half) of the ladder; per-rung
    measures pool the ensemble at that viscosity.  Blow-ups abort a single
    (eps, path) run and the ladder continues without it.  Runs go one after
    another in (eps, path) order.  Without ``snapshot_times`` each slab is
    sampled at four mid-interval times.
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
    return LadderResult(runs, measures, family, distances, blowups)


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


def momentum_residual(traj: Trajectory, partition: CellPartition,
                      forcing: ForcingOperator | None, path: WienerPath | None,
                      phi: SpectralField, t: float, eps: float = 0.0) -> dict:
    """Absolute residual of the weak momentum balance up to time t.

    The convective term pairs the trajectory's samples pointwise with
    grad phi; the stochastic integral uses the exact mode pairings times the
    Wiener coordinates.  The viscous contribution for eps > 0 runs is
    reported separately.  t must be a slab boundary of the partition.
    """
    ratio = (t - partition.t0) / partition.slab_duration
    n_slabs = int(round(ratio))
    if abs(ratio - n_slabs) > 1e-9 or not 0 <= n_slabs <= partition.n_t:
        raise LimitError(f"t={t} is not a slab boundary of the partition")

    u_t = _snapshot_at(traj, t)
    u_0 = _snapshot_at(traj, partition.t0)
    drift = inner_product(u_t, phi) - inner_product(u_0, phi)

    grad_phi = gradient_physical(phi)
    convective = _windowed_tensor_pairing(traj, grad_phi, partition, n_slabs)

    stochastic = 0.0
    if forcing is not None and path is not None:
        c = forcing_pairings(phi, forcing)
        n = int(round((t - partition.t0) / path.dt))
        beta = path.increments[:n].sum(axis=0)
        stochastic = float(c @ beta)

    viscous = 0.0
    if eps > 0:
        viscous = eps * _windowed_scalar_pairing(traj, laplacian(phi),
                                                 partition, n_slabs)

    residual = drift - convective - stochastic - viscous
    return {"residual": abs(residual), "drift": drift, "convective": convective,
            "stochastic": stochastic, "viscous": viscous}


def _snapshot_at(traj: Trajectory, t: float) -> SpectralField:
    idx = int(np.argmin(np.abs(traj.times - t)))
    if abs(traj.times[idx] - t) > 1e-9:
        raise LimitError(f"trajectory has no snapshot at t={t}")
    return SpectralField.from_physical(traj.grid, traj.values[idx])


def _left_point_weights(times: np.ndarray, t_end: float) -> np.ndarray:
    """Left-point quadrature weights on [times[0], t_end] per sample."""
    w = np.zeros(len(times))
    for m, tm in enumerate(times):
        if tm >= t_end - 1e-12:
            continue
        t_next = times[m + 1] if m + 1 < len(times) else t_end
        w[m] = min(float(t_next), t_end) - float(tm)
    return w


def _windowed_tensor_pairing(traj, grad_phi, part, n_slabs) -> float:
    """int_0^t <u x u, grad phi> over the trajectory's samples.

    Pointwise in x with left-point time weights, so the discrete weak form
    of the scheme cancels exactly.
    """
    dim = part.dim
    gp = grad_phi.reshape(dim, dim, -1)
    t_end = part.t0 + n_slabs * part.slab_duration
    weights = _left_point_weights(np.asarray(traj.times, dtype=float), t_end)
    total = 0.0
    npts = int(np.prod(traj.values.shape[2:]))
    for m in range(traj.n_snapshots):
        if weights[m] == 0.0:
            continue
        acc = tensor_pairing(traj.values[m].reshape(dim, -1), gp)
        total += acc * weights[m] * (2 * np.pi) ** dim / npts
    return total


def _windowed_scalar_pairing(traj, test_field, part, n_slabs) -> float:
    """int_0^t <u, test_field> with left-point weights on the sample times."""
    t_end = part.t0 + n_slabs * part.slab_duration
    weights = _left_point_weights(np.asarray(traj.times, dtype=float), t_end)
    total = 0.0
    for m in range(traj.n_snapshots):
        if weights[m] == 0.0:
            continue
        u = SpectralField.from_physical(traj.grid, traj.values[m])
        total += inner_product(u, test_field) * weights[m]
    return total


# -- martingale statistics ---------------------------------------------------


class FunctionalRecorder:
    """Observer accumulating the ingredients of M_t along one trajectory.

    Left-point quadrature in time matches the explicit scheme; the
    convective pairing reads <u x u, grad phi> pointwise on the grid.
    """

    def __init__(self, phi: SpectralField, eps: float, dt: float,
                 transport: bool = True):
        self.phi = phi
        self.eps = eps
        self.dt = dt
        self.transport = transport
        grid = phi.grid
        self._grad_phi = gradient_physical(phi).reshape(grid.dim, grid.dim, -1)
        self._lap_phi = laplacian(phi)
        self._quad_w = grid.volume / grid.n ** grid.dim
        self.pairings = []
        self.visc_int = [0.0]
        self.conv_int = [0.0]

    def on_state(self, n, t, u):
        self.pairings.append(inner_product(u, self.phi))
        if self.transport:
            phys = u.to_physical().reshape(u.grid.dim, -1)
            conv = tensor_pairing(phys, self._grad_phi) * self._quad_w
        else:
            conv = 0.0
        self.conv_int.append(self.conv_int[-1] + self.dt * conv)
        self.visc_int.append(self.visc_int[-1]
                             + self.dt * inner_product(u, self._lap_phi))

    def martingale_series(self) -> np.ndarray:
        p = np.asarray(self.pairings)
        nvals = len(p)
        visc = np.asarray(self.visc_int[:nvals])
        conv = np.asarray(self.conv_int[:nvals])
        return p - p[0] - self.eps * visc - conv


@dataclass(frozen=True)
class MartingaleStat:
    """One (phi, s, t) martingale test specification."""

    __test__ = False

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


@dataclass
class PathFunctionals:
    """Per-path values entering the martingale statistics."""

    m_s: float
    m_t: float
    beta_s: np.ndarray
    beta_t: np.ndarray
    pair_s: float          # <u(s), phi>, for the clamped history weight


def history_weight(stat: MartingaleStat, pf: PathFunctionals) -> float:
    if stat.history == "one":
        return 1.0
    if stat.history == "clamp_pair":
        return float(np.clip(pf.pair_s, -1.0, 1.0))
    return float(np.clip(pf.beta_s[0], -1.0, 1.0))


def martingale_test(stat: MartingaleStat, ensemble, c: np.ndarray,
                    n_tests: int = 1, alpha: float = 0.05):
    """Monte Carlo check of the three martingale identities at (s, t).

    ``ensemble`` is a list of PathFunctionals from independent paths, ``c``
    the forcing pairings <Phi e_k, phi>.  Returns one audit row per
    identity, each holding |mean| to the Bonferroni-corrected confidence
    half-width, and the diagnostics {"z"}.
    """
    if len(ensemble) < 32:
        raise LimitError(f"ensemble of {len(ensemble)} is too small (need >= 32)")
    z = float(ndtri(1.0 - alpha / (2.0 * max(1, n_tests))))
    dt_span = stat.t - stat.s
    n_qv = float(np.sum(c ** 2)) * dt_span

    h = np.array([history_weight(stat, pf) for pf in ensemble])
    m_s = np.array([pf.m_s for pf in ensemble])
    m_t = np.array([pf.m_t for pf in ensemble])
    beta_s = np.stack([pf.beta_s for pf in ensemble])
    beta_t = np.stack([pf.beta_t for pf in ensemble])

    prefix = f"martingale_{stat.phi_name}_s{stat.s:g}_t{stat.t:g}_{stat.history}_"
    rows = [_ci_row(prefix + "increment", h * (m_t - m_s), z),
            _ci_row(prefix + "quadratic_variation",
                    h * (m_t ** 2 - m_s ** 2 - n_qv), z)]
    for k in range(len(c)):
        cross = h * (m_t * beta_t[:, k] - m_s * beta_s[:, k] - c[k] * dt_span)
        rows.append(_ci_row(prefix + f"cross_variation_k{k}", cross, z))
    return rows, {"z": z}


def _ci_row(name: str, samples: np.ndarray, z: float,
            atol: float = 1e-10) -> dict:
    """|mean| held to the confidence half-width z * se (plus atol)."""
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(len(samples)))
    return audit_row(name, "limit_verifier.martingale_test", abs(mean),
                     z * se + atol, f"se={se:.3e}")


def linear_model_functionals(forcing: ForcingOperator, phi: SpectralField,
                             seed: int, path_ids, dt: float, steps: int,
                             s: float, t: float, u0_pairing: float = 0.0):
    """Exact transport-off functionals: M_t = sum_k c_k beta_k(t).

    With transport disabled and eps = 0 the stepper reduces to
    u(t) = u(0) + Phi W(t), so M computed from the trajectory side equals
    the stochastic integral identically; this fast path evaluates it from
    the increments alone.  Returns (ensemble, c).
    """
    by_pair, c = linear_model_functionals_multi(
        forcing, phi, seed, path_ids, dt, steps, [(s, t)], u0_pairing)
    return by_pair[(s, t)], c


def linear_model_functionals_multi(forcing: ForcingOperator,
                                   phi: SpectralField, seed: int, path_ids,
                                   dt: float, steps: int, pairs,
                                   u0_pairing: float = 0.0):
    """Transport-off functionals at several (s, t) pairs per path."""
    c = forcing_pairings(phi, forcing)
    idx = {(s, t): (int(round(s / dt)), int(round(t / dt))) for s, t in pairs}
    out = {key: [] for key in idx}
    for pid in path_ids:
        path = WienerPath.sample(seed, pid, forcing.rank, dt, steps)
        beta = path.coordinates()
        for key, (si, ti) in idx.items():
            m_s = float(c @ beta[si])
            m_t = float(c @ beta[ti])
            out[key].append(PathFunctionals(
                m_s=m_s, m_t=m_t, beta_s=beta[si].copy(),
                beta_t=beta[ti].copy(), pair_s=u0_pairing + m_s))
    return out, c


def solver_functionals_multi(cfg: SolverConfig, phi: SpectralField, seed: int,
                             path_ids, pairs):
    """Full-model functionals at several (s, t) pairs from one run per path."""
    idx = {(s, t): (int(round(s / cfg.dt)), int(round(t / cfg.dt)))
           for s, t in pairs}
    c = forcing_pairings(phi, cfg.forcing)
    out = {key: [] for key in idx}
    for pid in path_ids:
        path = WienerPath.sample(seed, pid, cfg.forcing.rank, cfg.dt, cfg.steps)
        rec = FunctionalRecorder(phi, cfg.eps, cfg.dt, transport=cfg.transport)
        run_path(cfg, seed, pid, path=path, snapshot_times=[], observers=(rec,))
        m = rec.martingale_series()
        beta = path.coordinates()
        for key, (si, ti) in idx.items():
            out[key].append(PathFunctionals(
                m_s=float(m[si]), m_t=float(m[ti]),
                beta_s=beta[si].copy(), beta_t=beta[ti].copy(),
                pair_s=rec.pairings[si]))
    return out, c


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
    max_defect = max((d["defect"] for d in defects), default=0.0)
    max_jump = float(np.max(np.diff(g))) if part.n_t > 1 else 0.0
    module = "limit_verifier.energy_inequality_limit"
    rows = [audit_row("energy_inequality_family", module, max_defect, tol),
            audit_row("no_positive_jumps", module, max_jump, tol)]
    return rows, {"slab_energy": [float(x) for x in e_slab],
                  "compensated": [float(x) for x in g],
                  "defects": defects}
