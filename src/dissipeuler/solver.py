"""Time integration of projected stochastic Navier-Stokes at viscosity eps.

The stepper is semi-implicit: the Stokes part uses the exact Fourier
integrating factor exp(-eps |k|^2 dt), transport and noise are explicit
Euler-Maruyama, and the state stays divergence-free because every additive
term is projected.  Every quantity entering the pathwise energy budget is
tracked per step:

    E_n   kinetic energy 0.5 ||u||^2
    D_n   cumulative eps * int ||grad u||^2 (left-point quadrature)
    I_n   cumulative Ito input rate 0.5 ||Phi||_HS^2 * t
    M_n   cumulative discrete stochastic integral sum_k <u, Phi e_k> dW_k

The energy-inequality defect over [s, t] is G(t) - G(s) for the compensated
process G = E + D - I - M, which an admissible path keeps non-increasing up
to discretization noise.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .forcing import ForcingOperator, WienerPath, auxiliary_normals
from .reporting import audit_row
from .spectral import (
    SpectralField,
    TorusGrid,
    _convective_with_sup,
    dealias,
    energy_and_grad_norm_sq,
    laplacian_decay_factor,
    leray_project,
    single_mode,
    taylor_green,
)


class SolverError(RuntimeError):
    pass


class BlowUpError(SolverError):
    """Trajectory lost resolution; carries partial results for diagnosis."""

    def __init__(self, message, time=None, sup=None, partial=None):
        super().__init__(message)
        self.time = time
        self.sup = sup
        self.partial = partial


class CflError(BlowUpError):
    """Step size exceeded the CFL bound; a blow-up of the discretization."""


@dataclass(frozen=True)
class InitialCondition:
    """Initial law: a named deterministic field or a random-phase spectrum.

    The random spectrum populates wavevectors with 0 < |k|_inf <= k_max
    with amplitudes amplitude * |k|^-decay and counter-based phases, so
    every p-th moment of the initial energy is finite and the draw is a
    pure function of (seed, path_id).
    """

    kind: str = "taylor_green"
    amplitude: float = 1.0
    k_max: int = 3
    decay: float = 2.0

    _KINDS = ("zero", "taylor_green", "single_mode", "random_spectrum")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise SolverError(f"unknown initial condition kind {self.kind!r}")

    def sample(self, grid: TorusGrid, seed: int, path_id: int) -> SpectralField:
        if self.kind == "zero":
            return SpectralField.zero(grid)
        if self.kind == "taylor_green":
            return taylor_green(grid, self.amplitude)
        if self.kind == "single_mode":
            return single_mode(grid, self.amplitude)
        return self._random_spectrum(grid, seed, path_id)

    def _random_spectrum(self, grid: TorusGrid, seed: int, path_id: int) -> SpectralField:
        span = range(-self.k_max, self.k_max + 1)
        if grid.dim == 2:
            wavevectors = [(a, b) for a in span for b in span]
        else:
            wavevectors = [(a, b, c) for a in span for b in span for c in span]
        wavevectors = [k for k in wavevectors if any(k)]
        limit = min(grid.dealias_cutoff(), grid.n // 2 - 1)
        draws = auxiliary_normals(seed, path_id, 0,
                                  len(wavevectors) * 2 * (grid.dim + 1))
        draws = draws.reshape(len(wavevectors), 2, grid.dim + 1)
        modes = {}
        for i, k in enumerate(wavevectors):
            if any(abs(q) > limit for q in k):
                continue
            kvec = np.asarray(k, dtype=float)
            knorm = float(np.linalg.norm(kvec))
            re, im = draws[i, 0], draws[i, 1]
            vec = (re[: grid.dim] + 1j * im[: grid.dim])
            # force the direction transverse to k; fall back to a fixed
            # rotation if the draw is (numerically) parallel
            vec = vec - kvec * (kvec @ vec) / (knorm ** 2)
            if np.linalg.norm(vec) < 1e-12:
                alt = np.zeros(grid.dim)
                alt[int(np.argmin(np.abs(kvec)))] = 1.0
                vec = alt - kvec * (kvec @ alt) / knorm ** 2
            vec = vec / np.linalg.norm(vec)
            amp = self.amplitude * knorm ** (-self.decay)
            phase = np.exp(1j * np.arctan2(im[grid.dim], re[grid.dim]))
            modes[k] = 0.5 * amp * phase * vec
        return leray_project(SpectralField.from_modes(grid, modes))


@dataclass(frozen=True)
class SolverConfig:
    grid: TorusGrid
    forcing: ForcingOperator | None
    eps: float
    dt: float
    horizon: float
    initial: InitialCondition = field(default_factory=InitialCondition)
    blowup_ceiling: float = 1e3
    cfl_number: float = 0.5
    transport: bool = True

    def __post_init__(self):
        if self.dt <= 0:
            raise SolverError("dt must be positive")
        if self.eps < 0:
            raise SolverError("viscosity must be >= 0")
        if self.horizon < 0:
            raise SolverError("horizon must be >= 0")
        if self.forcing is not None:
            self.forcing.check_resolved(self.grid)

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.dt))

    @property
    def rank(self) -> int:
        return self.forcing.rank if self.forcing is not None else 0

    def with_eps(self, eps: float) -> "SolverConfig":
        return replace(self, eps=eps)

    @functools.cached_property
    def viscous_factor(self) -> np.ndarray:
        """exp(-eps |k|^2 dt), built once per configuration."""
        out = laplacian_decay_factor(self.grid, self.eps, self.dt)
        out.setflags(write=False)
        return out

    @functools.cached_property
    def noise_support(self) -> tuple:
        """``forcing.noise_support(grid)``, built once per configuration."""
        return self.forcing.noise_support(self.grid)


@dataclass
class EnergyTrace:
    """Pathwise energy budget sampled at every grid time."""

    times: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    ito_input: np.ndarray
    stochastic: np.ndarray
    initial_energy: float

    def compensated(self) -> np.ndarray:
        """G = E + D - I - M; non-increasing for admissible paths."""
        return self.energy + self.dissipation - self.ito_input - self.stochastic

    def defect(self, s: float, t: float) -> float:
        """Energy-inequality defect over [s, t]; <= 0 means admissible."""
        si, ti = self._index(s), self._index(t)
        if si >= ti:
            raise SolverError(f"need s < t on the trace grid, got {s}, {t}")
        g = self.compensated()
        return float(g[ti] - g[si])

    def defect_series(self) -> np.ndarray:
        """defect(0, t_n) for every grid time."""
        g = self.compensated()
        return g - g[0]

    def max_positive_defect(self) -> float:
        """max over all grid pairs s < t of defect(s, t), floored at 0."""
        g = self.compensated()
        running_min = np.minimum.accumulate(g[:-1])
        return float(np.max(g[1:] - running_min, initial=0.0))

    def tolerance(self, c: float = 1.0) -> float:
        dt = float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0
        return c * np.sqrt(dt) * (1.0 + self.initial_energy)

    def _index(self, t: float) -> int:
        if len(self.times) < 2:
            raise SolverError("trace holds a single entry; no time pairs exist")
        idx = int(round((t - self.times[0]) / (self.times[1] - self.times[0])))
        if idx < 0 or idx >= len(self.times) or abs(self.times[idx] - t) > 1e-9:
            raise SolverError(f"time {t} is not on the trace grid")
        return idx

    def write_csv(self, path) -> None:
        defects = self.defect_series()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "E", "D", "I", "M", "defect"])
            for i in range(len(self.times)):
                w.writerow([repr(float(self.times[i])),
                            repr(float(self.energy[i])),
                            repr(float(self.dissipation[i])),
                            repr(float(self.ito_input[i])),
                            repr(float(self.stochastic[i])),
                            repr(float(defects[i]))])


@dataclass(frozen=True)
class Trajectory:
    """Physical-space snapshots of one run at selected grid times."""

    grid: TorusGrid
    times: np.ndarray
    values: np.ndarray  # (n_snapshots, dim) + grid.shape

    def __post_init__(self):
        self.values.setflags(write=False)
        self.times.setflags(write=False)

    @property
    def n_snapshots(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class SolverRun:
    config: SolverConfig
    trace: EnergyTrace
    snapshots: tuple          # SpectralField at snapshot_times
    snapshot_times: np.ndarray
    final: SpectralField
    path_id: int

    def trajectory(self) -> Trajectory:
        vals = np.stack([f.to_physical() for f in self.snapshots])
        return Trajectory(self.config.grid, np.asarray(self.snapshot_times), vals)


def step(u: SpectralField, dw: np.ndarray, cfg: SolverConfig) -> tuple:
    """One Euler-Maruyama step with exact viscous integrating factor.

    Returns (new field, max_x |u| of the dealiased input); the sup is 0
    without transport.  The noise is added at its sparse support only.
    """
    if cfg.transport:
        conv, sup = _convective_with_sup(u)
        drift = u.coeffs + cfg.dt * conv.coeffs
    else:
        sup = 0.0
        drift = u.coeffs.copy()
    if cfg.forcing is not None:
        index, values = cfg.noise_support
        drift.flat[index] += np.asarray(dw, dtype=np.float64) @ values
    if cfg.eps > 0:
        drift *= cfg.viscous_factor
    return SpectralField(cfg.grid, drift), sup


def run_path(cfg: SolverConfig, seed: int, path_id: int,
             path: WienerPath | None = None,
             snapshot_times=None, observers=()) -> SolverRun:
    """Integrate one trajectory; deterministic given (cfg, seed, path_id).

    A pre-sampled ``path`` (e.g. shared across viscosities or refined by
    Brownian bridge) overrides local sampling; its dt must match cfg.
    Observers receive (step_index, time, field) at every recorded state.
    """
    grid = cfg.grid
    steps = cfg.steps
    if cfg.forcing is not None:
        if path is None:
            path = WienerPath.sample(seed, path_id, cfg.forcing.rank, cfg.dt, steps)
        if abs(path.dt - cfg.dt) > 1e-12 * cfg.dt:
            raise SolverError(f"path dt {path.dt} does not match config dt {cfg.dt}")
        if path.steps < steps:
            raise SolverError("Wiener path shorter than the run horizon")
        index, values = cfg.noise_support
        # <u, sigma_k g_k> is the weighted sum over the stored coefficients
        weight = np.broadcast_to(grid.ops.weight, (grid.dim,) + grid.spectral_shape)
        conj_values = np.conj(values) * weight.take(index)
        hs2 = cfg.forcing.hs_norm_sq()
    else:
        hs2 = 0.0

    u = dealias(leray_project(cfg.initial.sample(grid, seed, path_id)))
    e0 = energy_and_grad_norm_sq(u)[0]

    times = np.arange(steps + 1) * cfg.dt
    energy = np.empty(steps + 1)
    dissipation = np.zeros(steps + 1)
    ito_input = 0.5 * hs2 * times
    stochastic = np.zeros(steps + 1)

    want = _snapshot_index_set(snapshot_times, times)
    snaps, snap_times = [], []

    def trace_to(n):   # the energy budget of the first n grid times
        return EnergyTrace(times[:n], energy[:n], dissipation[:n],
                           ito_input[:n], stochastic[:n], e0)

    vol_scale = grid.volume / grid.n ** (2 * grid.dim)
    for n in range(steps + 1):
        energy[n], grad_sq = energy_and_grad_norm_sq(u)
        if not (cfg.transport or np.isfinite(energy[n])):   # no sup to test
            raise BlowUpError(f"non-finite energy {energy[n]:.3e} at t = {times[n]:.4f}",
                              time=times[n], partial=trace_to(n + 1))
        if n in want:
            snaps.append(u)
            snap_times.append(times[n])
        for obs in observers:
            obs.on_state(n, times[n], u)
        if n == steps:
            break
        if cfg.eps > 0:
            dissipation[n + 1] = dissipation[n] + cfg.eps * cfg.dt * grad_sq
        if cfg.forcing is not None:
            dw = path.increments[n]
            pair = (conj_values @ u.coeffs.take(index)).real * vol_scale
            stochastic[n + 1] = stochastic[n] + float(pair @ dw)
        else:
            dw = None
        u, sup = step(u, dw, cfg)
        if cfg.transport:
            blown = not sup <= cfg.blowup_ceiling   # a NaN sup is a blow-up
            if blown or (sup > 0 and cfg.dt > cfg.cfl_number * grid.dx / sup):
                partial = trace_to(n + 1)
                if blown:
                    raise BlowUpError(
                        f"sup |u| = {sup:.3e} exceeded ceiling at t = {times[n + 1]:.4f}",
                        time=times[n + 1], sup=sup, partial=partial)
                raise CflError(
                    f"CFL violated at t = {times[n + 1]:.4f}: "
                    f"dt = {cfg.dt:.3e} > {cfg.cfl_number} dx / {sup:.3e}",
                    time=times[n + 1], sup=sup, partial=partial)

    return SolverRun(cfg, trace_to(steps + 1), tuple(snaps),
                     np.asarray(snap_times), u, path_id)


def _snapshot_index_set(snapshot_times, times) -> set:
    if snapshot_times is None:
        return set(range(len(times)))
    dt = times[1] - times[0] if len(times) > 1 else 1.0
    out = set()
    for t in snapshot_times:
        idx = int(round(t / dt))
        if idx < 0 or idx >= len(times) or abs(times[idx] - t) > 1e-9:
            raise SolverError(f"snapshot time {t} is not on the step grid")
        out.add(idx)
    return out


# -- ensemble moment monitor ----------------------------------------------


def apriori_moment_report(traces_by_eps: dict, p: float, z: float = 1.96):
    """Monte Carlo check that E[(sup_t E_t + eps int ||grad u||^2)^p] is
    uniform along the viscosity ladder (non-increasing within CI).

    Returns the row ``apriori_moment_uniform``, whose value is the largest
    signed rise of the moment from one rung to the next beyond the combined
    confidence half-widths ``ci`` (0 for a single rung), and the
    diagnostics {"p", "rows"} with one moment row per rung.

    ``traces_by_eps`` maps eps -> list of EnergyTrace with shared noise
    seeds across entries.  Requires p > 2 to match the moment assumption on
    the initial law.
    """
    if p <= 2:
        raise SolverError("moment order p must exceed 2")
    if not traces_by_eps:
        raise SolverError("empty ensemble")
    rows = []
    for eps in sorted(traces_by_eps, reverse=True):
        traces = traces_by_eps[eps]
        if len(traces) == 0:
            raise SolverError(f"empty ensemble for eps={eps}")
        x = np.array([
            (float(np.max(tr.energy)) + float(tr.dissipation[-1])) ** p
            for tr in traces])
        n = len(x)
        se = float(x.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        rows.append({"eps": eps, "paths": n, "moment": float(x.mean()),
                     "se": se, "ci": z * se})
    gaps = [b["moment"] - a["moment"] - float(np.hypot(a["ci"], b["ci"]))
            for a, b in zip(rows, rows[1:])]
    worst = float(np.max(gaps)) if gaps else 0.0
    row = audit_row("apriori_moment_uniform", "ns_solver.apriori_monitor",
                    worst, 0.0, f"moments={['%.5g' % r['moment'] for r in rows]}")
    return [row], {"p": p, "rows": rows}
