import os
from dataclasses import dataclass

import numpy as np
import pytest

from dissipeuler.forcing import WienerPath
from dissipeuler.solver import (
    SolverError,
    _band_step,
    initial_state,
    run_path,
    snapshot_steps,
    step_index,
)
from dissipeuler.spectral import (
    SpectralError,
    SpectralField,
    TorusGrid,
    _Scratch,
    half_to_physical,
    l2_norm_sq,
    leray_project,
)
from dissipeuler.young import Binning, YoungBinner


@pytest.fixture
def two_cores(monkeypatch):
    """Two usable cores, so that an ensemble of two paths or more forks a
    worker at ``processes`` >= 2 on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers forked while the test runs."""
    pids, real_fork = [], os.fork

    def counted():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return pids


def lone_run(cfg, seed, path_id, path=None, observers=(), initial=None):
    """``run_path`` of path ``path_id`` of ``seed`` at ``cfg``, alone: on
    ``path`` (sampled at cfg's dt if None) from ``initial`` (the drawn
    ``initial_state`` if None)."""
    if path is None:
        path = WienerPath.sample(seed, path_id, cfg.forcing.rank, cfg.dt, cfg.steps)
    if initial is None:
        initial = initial_state(cfg, seed, path_id)
    return run_path(cfg, path, initial, observers)


@dataclass(frozen=True)
class Trajectory:
    """Point values of one run at selected times."""

    times: np.ndarray
    values: np.ndarray   # (len(times), dim) + grid shape


class Snapshots:
    """Observer keeping one run's point values at ``times``; its
    ``payload()`` is the ``Trajectory``.  A time off the step grid of
    ``cfg`` raises ``SolverError`` when the observer is built."""

    def __init__(self, cfg, times):
        self.steps = snapshot_steps(cfg, times)
        self._times = []
        self._values = np.empty((len(self.steps), cfg.grid.dim) + cfg.grid.shape)

    def on_state(self, n, t, band, phys):
        self._values[len(self._times)] = phys
        self._times.append(t)

    def payload(self) -> Trajectory:
        return Trajectory(np.asarray(self._times), self._values)


def bin_run(traj, partition, radius, bins_per_axis=16, sphere_bins=32):
    """The ``RunBins`` of ``traj``, binned snapshot by snapshot as a
    ``YoungBinner`` observing its run bins them."""
    binner = YoungBinner(Binning(partition, radius, bins_per_axis, sphere_bins))
    for t, values in zip(traj.times, traj.values):
        binner.bin(t, values)
    return binner.payload()


def step(u, dw, cfg, phys):
    """One step of ``run_path`` on a full-layout field: (new field, sup).

    ``phys`` holds the point values of u, which lies in the dealias band;
    the new field is +0.0 outside the band.
    """
    ops = cfg.grid.ops
    band, sup = _band_step(ops.to_band(u.coeffs), dw, cfg, phys, _Scratch(cfg.grid))
    return SpectralField(cfg.grid, ops.from_band(band)), sup


def band_field(grid, band) -> SpectralField:
    """The full-layout field of a run's band array ``band``, as an observer
    receives it: +0.0 outside the band."""
    return SpectralField(grid, grid.ops.from_band(band))


def full_index(grid, index) -> np.ndarray:
    """The flat indices into a ``(dim,) + spectral_shape`` array of the flat
    band positions ``index``, in their order."""
    marks = np.zeros((grid.dim,) + grid.ops.band_shape, dtype=bool)
    marks.flat[index] = True
    return np.flatnonzero(grid.ops.from_band(marks))


def dealias(f) -> SpectralField:
    """The band part of ``f`` on the full layout: its coefficients there
    times 1 (as the dealias mask multiplies them), +0.0 everywhere else."""
    ops = f.grid.ops
    return SpectralField(f.grid, ops.from_band(ops.to_band(f.coeffs * ops.mask_c)))


def full_layout_start(cfg, seed, path_id) -> SpectralField:
    """The start drawn, projected and dealiased on the full layout: the
    oracle of ``solver.initial_state``, which is its band."""
    return dealias(leray_project(cfg.initial.sample(cfg.grid, seed, path_id)))


def gradient_physical(f) -> np.ndarray:
    """Point values of d u_i / d x_j of ``f``, shape (dim, dim) + grid.shape,
    [i, j], from the full layout: the oracle of ``spectral.band_gradient``."""
    grid = f.grid
    out = np.empty((grid.dim,) + f.coeffs.shape, dtype=np.complex128)
    for j, k in enumerate(grid.ops.dks):
        out[:, j] = 1j * k * f.coeffs
    return half_to_physical(grid, out)


def resample(f, grid_new) -> SpectralField:
    """``f`` on a finer or coarser grid by mode transfer on the full layout,
    the modes outside the smaller Nyquist range dropped."""
    grid = f.grid
    if grid_new.dim != grid.dim:
        raise SpectralError("resample cannot change the dimension")
    span = min(grid.n, grid_new.n) // 2 - 1
    out = np.zeros((grid.dim,) + grid_new.spectral_shape, dtype=np.complex128)
    scale = (grid_new.n / grid.n) ** grid.dim
    ks = np.concatenate([np.arange(0, span + 1), np.arange(-span, 0)])
    idx_old = [ks % grid.n] * (grid.dim - 1) + [np.arange(0, span + 1)]
    idx_new = [ks % grid_new.n] * (grid.dim - 1) + [np.arange(0, span + 1)]
    out[np.ix_(range(grid.dim), *idx_new)] = f.coeffs[np.ix_(range(grid.dim), *idx_old)] * scale
    return SpectralField(grid_new, out)


def resampled_relative_energy(u0, v0) -> float:
    """0.5 ||u0 - v0||^2 of two fields, compared on the finer grid by
    ``resample``: the oracle of ``weakstrong.initial_relative_energy``."""
    fine, coarse = (u0, v0) if u0.grid.n >= v0.grid.n else (v0, u0)
    diff = fine.coeffs - resample(coarse, fine.grid).coeffs
    return 0.5 * l2_norm_sq(SpectralField(fine.grid, diff))


def parseval_energy(f) -> tuple:
    """(0.5 ||u||^2, ||grad u||^2) of ``f`` by Parseval, summed over the
    full layout: the oracle of the band energy of ``run_path``."""
    grid = f.grid
    power = (f.coeffs.real ** 2 + f.coeffs.imag ** 2).sum(axis=0) * grid.ops.weight
    scale = grid.volume / grid.n ** (2 * grid.dim)
    return 0.5 * float(power.sum()) * scale, float(np.sum(grid.ops.k2 * power)) * scale


def trace_defect(trace, s, t) -> float:
    """The energy-inequality defect G(t) - G(s) of an ``EnergyTrace`` over
    [s, t], both on its time grid; <= 0 means admissible."""
    if len(trace.times) < 2:
        raise SolverError("trace holds a single entry; no time pairs exist")
    dt, last = trace.times[1] - trace.times[0], len(trace.times) - 1
    si, ti = (step_index(x - trace.times[0], dt, last) for x in (s, t))
    if si >= ti:
        raise SolverError(f"need s < t on the trace grid, got {s}, {t}")
    g = trace.compensated()
    return float(g[ti] - g[si])


def space_cell_index(partition, m=None) -> np.ndarray:
    """The space cell of every point of the m^dim grid (the partition's
    sampling grid if None), flattened in grid order: the cell layout as an
    index, for a bincount over the samples."""
    m = partition.grid_n if m is None else m
    idx1 = np.arange(m) // (m // partition.n_x)
    coords = np.meshgrid(*[idx1] * partition.dim, indexing="ij")
    return np.ravel_multi_index(coords, (partition.n_x,) * partition.dim).ravel()


def total_volume(partition) -> float:
    """The space-time volume of a ``CellPartition``."""
    return (2.0 * np.pi) ** partition.dim * (partition.t1 - partition.t0)


@pytest.fixture
def grid2d():
    return TorusGrid(2, 32)


@pytest.fixture
def grid3d():
    return TorusGrid(3, 16)


def random_divfree_field(grid: TorusGrid, rng: np.random.Generator,
                         scale: float = 1.0) -> SpectralField:
    """Random smooth divergence-free field, band-limited to the dealias cut."""
    vals = rng.standard_normal((grid.dim,) + grid.shape) * scale
    f = SpectralField.from_physical(grid, vals)
    cut = grid.dealias_cutoff()
    k2 = grid.ops.k2
    # smooth decay keeps fields resolution-independent and well inside the band
    filt = np.exp(-2.0 * k2 / cut ** 2) * grid.ops.mask
    return leray_project(SpectralField(grid, f.coeffs * filt))


def random_field(grid: TorusGrid, rng: np.random.Generator,
                 scale: float = 1.0) -> SpectralField:
    """Random smooth field with a nonzero gradient part."""
    vals = rng.standard_normal((grid.dim,) + grid.shape) * scale
    f = SpectralField.from_physical(grid, vals)
    k2 = grid.ops.k2
    filt = np.exp(-2.0 * k2 / grid.dealias_cutoff() ** 2)
    return SpectralField(grid, f.coeffs * filt)


def full_wavenumbers(grid: TorusGrid) -> tuple:
    """Integer wavenumbers per axis in np.fft.fftn layout, broadcastable."""
    k1 = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    return tuple(k1.reshape([grid.n if a == axis else 1 for a in range(grid.dim)])
                 for axis in range(grid.dim))


def coeff_at(f: SpectralField, k) -> np.ndarray:
    """Our coefficient vector at wavevector k: the stored one at k, or the
    conjugate of the one stored at -k when k_last < 0."""
    n = f.grid.n
    if k[-1] < 0:
        return np.conj(f.coeffs[(slice(None),) + tuple(-q % n for q in k)])
    return f.coeffs[(slice(None),) + tuple(q % n for q in k)]


def full_layout(f: SpectralField) -> np.ndarray:
    """Full np.fft.fftn-layout coefficients of f, each read by coeff_at."""
    k1 = np.fft.fftfreq(f.grid.n, d=1.0 / f.grid.n).astype(int)
    out = np.empty((f.grid.dim,) + f.grid.shape, dtype=np.complex128)
    for idx in np.ndindex(f.grid.shape):
        out[(slice(None),) + idx] = coeff_at(f, tuple(k1[i] for i in idx))
    return out
