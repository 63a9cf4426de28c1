import os

import numpy as np
import pytest

from dissipeuler.forcing import WienerPath
from dissipeuler.solver import initial_state, run_path
from dissipeuler.spectral import SpectralField, TorusGrid, leray_project


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
