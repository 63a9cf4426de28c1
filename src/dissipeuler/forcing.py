"""Cylindrical Wiener process and finite-rank Hilbert-Schmidt forcing.

The forcing operator maps the k-th coordinate of an abstract Wiener process
to ``sigma_k * g_k`` where ``g_k`` is a unit-L2, divergence-free
trigonometric mode (direction orthogonal to the wavevector).  Noise
increments are a pure function of ``(seed, path_id, mode, step)`` through a
Philox counter-based generator, so one Wiener path can be replayed
bit-exactly across viscosities and resolutions.  Time refinement halves dt
by Brownian-bridge subdivision of the stored coarse increments, keeping all
dt levels on the same path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .spectral import SpectralField, TorusGrid

_KEY_SALT = np.uint64(0x9E3779B97F4A7C15)

# counter layout: (step, mode, path_id, stream); stream 0 holds base
# increments, stream m >= 1 the bridge noise injected at refinement level m,
# and the auxiliary block serves non-increment draws (initial conditions)
_STREAM_BASE = 0
_STREAM_AUX = 1 << 32


class ForcingError(ValueError):
    pass


class UnresolvedModeError(ForcingError):
    """A forcing mode lies outside the dealias band of a grid."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class ForcingMode:
    """One forcing component: wavevector, transverse direction, amplitude.

    ``parity`` selects cos or sin spatial dependence so distinct modes are
    L2-orthogonal even on a shared wavevector.
    """

    k: tuple
    direction: tuple
    sigma: float
    parity: str = "cos"

    def __post_init__(self):
        k = tuple(int(x) for x in self.k)
        d = np.asarray(self.direction, dtype=np.float64)
        if len(k) != d.shape[0]:
            raise ForcingError("wavevector and direction dimensions differ")
        if all(x == 0 for x in k):
            raise ForcingError("forcing wavevector must be nonzero")
        if self.sigma < 0:
            raise ForcingError("amplitude must be >= 0")
        if self.parity not in ("cos", "sin"):
            raise ForcingError(f"parity must be 'cos' or 'sin', got {self.parity!r}")
        nrm = float(np.linalg.norm(d))
        if nrm == 0.0:
            raise ForcingError("direction must be nonzero")
        d = d / nrm
        if abs(float(np.dot(d, np.asarray(k, dtype=float)))) > 1e-12:
            raise ForcingError(f"direction {tuple(d)} not orthogonal to wavevector {k}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "direction", tuple(d))


@dataclass(frozen=True)
class ForcingOperator:
    """Finite-rank operator Phi with divergence-free trigonometric range."""

    modes: tuple

    def __post_init__(self):
        modes = tuple(self.modes)
        if len(modes) < 1:
            raise ForcingError("forcing operator needs at least one mode")
        dims = {len(m.k) for m in modes}
        if len(dims) != 1:
            raise ForcingError("all forcing modes must share the dimension")
        object.__setattr__(self, "modes", modes)

    @property
    def rank(self) -> int:
        return len(self.modes)

    @property
    def dim(self) -> int:
        return len(self.modes[0].k)

    def hs_norm_sq(self) -> float:
        """sum_k sigma_k^2 ||g_k||^2 with unit-norm g_k."""
        return float(sum(m.sigma ** 2 for m in self.modes))

    def check_resolved(self, grid: TorusGrid) -> None:
        """Every mode lies in the dealias band |k_j| <= grid.dealias_cutoff().

        A mode beyond it would put energy that the dealiased convective
        term never sees, and would break the solver's invariant that every
        state lies in the band.
        """
        if grid.dim != self.dim:
            raise ForcingError("forcing dimension does not match grid")
        cutoff = grid.dealias_cutoff()
        for i, m in enumerate(self.modes):
            if any(abs(q) > cutoff for q in m.k):
                raise UnresolvedModeError(
                    i, f"forcing mode {m.k} lies outside the dealias band "
                       f"|k_j| <= {cutoff} of n={grid.n}")

    def mode_field(self, grid: TorusGrid, idx: int) -> SpectralField:
        """The unit-L2 field g_k for one mode: direction * trig(k.x) * sqrt(2/vol)."""
        self.check_resolved(grid)
        m = self.modes[idx]
        amp = np.sqrt(2.0 / grid.volume)
        d = np.asarray(m.direction)
        if m.parity == "cos":
            vec = 0.5 * amp * d  # cos = (e^{ikx} + e^{-ikx})/2
        else:
            vec = (0.5 / 1j) * amp * d  # sin = (e^{ikx} - e^{-ikx})/2i
        return SpectralField.from_modes(grid, {m.k: vec})

    def noise_support(self, grid: TorusGrid) -> tuple:
        """Sparse coefficients of sigma_k g_k as ``(index, values)``.

        ``index`` holds the flat indices, into coefficient arrays of shape
        (dim,) + grid.spectral_shape, where some sigma_k g_k is nonzero: the
        stored ones of the +-k coefficients of each mode.  ``values[k]`` are
        the coefficients of sigma_k g_k there, shape (K, len(index)).
        """
        dense = np.stack([m.sigma * self.mode_field(grid, i).coeffs.ravel()
                          for i, m in enumerate(self.modes)])
        index = np.flatnonzero(np.any(dense != 0, axis=0))
        return index, dense[:, index]


def apply_noise(phi: ForcingOperator, increments: np.ndarray,
                grid: TorusGrid) -> SpectralField:
    """sum_k sigma_k g_k dW_k as a divergence-free field.

    ``increments`` has shape (K,).  Rejects forcing wavevectors the grid
    cannot represent.
    """
    increments = np.asarray(increments, dtype=np.float64)
    if increments.shape != (phi.rank,):
        raise ForcingError(f"expected {phi.rank} increments, got {increments.shape}")
    index, values = phi.noise_support(grid)
    coeffs = np.zeros((grid.dim,) + grid.spectral_shape, dtype=np.complex128)
    coeffs.flat[index] = increments @ values
    return SpectralField(grid, coeffs)


# -- counter-based increment streams --------------------------------------


def _raw_words(seed: int, path_id: int, mode: int, start: int, count: int,
               stream: int) -> np.ndarray:
    key = np.array([np.uint64(seed), _KEY_SALT], dtype=np.uint64)
    counter = np.array([start, mode, path_id, stream], dtype=np.uint64)
    bg = np.random.Philox(key=key, counter=counter)
    return bg.random_raw(4 * count)[::4]

def _normals(seed: int, path_id: int, mode: int, start: int, count: int,
             stream: int = _STREAM_BASE) -> np.ndarray:
    if count == 0:
        return np.zeros(0)
    raw = _raw_words(seed, path_id, mode, start, count, stream)
    # 53-bit uniform strictly inside (0, 1), then exact inverse CDF
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53 + 2.0 ** -54
    return ndtri(u)


def auxiliary_normals(seed: int, path_id: int, tag: int, count: int) -> np.ndarray:
    """Standard normals from a stream disjoint from all increment streams.

    Pure in (seed, path_id, tag); used for reproducible initial-condition
    sampling without perturbing the Wiener increments.
    """
    return _normals(seed, path_id, tag, 0, count, _STREAM_AUX)


def sample_increments(seed: int, path_id: int, n_modes: int, dt: float,
                      start: int, stop: int) -> np.ndarray:
    """Gaussian increments dW_k(n) ~ N(0, dt), shape (stop - start, n_modes).

    Pure in (seed, path_id, k, n): identical output for identical keys
    regardless of call order, chunking, or thread count.
    """
    if dt <= 0:
        raise ForcingError("dt must be positive")
    if stop < start:
        raise ForcingError("empty or negative step range")
    out = np.empty((stop - start, n_modes))
    root = np.sqrt(dt)
    for k in range(n_modes):
        out[:, k] = root * _normals(seed, path_id, k, start, stop - start)
    return out


@dataclass(frozen=True)
class WienerPath:
    """Discretized cylindrical Wiener path for a finite mode set.

    ``increments[n, k]`` is dW_k over step n; ``level`` counts how many
    Brownian-bridge halvings separate this path from its level-0 parent.
    """

    seed: int
    path_id: int
    dt: float
    increments: np.ndarray = field(repr=False)
    level: int = 0

    def __post_init__(self):
        self.increments.setflags(write=False)

    @property
    def steps(self) -> int:
        return self.increments.shape[0]

    @property
    def n_modes(self) -> int:
        return self.increments.shape[1]

    @property
    def horizon(self) -> float:
        return self.dt * self.steps

    @staticmethod
    def sample(seed: int, path_id: int, n_modes: int, dt: float,
               steps: int) -> "WienerPath":
        inc = sample_increments(seed, path_id, n_modes, dt, 0, steps)
        return WienerPath(seed, path_id, dt, inc)

    def refine(self) -> "WienerPath":
        """Halve dt by Brownian-bridge subdivision; keeps the coarse sums.

        Each coarse increment D over dt splits as (D/2 + xi, D/2 - xi) with
        xi ~ N(0, dt/4) drawn from a stream keyed by the refinement level,
        so every dt level reproduces the same underlying path.
        """
        half = 0.5 * self.increments
        xi = np.empty_like(self.increments)
        root = np.sqrt(self.dt / 4.0)
        stream = self.level + 1
        for k in range(self.n_modes):
            xi[:, k] = root * _normals(self.seed, self.path_id, k, 0,
                                       self.steps, stream)
        fine = np.empty((2 * self.steps, self.n_modes))
        fine[0::2] = half + xi
        fine[1::2] = half - xi
        return WienerPath(self.seed, self.path_id, self.dt / 2.0, fine,
                          level=self.level + 1)

    def refined(self, factor: int) -> "WienerPath":
        """Refine dt by a power-of-two factor."""
        if factor < 1 or factor & (factor - 1) != 0:
            raise ForcingError("refinement factor must be a power of two")
        path = self
        while factor > 1:
            path = path.refine()
            factor //= 2
        return path

    def coordinates(self) -> np.ndarray:
        """beta_k at grid times, shape (steps + 1, n_modes); beta_k(0) = 0."""
        out = np.zeros((self.steps + 1, self.n_modes))
        np.cumsum(self.increments, axis=0, out=out[1:])
        return out


def default_forcing(dim: int, sigma: float = 0.5) -> ForcingOperator:
    """Small four-mode forcing acting on the lowest wavevectors."""
    if dim == 2:
        modes = (
            ForcingMode((1, 0), (0.0, 1.0), sigma, "cos"),
            ForcingMode((0, 1), (1.0, 0.0), sigma, "sin"),
            ForcingMode((1, 1), (1.0, -1.0), 0.5 * sigma, "cos"),
            ForcingMode((2, 1), (1.0, -2.0), 0.25 * sigma, "sin"),
        )
    else:
        modes = (
            ForcingMode((1, 0, 0), (0.0, 1.0, 0.0), sigma, "cos"),
            ForcingMode((0, 1, 0), (0.0, 0.0, 1.0), sigma, "sin"),
            ForcingMode((0, 0, 1), (1.0, 0.0, 0.0), 0.5 * sigma, "cos"),
            ForcingMode((1, 1, 0), (0.0, 0.0, 1.0), 0.25 * sigma, "sin"),
        )
    return ForcingOperator(modes)
