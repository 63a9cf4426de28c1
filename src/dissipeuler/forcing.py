"""Cylindrical Wiener process and finite-rank Hilbert-Schmidt forcing.

The forcing operator maps the k-th coordinate of an abstract Wiener process
to ``sigma_k * g_k`` where ``g_k`` is a unit-L2, divergence-free
trigonometric mode (direction orthogonal to the wavevector).  The unforced
equations are the case Phi = 0: ``ForcingOperator(())``, of rank 0, whose
Wiener paths have no modes and whose noise is an empty sum.  Noise
increments are a pure function of ``(seed, path_id, mode, step)`` through a
Philox counter-based generator, so one Wiener path can be replayed
bit-exactly across viscosities and resolutions.  Time refinement halves dt
by Brownian-bridge subdivision of the stored coarse increments, keeping all
dt levels on the same path; ``check_dt`` is every reader's time-step rule,
and ``check_seed``, ``check_path_id`` and ``check_modes`` are every
sampler's rules for the words of its counter and its mode count.
A run adds the noise and takes its Ito pairings on ``noise_support``.

Normals come from uniforms by cephes' inverse normal CDF ``ndtri``,
ported to numpy with cephes' branch points, polynomial evaluation order
and libm logarithms (``math.log``; numpy's vectorized ``log`` rounds some
arguments differently), so every draw has the bits of the C routine.  The
port costs a fixed ~0.1 ms a call, so each sampler draws the raw words of
all its modes (and paths) first, from one generator whose counter it sets
per stream, and makes one inverse-CDF call on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import BandSupport, SpectralField, TorusGrid

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
        if not 0 <= self.sigma < math.inf:
            raise ForcingError(f"amplitude must be finite and >= 0, got {self.sigma}")
        if self.parity not in ("cos", "sin"):
            raise ForcingError(f"parity must be 'cos' or 'sin', got {self.parity!r}")
        with np.errstate(over="ignore"):   # a norm that overflows is inf
            nrm = float(np.linalg.norm(d))
        if not 0.0 < nrm < math.inf:   # NaN and infinite components fail too
            raise ForcingError(f"direction must have a finite nonzero norm, got {d}")
        d = d / nrm
        if abs(float(np.dot(d, np.asarray(k, dtype=float)))) > 1e-12:
            raise ForcingError(f"direction {tuple(d)} not orthogonal to wavevector {k}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "direction", tuple(d))


@dataclass(frozen=True)
class ForcingOperator:
    """Finite-rank operator Phi with divergence-free trigonometric range;
    with no modes it is Phi = 0, of rank 0."""

    modes: tuple

    def __post_init__(self):   # each mode's dimension is checked against a grid
        object.__setattr__(self, "modes", tuple(self.modes))

    @property
    def rank(self) -> int:
        return len(self.modes)

    def hs_norm_sq(self) -> float:
        """sum_k sigma_k^2 ||g_k||^2 with unit-norm g_k."""
        return float(sum(m.sigma ** 2 for m in self.modes))

    def check_resolved(self, grid: TorusGrid) -> None:
        """Every mode lies in the dealias band |k_j| <= grid.dealias_cutoff().

        A mode beyond it would put energy that the dealiased convective
        term never sees, and would break the solver's invariant that every
        state lies in the band.
        """
        cutoff = grid.dealias_cutoff()
        for i, m in enumerate(self.modes):
            if len(m.k) != grid.dim:
                raise ForcingError(f"forcing mode {m.k} does not match grid dim {grid.dim}")
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

    def noise_support(self, grid: TorusGrid) -> BandSupport:
        """The ``BandSupport`` of the fields sigma_k g_k on ``grid``: the
        stored +-k coefficients of each mode, none at rank 0."""
        ops = grid.ops
        rows = [m.sigma * ops.to_band(self.mode_field(grid, i).coeffs)
                for i, m in enumerate(self.modes)]
        return ops.support(np.reshape(rows, (self.rank, grid.dim) + ops.band_shape))


def apply_noise(phi: ForcingOperator, increments: np.ndarray,
                grid: TorusGrid) -> SpectralField:
    """sum_k sigma_k g_k dW_k as a divergence-free field.

    ``increments`` has shape (K,).  Rejects forcing wavevectors the grid
    cannot represent.
    """
    increments = np.asarray(increments, dtype=np.float64)
    if increments.shape != (phi.rank,):
        raise ForcingError(f"expected {phi.rank} increments, got {increments.shape}")
    support = phi.noise_support(grid)
    band = np.zeros((grid.dim,) + grid.ops.band_shape, dtype=np.complex128)
    band.flat[support.index] = increments @ support.values
    return SpectralField(grid, grid.ops.from_band(band))


# -- inverse normal CDF -----------------------------------------------------

# cephes ndtri: a rational function of (p - 1/2)^2 on the centre
# exp(-2) < p < 1 - exp(-2); on the tails one of x = sqrt(-2 log p) and
# 1/x, switching at x = 8.  Each pair holds the Horner coefficients of the
# numerator P and the denominator Q, highest degree first.  Q's leading 1,
# implicit in cephes' p1evl, is written out: 1 * t is t, so the loop makes
# cephes' operations.
_EXP_M2 = 0.13533528323661269189
_NDTRI_BLOCK = 1 << 16   # values per pass, bounding the temporaries
_SQRT_2PI = 2.50662827463100050242
_NDTRI_CENTRE = (
    (-5.99633501014107895267e1, 9.80010754185999661536e1,
     -5.66762857469070293439e1, 1.39312609387279679503e1,
     -1.23916583867381258016e0),
    (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
     8.63602421390890590575e1, -2.25462687854119370527e2,
     2.00260212380060660359e2, -8.20372256168333339912e1,
     1.59056225126211695515e1, -1.18331621121330003142e0))
_NDTRI_NEAR = (   # 2 <= x < 8
    (4.05544892305962419923e0, 3.15251094599893866154e1,
     5.71628192246421288162e1, 4.40805073893200834700e1,
     1.46849561928858024014e1, 2.18663306850790267539e0,
     -1.40256079171354495875e-1, -3.50424626827848203418e-2,
     -8.57456785154685413611e-4),
    (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
     4.13172038254672030440e1, 1.50425385692907503408e1,
     2.50464946208309415979e0, -1.42182922854787788574e-1,
     -3.80806407691578277194e-2, -9.33259480895457427372e-4))
_NDTRI_FAR = (    # x >= 8
    (3.23774891776946035970e0, 6.91522889068984211695e0,
     3.93881025292474443415e0, 1.33303460815807542389e0,
     2.01485389549179081538e-1, 1.23716634817820021358e-2,
     3.01581553508235416007e-4, 2.65806974686737550832e-6,
     6.23974539184983293730e-9),
    (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
     1.37702099489081330271e0, 2.16236993594496635890e-1,
     1.34204006088543189037e-2, 3.28014464682127739104e-4,
     2.89247864745380683936e-6, 6.79019408009981274425e-9))


def _horner(t: np.ndarray, coeffs: tuple) -> np.ndarray:
    acc = np.full_like(t, coeffs[0])
    for c in coeffs[1:]:
        acc *= t
        acc += c
    return acc


def _rational(t: np.ndarray, pq: tuple) -> np.ndarray:
    """t * P(t) / Q(t) in cephes' order of operations."""
    out = _horner(t, pq[0])
    out *= t
    out /= _horner(t, pq[1])
    return out


def _libm_log(x: np.ndarray) -> np.ndarray:
    """libm's log of each entry, which numpy's vectorized log is not."""
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


def ndtri(p) -> np.ndarray:
    """Inverse of the standard normal CDF, elementwise, with the bits of
    cephes' ``ndtri``: -inf at 0, +inf at 1, nan outside [0, 1]."""
    p = np.asarray(p, dtype=np.float64)
    out = np.empty(p.shape)
    flat, flat_out = p.ravel(), out.reshape(-1)
    for lo in range(0, flat.size, _NDTRI_BLOCK):
        flat_out[lo:lo + _NDTRI_BLOCK] = _ndtri_block(flat[lo:lo + _NDTRI_BLOCK])
    return out


def _ndtri_block(p: np.ndarray) -> np.ndarray:
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)   # the tail mass, then the result
    centre = y > _EXP_M2
    tail = (y > 0.0) & ~centre
    edge = ~(centre | tail)
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    z = 1.0 / x
    r = _rational(z, _NDTRI_NEAR)
    far = x >= 8.0
    if far.any():
        r[far] = _rational(z[far], _NDTRI_FAR)
    x -= _libm_log(x) / x
    x -= r
    yc = y[centre] - 0.5
    r = _rational(yc * yc, _NDTRI_CENTRE)
    r *= yc
    r += yc
    r *= _SQRT_2PI        # (yc + yc * r) * sqrt(2 pi)
    y[centre] = r
    y[tail] = np.where(upper[tail], x, -x)
    y[edge] = np.where(y[edge] == 0.0, np.where(upper[edge], np.inf, -np.inf), np.nan)
    return y


# -- counter-based increment streams --------------------------------------

_BELOW_ONE = np.nextafter(1.0, 0.0)


def check_seed(seed: int, error=ForcingError) -> None:
    """A seed keys the 64-bit generator: 0 <= seed < 2**64 (a NaN is not), or ``error``."""
    if not 0 <= seed < 2 ** 64:
        raise error(f"seed must be in [0, 2**64), got {seed}")


def check_path_id(path_id: int, error=ForcingError) -> None:
    """A path id is a word of the generator's counter: 0 <= path_id < 2**64
    (a NaN is not), or ``error``."""
    if not 0 <= path_id < 2 ** 64:
        raise error(f"path id must be in [0, 2**64), got {path_id}")


def check_modes(n_modes: int, error=ForcingError) -> None:
    """A Wiener path has n_modes >= 0 modes (a NaN has not), or ``error``."""
    if not n_modes >= 0:
        raise error(f"mode count must be >= 0, got {n_modes}")


def _raw_words(seed: int, path_ids, modes, start: int, count: int,
               stream: int) -> np.ndarray:
    """The words of steps start..start + count - 1 of every (path, mode)
    stream, shape (len(path_ids), count, len(modes)), from one generator.

    A stream's words are those of a fresh ``Philox(key, counter)`` at the
    counter (start, mode, path_id, stream): the generator is set to each
    counter with the empty buffer of a fresh one (``buffer_pos`` 4,
    ``has_uint32`` 0), which costs a fraction of building a generator.
    """
    check_seed(seed)
    key = np.array([np.uint64(seed), _KEY_SALT], dtype=np.uint64)
    bg = np.random.Philox(key=key)
    state = bg.state   # a fresh generator's, with its buffer empty
    words = np.empty((len(path_ids), count, len(modes)), dtype=np.uint64)
    for p, path_id in enumerate(path_ids):
        check_path_id(path_id)
        for k, mode in enumerate(modes):
            state["state"]["counter"] = np.array([start, mode, path_id, stream],
                                                 dtype=np.uint64)
            bg.state = state
            words[p, :, k] = bg.random_raw(4 * count)[::4]
    return words


def _uniforms(words: np.ndarray) -> np.ndarray:
    """53-bit uniforms strictly inside (0, 1): the top 53 bits of each word
    plus half an ulp.  The one word whose top bits are all set would round
    to 1.0 (an infinite normal) and is held just below it."""
    u = (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53 + 2.0 ** -54
    return np.minimum(u, _BELOW_ONE, out=u)


def check_dt(dt: float, error=ForcingError) -> None:
    """A time step is positive and finite (so not NaN), or ``error``."""
    if not 0 < dt < math.inf:
        raise error(f"dt must be positive and finite, got {dt}")


def _increments(seed: int, path_ids, n_modes: int, dt: float, start: int,
                stop: int, stream: int = _STREAM_BASE) -> np.ndarray:
    """N(0, dt) draws of steps start..stop - 1 of every mode of every path,
    shape (len(path_ids), stop - start, n_modes), by one ``ndtri`` call."""
    check_dt(dt)
    check_modes(n_modes)
    if stop < start:
        raise ForcingError("empty or negative step range")
    words = _raw_words(seed, path_ids, range(n_modes), start, stop - start, stream)
    out = ndtri(_uniforms(words))
    out *= np.sqrt(dt)
    return out


def auxiliary_normals(seed: int, path_id: int, tag: int, count: int) -> np.ndarray:
    """Standard normals from a stream disjoint from all increment streams.

    Pure in (seed, path_id, tag); used for reproducible initial-condition
    sampling without perturbing the Wiener increments.
    """
    words = _raw_words(seed, (path_id,), (tag,), 0, count, _STREAM_AUX)
    return ndtri(_uniforms(words[0, :, 0]))


def sample_increments(seed: int, path_id: int, n_modes: int, dt: float,
                      start: int, stop: int) -> np.ndarray:
    """Gaussian increments dW_k(n) ~ N(0, dt), shape (stop - start, n_modes).

    Pure in (seed, path_id, k, n): identical output for identical keys
    regardless of call order, chunking, or thread count.
    """
    return _increments(seed, (path_id,), n_modes, dt, start, stop)[0]


def refinement_halvings(factor: int, error=ForcingError) -> int:
    """The Brownian-bridge halvings that divide dt by ``factor``, which
    must be a power of two >= 1 (so not NaN), or ``error``."""
    if not (factor >= 1 and factor & (factor - 1) == 0):
        raise error(f"dt refinement factor must be a power of two >= 1, got {factor}")
    return factor.bit_length() - 1


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

    @staticmethod
    def sample(seed: int, path_id: int, n_modes: int, dt: float,
               steps: int) -> "WienerPath":
        inc = sample_increments(seed, path_id, n_modes, dt, 0, steps)
        return WienerPath(seed, path_id, dt, inc)

    @staticmethod
    def sample_many(seed: int, path_ids, n_modes: int, dt: float,
                    steps: int) -> tuple:
        """``sample`` of each id, bit for bit, drawn together."""
        inc = _increments(seed, path_ids, n_modes, dt, 0, steps)
        return tuple(WienerPath(seed, pid, dt, inc[p])
                     for p, pid in enumerate(path_ids))

    def refine(self) -> "WienerPath":
        """Halve dt by Brownian-bridge subdivision; keeps the coarse sums.

        Each coarse increment D over dt splits as (D/2 + xi, D/2 - xi) with
        xi ~ N(0, dt/4) drawn from a stream keyed by the refinement level,
        so every dt level reproduces the same underlying path.
        """
        half = 0.5 * self.increments
        xi = _increments(self.seed, (self.path_id,), self.n_modes,
                         self.dt / 4.0, 0, self.steps, self.level + 1)[0]
        fine = np.empty((2 * self.steps, self.n_modes))
        fine[0::2] = half + xi
        fine[1::2] = half - xi
        return WienerPath(self.seed, self.path_id, self.dt / 2.0, fine,
                          level=self.level + 1)

    def refined(self, factor: int) -> "WienerPath":
        """Refine dt by a power-of-two factor."""
        path = self
        for _ in range(refinement_halvings(factor)):
            path = path.refine()
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
