"""Fourier representation of periodic vector fields on the torus.

Velocity fields live on ``[0, 2*pi)^dim`` (dim 2 or 3) and are stored as
full complex FFT coefficient arrays, one block per velocity component, in
numpy ``fftn`` layout (unnormalized forward transform).  Everything here is
a pure function: divergence-free (Leray) projection, spectral derivatives,
the dealiased convective term, Parseval inner products, and a small binary
snapshot format.

Conventions
-----------
* Coefficients ``c[i, k1, .., kd]`` satisfy
  ``u_i(x) = n^{-dim} * sum_k c[i, k] exp(i k.x)``.
* Real-valued fields have Hermitian-symmetric coefficients; constructors
  enforce this.
* The quadratic nonlinearity is dealiased by the 2/3 rule with strict
  cutoff ``|k_j| <= n//3 - (1 if 3 | n else 0)`` chosen so that aliased
  images of products of retained modes never fold back onto retained modes.
* Storage stays in the full ``fftn`` layout everywhere, but the transforms
  run on the real half spectrum (last axis ``n//2 + 1``) through
  ``scipy.fft.rfftn``/``irfftn``, in this module only.  ``_complete``
  rebuilds the full layout from a half spectrum by Hermitian symmetry.
* The Fourier multipliers of a grid (wavenumbers, |k|^2, 1/|k|^2, the
  dealias mask and their half-spectrum slices) are built once per
  ``TorusGrid`` and shared read-only.
"""

from __future__ import annotations

import functools
import itertools
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

TWO_PI = 2.0 * np.pi

_SNAPSHOT_MAGIC = b"DEFLD\x00"
_SNAPSHOT_VERSION = 1


class SpectralError(ValueError):
    pass


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on the periodic torus, side length 2*pi per axis."""

    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise SpectralError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 8:
            raise SpectralError(f"n must be >= 8, got {self.n}")
        if self.n & (self.n - 1) != 0:
            raise SpectralError(f"n must be a power of two, got {self.n}")

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def volume(self) -> float:
        return TWO_PI ** self.dim

    @property
    def dx(self) -> float:
        return TWO_PI / self.n

    @property
    def dof(self) -> int:
        return self.dim * self.n ** self.dim

    @functools.cached_property
    def ops(self) -> "GridOperators":
        """The grid's Fourier multipliers, built on first use."""
        return GridOperators(self)

    def wavenumbers(self) -> tuple:
        """Integer wavenumber array per axis, fftn layout, shape broadcastable."""
        return self.ops.ks

    def k_squared(self) -> np.ndarray:
        return self.ops.k2

    def dealias_cutoff(self) -> int:
        # strict 2/3 rule: with cutoff K, alias images of quadratic products
        # land at |k| >= n - 2K > K
        return (self.n - 1) // 3

    def dealias_mask(self) -> np.ndarray:
        return self.ops.mask

    def points(self) -> tuple:
        """Physical grid coordinates, one broadcastable array per axis."""
        x1 = np.arange(self.n) * self.dx
        out = []
        for axis in range(self.dim):
            shape = [1] * self.dim
            shape[axis] = self.n
            out.append(x1.reshape(shape))
        return tuple(out)


class GridOperators:
    """Read-only Fourier multipliers of one grid.

    Full-layout arrays (``ks``, ``k2``, ``inv_k2``, ``mask``) act on
    ``SpectralField.coeffs``; the ``*_half`` arrays are their slices on the
    half spectrum that the real transforms produce.  ``dks_half`` are the
    derivative wavenumbers: the Nyquist wavenumber of each axis is 0 there,
    as ``real(ifftn(1j * k * c))`` implies for a real field.  ``mirror``
    pairs slices of the missing half with the half-spectrum slices at -k.
    """

    def __init__(self, grid: TorusGrid):
        n, dim = grid.n, grid.dim
        k1 = np.fft.fftfreq(n, d=1.0 / n)
        dk1 = k1.copy()
        dk1[n // 2] = 0.0
        half = slice(0, n // 2 + 1)

        def per_axis(k):
            out = []
            for axis in range(dim):
                shape = [1] * dim
                shape[axis] = n
                out.append(k.reshape(shape))
            return tuple(out)

        self.ks = per_axis(k1)
        self.k2 = sum(k ** 2 for k in self.ks)
        self.inv_k2 = 1.0 / np.where(self.k2 == 0, 1.0, self.k2)
        cut = grid.dealias_cutoff()
        self.mask = np.ones(grid.shape, dtype=bool)
        for k in self.ks:
            self.mask &= np.abs(k) <= cut
        dks = per_axis(dk1)
        self.ks_half = self.ks[:-1] + (self.ks[-1][..., half],)
        self.dks_half = dks[:-1] + (dks[-1][..., half],)
        self.inv_k2_half = self.inv_k2[..., half]
        self.mask_half = self.mask[..., half]
        # -k of index j is index (n - j) % n: index 0 maps to itself, the
        # rest reverses; one (destination, source) slice pair per block
        tail = (slice(n // 2 + 1, None),)
        tail_src = (slice(n // 2 - 1, 0, -1),)
        self.mirror = tuple(
            (dst + tail, tuple(slice(0, 1) if b.stop == 1 else slice(None, 0, -1)
                               for b in dst) + tail_src)
            for dst in itertools.product((slice(0, 1), slice(1, None)),
                                         repeat=dim - 1))
        for arr in (*self.ks, self.k2, self.inv_k2, self.mask, *self.ks_half,
                    *self.dks_half, self.inv_k2_half, self.mask_half):
            arr.setflags(write=False)


def _axes(grid: TorusGrid) -> tuple:
    return tuple(range(-grid.dim, 0))


def _rfft(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Half spectrum of real point values over the trailing grid axes."""
    return scipy.fft.rfftn(values, axes=_axes(grid))


def half_to_physical(grid: TorusGrid, half: np.ndarray) -> np.ndarray:
    """Real point values from a half spectrum over the trailing grid axes."""
    return scipy.fft.irfftn(half, s=grid.shape, axes=_axes(grid))


def _half(c: np.ndarray) -> np.ndarray:
    """The half spectrum (last axis n//2 + 1) of full-layout coefficients."""
    return c[..., : c.shape[-1] // 2 + 1]


def _complete(grid: TorusGrid, half: np.ndarray) -> np.ndarray:
    """Full fftn-layout coefficients of a real field from its half spectrum."""
    full = np.empty(half.shape[:-1] + (grid.n,), dtype=np.complex128)
    full[..., : half.shape[-1]] = half
    for dst, src in grid.ops.mirror:
        np.conjugate(half[(Ellipsis,) + src], out=full[(Ellipsis,) + dst])
    return full


@dataclass(frozen=True)
class SpectralField:
    """Divergence-free-capable vector field as complex Fourier coefficients.

    ``coeffs`` has shape ``(dim,) + (n,)*dim``.  Instances are immutable;
    all operations return new fields.
    """

    grid: TorusGrid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        expect = (self.grid.dim,) + self.grid.shape
        if self.coeffs.shape != expect:
            raise SpectralError(
                f"coefficient shape {self.coeffs.shape} does not match grid {expect}"
            )
        if self.coeffs.dtype != np.complex128:
            object.__setattr__(self, "coeffs", self.coeffs.astype(np.complex128))
        self.coeffs.setflags(write=False)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_physical(grid: TorusGrid, values: np.ndarray) -> "SpectralField":
        """Build from real point values of shape (dim,) + grid.shape."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (grid.dim,) + grid.shape:
            raise SpectralError(
                f"value shape {values.shape} does not match grid"
            )
        return SpectralField(grid, _complete(grid, _rfft(grid, values)))

    @staticmethod
    def zero(grid: TorusGrid) -> "SpectralField":
        return SpectralField(grid, np.zeros((grid.dim,) + grid.shape, dtype=np.complex128))

    @staticmethod
    def from_modes(grid: TorusGrid, modes) -> "SpectralField":
        """Build a real field from ``{wavevector: complex amplitude vector}``.

        Each entry contributes ``a * exp(i k.x) + conj(a) * exp(-i k.x)``
        so the result is real by construction.
        """
        c = np.zeros((grid.dim,) + grid.shape, dtype=np.complex128)
        scale = grid.n ** grid.dim
        for k, amp in modes.items():
            k = tuple(int(x) for x in k)
            amp = np.asarray(amp, dtype=np.complex128)
            if amp.shape != (grid.dim,):
                raise SpectralError("mode amplitude must be a dim-vector")
            if any(abs(x) > grid.n // 2 - 1 for x in k):
                raise SpectralError(f"mode {k} not representable on n={grid.n}")
            idx = tuple(x % grid.n for x in k)
            cidx = tuple((-x) % grid.n for x in k)
            for i in range(grid.dim):
                c[(i,) + idx] += amp[i] * scale
                c[(i,) + cidx] += np.conj(amp[i]) * scale
        return SpectralField(grid, c)

    # -- views ---------------------------------------------------------

    def to_physical(self) -> np.ndarray:
        return half_to_physical(self.grid, _half(self.coeffs))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, a: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * a)

    __rmul__ = __mul__


# -- core operations ----------------------------------------------------


def leray_project(f: SpectralField) -> SpectralField:
    """Remove the gradient part: u_hat -> u_hat - k (k.u_hat) / |k|^2.

    The k = 0 mode (mean flow) passes through unchanged.
    """
    ops = f.grid.ops
    return SpectralField(f.grid, _project(ops.ks, ops.inv_k2, f.coeffs))


def _project(ks: tuple, inv_k2: np.ndarray, c: np.ndarray) -> np.ndarray:
    """c - k (k.c) / |k|^2 on any layout the multipliers broadcast to."""
    factor = sum(ks[j] * c[j] for j in range(len(ks))) * inv_k2
    out = np.empty_like(c)
    for j in range(len(ks)):
        out[j] = c[j] - ks[j] * factor
    return out


def divergence_defect(f: SpectralField) -> float:
    """Relative size of k.u_hat over nonzero modes (0 when solenoidal)."""
    grid = f.grid
    ks = grid.wavenumbers()
    kdotu = sum(ks[j] * f.coeffs[j] for j in range(grid.dim))
    norm = float(np.sqrt(np.sum(np.abs(f.coeffs) ** 2)))
    if norm == 0.0:
        return 0.0
    return float(np.sqrt(np.sum(np.abs(kdotu) ** 2))) / norm


def gradient_physical(f: SpectralField) -> np.ndarray:
    """Point values of d u_i / d x_j, shape (dim, dim) + grid.shape, [i, j].

    Exact for the trigonometric interpolant.
    """
    grid = f.grid
    half = _half(f.coeffs)
    out = np.empty((grid.dim,) + half.shape, dtype=np.complex128)
    for j, k in enumerate(grid.ops.dks_half):
        out[:, j] = 1j * k * half
    return half_to_physical(grid, out)


def energy_and_grad_norm_sq(f: SpectralField) -> tuple:
    """(0.5 ||u||^2, ||grad u||^2) via Parseval from one pass over |c|^2."""
    grid = f.grid
    c = f.coeffs
    power = (c.real ** 2 + c.imag ** 2).sum(axis=0)
    scale = grid.volume / grid.n ** (2 * grid.dim)
    return (0.5 * float(power.sum()) * scale,
            float(np.sum(grid.ops.k2 * power)) * scale)


def inner_product(f: SpectralField, g: SpectralField) -> float:
    """L^2(T^dim) inner product, Parseval-exact."""
    grid = f.grid
    if g.grid != grid:
        raise SpectralError("fields live on different grids")
    s = float(np.real(np.sum(f.coeffs * np.conj(g.coeffs))))
    return s * grid.volume / grid.n ** (2 * grid.dim)


def l2_norm_sq(f: SpectralField) -> float:
    return inner_product(f, f)


def kinetic_energy(f: SpectralField) -> float:
    return 0.5 * l2_norm_sq(f)


def dealias(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, f.coeffs * f.grid.ops.mask)


def convective_term(u: SpectralField) -> SpectralField:
    """Leray-projected, dealiased divergence-form transport -P div(u x u).

    For divergence-free u this equals the projection of -(grad u) u and is
    L^2-orthogonal to u (energy-neutral transport).
    """
    conv, _ = _convective_with_sup(u)
    return conv


def _convective_with_sup(u: SpectralField):
    """Convective term plus max_x |u| (reuses the inverse transform).

    Projects on the half spectrum and completes the full layout once.
    """
    grid = u.grid
    ops = grid.ops
    phys = half_to_physical(grid, _half(u.coeffs) * ops.mask_half)
    sup = float(np.sqrt((phys ** 2).sum(axis=0).max()))
    out = _project(ops.ks_half, ops.inv_k2_half, _neg_div_products(grid, phys))
    return SpectralField(grid, _complete(grid, out)), sup


def _neg_div_products(grid: TorusGrid, phys: np.ndarray) -> np.ndarray:
    """Dealiased half spectrum of -div(u x u), i.e. -sum_j i k_j FFT(u_i u_j).

    ``phys`` holds the point values of u.  Each product u_i u_j (i <= j) is
    formed pointwise once, truncated to the dealias mask, then
    differentiated spectrally.  Accumulating the negative keeps the
    transport term sign-exact, signed zeros included.
    """
    ops = grid.ops
    out = np.zeros((grid.dim,) + ops.mask_half.shape, dtype=np.complex128)
    for i in range(grid.dim):
        for j in range(i, grid.dim):
            prod_hat = _rfft(grid, phys[i] * phys[j])
            prod_hat *= ops.mask_half
            out[i] -= 1j * ops.dks_half[j] * prod_hat
            if i != j:
                out[j] -= 1j * ops.dks_half[i] * prod_hat
    return out


def tensor_pairing(u: np.ndarray, g: np.ndarray) -> float:
    """sum_ij <u_i u_j, g_ij> over grid points, without quadrature weight.

    ``u`` is (dim, npts) point values, ``g`` is (dim, dim, npts).
    """
    dim = len(u)
    acc = 0.0
    for i in range(dim):
        for j in range(dim):
            acc += float(np.dot(u[i] * u[j], g[i, j]))
    return acc


def laplacian_decay_factor(grid: TorusGrid, eps: float, dt: float) -> np.ndarray:
    """Exact integrating factor exp(-eps |k|^2 dt) for the Stokes part."""
    return np.exp(-eps * grid.ops.k2 * dt)


def resample(f: SpectralField, grid_new: TorusGrid) -> SpectralField:
    """Re-express a field on a finer or coarser grid by mode transfer.

    Exact when the field is band-limited to the smaller Nyquist range;
    modes outside the target range are dropped.
    """
    grid = f.grid
    if grid_new.dim != grid.dim:
        raise SpectralError("resample cannot change the dimension")
    span = min(grid.n, grid_new.n) // 2 - 1
    out = np.zeros((grid.dim,) + grid_new.shape, dtype=np.complex128)
    scale = (grid_new.n / grid.n) ** grid.dim
    idx_old, idx_new = [], []
    for axis in range(grid.dim):
        ks = np.concatenate([np.arange(0, span + 1), np.arange(-span, 0)])
        idx_old.append(ks % grid.n)
        idx_new.append(ks % grid_new.n)
    mesh_old = np.ix_(range(grid.dim), *idx_old)
    mesh_new = np.ix_(range(grid.dim), *idx_new)
    out[mesh_new] = f.coeffs[mesh_old] * scale
    return SpectralField(grid_new, out)


def tail_energy_fraction(f: SpectralField) -> float:
    """Energy fraction above the dealias cutoff; resolution diagnostic."""
    mask = f.grid.ops.mask
    e2 = (np.abs(f.coeffs) ** 2).sum(axis=0)
    total = float(e2.sum())
    if total == 0.0:
        return 0.0
    return float(e2[~mask].sum()) / total


# -- named fields --------------------------------------------------------


def taylor_green(grid: TorusGrid, amplitude: float = 1.0) -> SpectralField:
    """Classical Taylor-Green vortex; steady-state Euler solution in 2D mean."""
    x = grid.points()
    shape = (grid.dim,) + grid.shape
    vals = np.zeros(shape)
    if grid.dim == 2:
        vals[0] = np.sin(x[0]) * np.cos(x[1])
        vals[1] = -np.cos(x[0]) * np.sin(x[1])
    else:
        vals[0] = np.sin(x[0]) * np.cos(x[1]) * np.cos(x[2])
        vals[1] = -np.cos(x[0]) * np.sin(x[1]) * np.cos(x[2])
        # third component identically zero
    vals = np.broadcast_to(vals, shape).copy() * amplitude
    return SpectralField.from_physical(grid, vals)


def single_mode(grid: TorusGrid, amplitude: float = 1.0) -> SpectralField:
    """u = amplitude * (sin x_2, 0, ..): divergence-free, steady for Euler."""
    x = grid.points()
    vals = np.zeros((grid.dim,) + grid.shape)
    vals[0] = np.broadcast_to(amplitude * np.sin(x[1]), grid.shape)
    return SpectralField.from_physical(grid, vals)


# -- snapshot file format -------------------------------------------------
#
# Version 1 layout, little endian throughout:
#   magic   6 bytes  b"DEFLD\x00"
#   version u16
#   dim     u8
#   n       u32
#   time    f64
#   data    dim * n^dim complex coefficients as (re, im) f64 pairs in
#           row-major (C) wavevector order, component-major.


def write_field(path, f: SpectralField, time: float) -> None:
    grid = f.grid
    with open(path, "wb") as fh:
        fh.write(_SNAPSHOT_MAGIC)
        fh.write(struct.pack("<HBId", _SNAPSHOT_VERSION, grid.dim, grid.n, float(time)))
        flat = np.ascontiguousarray(f.coeffs).view(np.float64)
        fh.write(flat.astype("<f8", copy=False).tobytes())


def read_field(path):
    """Read a snapshot; returns (SpectralField, time)."""
    with open(path, "rb") as fh:
        magic = fh.read(6)
        if magic != _SNAPSHOT_MAGIC:
            raise SpectralError(f"not a field snapshot: bad magic {magic!r}")
        header = fh.read(15)
        if len(header) != 15:
            raise SpectralError(f"truncated snapshot: expected a 15-byte "
                                f"header, got {len(header)} bytes")
        version, dim, n, time = struct.unpack("<HBId", header)
        if version != _SNAPSHOT_VERSION:
            raise SpectralError(f"unsupported snapshot version {version}")
        grid = TorusGrid(dim, n)
        count = 2 * dim * n ** dim
        data = fh.read(count * 8)
        if len(data) != count * 8:
            raise SpectralError(f"truncated snapshot: expected {count * 8} "
                                f"data bytes, got {len(data)}")
        raw = np.frombuffer(data, dtype="<f8", count=count)
        coeffs = raw.astype(np.float64).view(np.complex128).reshape((dim,) + grid.shape)
        return SpectralField(grid, coeffs.copy()), time
