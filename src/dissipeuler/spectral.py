"""Fourier representation of periodic vector fields on the torus.

Velocity fields live on ``[0, 2*pi)^dim`` (dim 2 or 3) and are stored as
the real half spectrum of their point values, one block per velocity
component, in ``rfftn`` layout (unnormalized forward transform; the last
axis keeps wavenumbers 0..n/2).  Everything here is a pure function:
Leray projection, derivatives and the transport term on the dealias band,
Parseval inner products, and a small binary snapshot format.

Conventions
-----------
* Coefficients ``c[i, k1, .., kd]`` satisfy
  ``u_i(x) = n^{-dim} * sum_k c[i, k] exp(i k.x)`` over all k, the
  coefficient at a k with negative last component being the conjugate of
  the stored one at -k (the field is real).
* The quadratic nonlinearity is dealiased by the 2/3 rule with strict
  cutoff ``|k_j| <= n//3 - (1 if 3 | n else 0)`` chosen so that aliased
  images of products of retained modes never fold back onto retained modes.
* Sums over the full spectrum (Parseval) weight each stored coefficient by
  the number of full-spectrum coefficients it stands for: 1 on the last-axis
  columns 0 and n/2, 2 elsewhere.
* The Fourier multipliers of a grid (wavenumbers, |k|^2, 1/|k|^2, the
  dealias mask and the Parseval weight) are built once per ``TorusGrid``
  and shared read-only, together with complex copies of the ones that
  multiply coefficients, so no step casts a real or boolean multiplier.
* The dealias band |k_j| <= K, K = ``dealias_cutoff()``, is also held on
  its own: a band array has shape ``(dim, 2K+1, .., 2K+1, K+1)``, the rows
  0..K then n-K..n-1 of each leading axis and the columns 0..K of the
  last, in that order.  ``GridOperators.to_band`` gathers it from the
  ``rfftn`` layout and ``from_band`` scatters it back with +0.0 elsewhere.
  A run of ``solver.run_path`` holds its state as a band array, pairs it
  with a few fields at once on their sparse ``BandSupport``, reads its
  gradient by ``band_gradient`` and ``band_embed`` moves it to a finer band.
* The transport kernel reads the point values of a dealias-band field and
  makes one forward transform of all dim(dim+1)/2 products u_i u_j stacked,
  to the band; a run transforms each state once, so a step costs two
  transforms, and ``convective_term`` dealiases and transforms any other
  field for it.
* Transforms are numpy's one-axis passes in a fixed order: the forward
  transform runs ``rfft`` over the last axis, then ``fft`` over axes
  -dim .. -2 in that order; the inverse runs ``ifft`` over axes -dim .. -2,
  then ``irfft`` over the last axis.  This is the order of pocketfft's own
  multi-axis real transforms, whose bits it reproduces;
  ``numpy.fft.rfftn`` runs its complex passes in the reverse order and
  rounds differently in 3D.
* The band transforms prune those passes: the inverse runs each ``ifft``
  pass on the band columns only, and on the band rows of the axes still
  to pass, before the full ``irfft``; the forward runs each ``fft`` pass,
  after the full ``rfft``, on the band columns and the band rows of the
  axes already passed, and gathers the band.  A pass over zeros gives
  +0.0, and each one-axis line is transformed alone, so they carry the
  bits of the full transforms.
"""

from __future__ import annotations

import functools
import itertools
import struct
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi

_SNAPSHOT_MAGIC = b"DEFLD\x00"
_SNAPSHOT_VERSION = 2


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
    def spectral_shape(self) -> tuple:
        """Shape of one coefficient block: ``rfftn`` output order."""
        return (self.n,) * (self.dim - 1) + (self.n // 2 + 1,)

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

    def dealias_cutoff(self) -> int:
        # strict 2/3 rule: with cutoff K, alias images of quadratic products
        # land at |k| >= n - 2K > K
        return (self.n - 1) // 3

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
    """Read-only Fourier multipliers of one grid, on the coefficient layout.

    ``ks`` are the wavenumbers per axis (broadcastable; the Nyquist index
    holds -n/2), ``dks`` the derivative wavenumbers, whose Nyquist entry is
    0 on every axis as ``real(ifftn(1j * k * c))`` implies for a real field.
    ``weight`` counts the full-spectrum coefficients each stored one stands
    for in a Parseval sum.  ``mask_c``, ``ks_c`` and ``inv_k2_c`` are
    complex copies for multiplying coefficients: they
    hold the values numpy would cast to on every use, so products with them
    carry the same bits.

    The dealias band |k_j| <= ``cut`` is held in ``band_shape`` arrays: the
    rows 0..cut, then n-cut..n-1 of each leading axis and the columns
    0..cut of the last.  ``to_band`` gathers it, ``from_band`` scatters it
    back, and ``band_ik``, ``band_ks_c``, ``band_k2``, ``band_inv_k2_c``
    and ``band_weight`` are the multipliers there.  ``scale`` is Parseval's
    factor vol / n^(2 dim).
    """

    def __init__(self, grid: TorusGrid):
        n, dim = grid.n, grid.dim
        k1 = np.fft.fftfreq(n, d=1.0 / n)

        def per_axis(k):
            out = []
            for axis in range(dim):
                kk = k if axis < dim - 1 else k[: n // 2 + 1]
                shape = [1] * dim
                shape[axis] = kk.size
                out.append(kk.reshape(shape))
            return tuple(out)

        self.n, self.dim, self.spectral_shape = n, dim, grid.spectral_shape
        self.scale = grid.volume / n ** (2 * dim)
        self.ks = per_axis(k1)
        self.dks = tuple(np.where(k == -(n // 2), 0.0, k) for k in self.ks)
        self.k2 = sum(k ** 2 for k in self.ks)
        self.inv_k2 = 1.0 / np.where(self.k2 == 0, 1.0, self.k2)
        self.cut = cut = grid.dealias_cutoff()
        self.mask = np.ones(grid.spectral_shape, dtype=bool)
        for k in self.ks:
            self.mask &= np.abs(k) <= cut
        self.weight = np.full(self.ks[-1].shape, 2.0)
        self.weight[..., 0] = self.weight[..., n // 2] = 1.0
        self.mask_c = self.mask.astype(np.complex128)
        self.ks_c = tuple(k.astype(np.complex128) for k in self.ks)
        self.inv_k2_c = self.inv_k2.astype(np.complex128)
        self.band_shape = (2 * cut + 1,) * (dim - 1) + (cut + 1,)
        # (full-layout index, band index) of each block of the band: the low
        # or the high rows of each leading axis, the band columns
        halves = ((slice(cut + 1), slice(cut + 1)),
                  (slice(n - cut, n), slice(cut + 1, None)))
        self._blocks = [((Ellipsis, *(f for f, _ in pick), slice(cut + 1)),
                         (Ellipsis, *(b for _, b in pick), slice(None)))
                        for pick in itertools.product(halves, repeat=dim - 1)]
        # (axis, blocks) of each complex pass of the band transforms: a pass
        # runs on the band columns, and on the band rows of the axes that
        # are band-limited at that point: those still to pass backward, and
        # those passed forward
        self._inverse_passes = [(axis, self._pass_blocks(range(axis + 1, -1)))
                                for axis in range(-dim, -1)]
        self._forward_passes = [(axis, self._pass_blocks(range(-dim, axis)))
                                for axis in range(-dim, -1)]
        self.band_ik = tuple(self.to_band(1j * k) for k in self.dks)
        self.band_ks_c = tuple(self.to_band(k) for k in self.ks_c)
        self.band_k2 = self.to_band(self.k2)
        self.band_inv_k2_c = self.to_band(self.inv_k2_c)
        self.band_weight = self.to_band(self.weight)
        for arr in (*self.ks, *self.dks, self.k2, self.inv_k2, self.mask,
                    self.weight, self.mask_c, *self.ks_c, self.inv_k2_c,
                    *self.band_ik, *self.band_ks_c, self.band_k2,
                    self.band_inv_k2_c, self.band_weight):
            arr.setflags(write=False)

    def to_band(self, a: np.ndarray) -> np.ndarray:
        """The band entries of ``a`` over its trailing grid axes, as a new
        array; an axis of length 1 (a broadcast multiplier) stays."""
        shape = tuple(1 if m == 1 else b
                      for m, b in zip(a.shape[-self.dim:], self.band_shape))
        out = np.empty(a.shape[:-self.dim] + shape, dtype=a.dtype)
        for full, part in self._blocks:
            out[part] = a[full]
        return out

    def from_band(self, band: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Coefficients on the ``spectral_shape`` layout that hold ``band``
        on the band and +0.0 everywhere else, in a new array or in ``out``."""
        if out is None:
            out = np.zeros(band.shape[:-self.dim] + self.spectral_shape, dtype=band.dtype)
        else:
            out.fill(0)
        for full, part in self._blocks:
            out[full] = band[part]
        return out

    def _pass_blocks(self, band_axes) -> list:
        """Indexes of the blocks of a half spectrum that hold its band
        columns and the low or the high band rows of ``band_axes``."""
        rows = (slice(self.cut + 1), slice(self.n - self.cut, self.n))
        out = []
        for pick in itertools.product(rows, repeat=len(band_axes)):
            index = [slice(None)] * (self.dim - 1) + [slice(self.cut + 1)]
            for axis, row in zip(band_axes, pick):
                index[axis] = row
            out.append((Ellipsis, *index))
        return out

    def support(self, rows: np.ndarray) -> "BandSupport":
        """The ``BandSupport`` of the band arrays ``rows`` (a leading axis of fields)."""
        weight = np.broadcast_to(self.band_weight, rows.shape[1:])
        flat = rows.reshape(len(rows), weight.size)
        index = np.flatnonzero((flat != 0).any(axis=0))
        values = flat[:, index]
        return BandSupport(index, values, np.conj(values) * weight.take(index), self.scale)


@dataclass(frozen=True)
class BandSupport:
    """Band-limited fields f_k where some f_k is nonzero: flat positions
    ``index`` in a ``(dim,) + band_shape`` array, the coefficients ``values[k]``
    of f_k there and their conjugates times the Parseval weight, ``dual[k]``."""

    index: np.ndarray
    values: np.ndarray
    dual: np.ndarray
    scale: float

    def pair(self, band: np.ndarray) -> np.ndarray:
        """<u, f_k> for every field, u the field of the band array ``band``."""
        return (self.dual @ band.take(self.index)).real * self.scale


def _rfft(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Half spectrum of real point values over the trailing grid axes."""
    out = np.fft.rfft(values, axis=-1)
    for axis in range(-grid.dim, -1):
        np.fft.fft(out, axis=axis, out=out)
    return out


def half_to_physical(grid: TorusGrid, half: np.ndarray) -> np.ndarray:
    """Real point values from a half spectrum over the trailing grid axes."""
    tmp = np.fft.ifft(half, axis=-grid.dim)
    for axis in range(1 - grid.dim, -1):
        np.fft.ifft(tmp, axis=axis, out=tmp)
    return np.fft.irfft(tmp, n=grid.n, axis=-1)


def _band_rfft(grid: TorusGrid, values: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """The band of ``_rfft(grid, values)``, from pruned complex passes.

    After the full ``rfft`` over the last axis (into ``out`` if given),
    each ``fft`` pass runs in place on the band columns only, and on the
    band rows of the axes passed before it; the band is then gathered.
    """
    half = np.fft.rfft(values, axis=-1, out=out)
    for axis, blocks in grid.ops._forward_passes:
        for index in blocks:
            view = half[index]
            np.fft.fft(view, axis=axis, out=view)
    return grid.ops.to_band(half)


def _band_to_physical(grid: TorusGrid, band: np.ndarray,
                      half: np.ndarray | None = None) -> np.ndarray:
    """``half_to_physical`` of the coefficients ``from_band(band)``, which
    are spread into ``half`` if given.

    Each ``ifft`` pass runs in place on the band columns only, and on the
    band rows of the axes still to pass after it: a pass over zeros would
    give +0.0 there.  The point values are a new array.
    """
    half = grid.ops.from_band(band, half)
    for axis, blocks in grid.ops._inverse_passes:
        for index in blocks:
            view = half[index]
            np.fft.ifft(view, axis=axis, out=view)
    return np.fft.irfft(half, n=grid.n, axis=-1)


class _Scratch:
    """The transform-sized arrays one run's band steps overwrite in turn.

    Reused, they spare each step the page faults of fresh arrays, which at
    128^2 cost about as much as the transforms: the products u_i u_j and
    the half spectrum of the products (whose first dim blocks also serve
    the inverse band transform).
    """

    def __init__(self, grid: TorusGrid):
        pairs = grid.dim * (grid.dim + 1) // 2
        self.prods = np.empty((pairs,) + grid.shape)
        self.half = np.empty((pairs,) + grid.spectral_shape, dtype=np.complex128)


@dataclass(frozen=True)
class SpectralField:
    """Divergence-free-capable vector field as complex Fourier coefficients.

    ``coeffs`` has shape ``(dim,) + grid.spectral_shape``.  Instances are
    immutable; all operations return new fields.
    """

    grid: TorusGrid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        expect = (self.grid.dim,) + self.grid.spectral_shape
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
        return SpectralField(grid, _rfft(grid, values))

    @staticmethod
    def zero(grid: TorusGrid) -> "SpectralField":
        return SpectralField(grid, np.zeros((grid.dim,) + grid.spectral_shape,
                                            dtype=np.complex128))

    @staticmethod
    def from_modes(grid: TorusGrid, modes) -> "SpectralField":
        """Build a real field from ``{wavevector: complex amplitude vector}``.

        Each entry contributes ``a * exp(i k.x) + conj(a) * exp(-i k.x)``
        so the result is real by construction; of the pair, the coefficients
        at a last component >= 0 are stored (both when it is 0).
        """
        c = np.zeros((grid.dim,) + grid.spectral_shape, dtype=np.complex128)
        scale = grid.n ** grid.dim
        for k, amp in modes.items():
            k = tuple(int(x) for x in k)
            amp = np.asarray(amp, dtype=np.complex128)
            if amp.shape != (grid.dim,):
                raise SpectralError("mode amplitude must be a dim-vector")
            if any(abs(x) > grid.n // 2 - 1 for x in k):
                raise SpectralError(f"mode {k} not representable on n={grid.n}")
            idx = (slice(None),) + tuple(x % grid.n for x in k)
            cidx = (slice(None),) + tuple(-x % grid.n for x in k)
            if k[-1] >= 0:
                c[idx] += amp * scale
            if k[-1] <= 0:
                c[cidx] += np.conj(amp) * scale
        return SpectralField(grid, c)

    # -- views ---------------------------------------------------------

    def to_physical(self) -> np.ndarray:
        return half_to_physical(self.grid, self.coeffs)


# -- core operations ----------------------------------------------------


def leray_project(f: SpectralField) -> SpectralField:
    """Remove the gradient part: u_hat -> u_hat - k (k.u_hat) / |k|^2.

    The k = 0 mode (mean flow) passes through unchanged.
    """
    ops = f.grid.ops
    return SpectralField(f.grid, _project(ops.ks_c, ops.inv_k2_c, f.coeffs))


def _project(ks: tuple, inv_k2: np.ndarray, c: np.ndarray) -> np.ndarray:
    """c - k (k.c) / |k|^2 on coefficients, given k and 1/|k|^2 on their
    layout (the full one or the band)."""
    factor = sum(ks[j] * c[j] for j in range(len(ks))) * inv_k2
    out = np.empty_like(c)
    for j in range(len(ks)):
        out[j] = c[j] - ks[j] * factor
    return out


def divergence_defect(f: SpectralField) -> float:
    """Relative size of k.u_hat over nonzero modes (0 when solenoidal)."""
    ops = f.grid.ops
    kdotu = sum(k * c for k, c in zip(ops.ks, f.coeffs))
    norm = float(np.sqrt(np.sum(ops.weight * np.abs(f.coeffs) ** 2)))
    if norm == 0.0:
        return 0.0
    return float(np.sqrt(np.sum(ops.weight * np.abs(kdotu) ** 2))) / norm


def band_gradient(grid: TorusGrid, band: np.ndarray) -> np.ndarray:
    """Point values of d u_i / d x_j, [i, j], shape (dim, dim) + grid.shape,
    of the band array ``band``'s field, from one pruned inverse transform."""
    grad = np.empty((grid.dim,) + band.shape, dtype=np.complex128)
    for j, ik in enumerate(grid.ops.band_ik):
        grad[:, j] = ik * band
    return _band_to_physical(grid, grad)


def band_embed(grid: TorusGrid, band: np.ndarray, fine: TorusGrid) -> np.ndarray:
    """The band array on ``fine``, a refinement of ``grid``, of the field of
    the band array ``band``: its coefficients times (n_fine / n)^dim at the
    same wavevectors, +0.0 elsewhere in the larger band."""
    if fine.dim != grid.dim or fine.n < grid.n:
        raise SpectralError(f"{fine} does not refine {grid}")
    cut, rows = grid.dealias_cutoff(), 2 * fine.dealias_cutoff() + 1
    at = np.r_[0:cut + 1, rows - cut:rows]   # wavenumbers 0..cut, -cut..-1
    out = np.zeros((grid.dim,) + fine.ops.band_shape, dtype=np.complex128)
    out[np.ix_(range(grid.dim), *[at] * (grid.dim - 1), range(cut + 1))] = \
        band * (fine.n / grid.n) ** grid.dim
    return out


def _band_energy_and_grad_norm_sq(grid: TorusGrid, band: np.ndarray,
                                  power: np.ndarray | None = None) -> tuple:
    """(0.5 ||u||^2, ||grad u||^2) of the field ``from_band(band)`` by Parseval,
    to the bits of a full-layout sum: the weighted band power is scattered
    into zeros of the full layout (in ``power`` if given) and summed there."""
    ops = grid.ops
    power = ops.from_band((band.real ** 2 + band.imag ** 2).sum(axis=0) * ops.band_weight, power)
    return (0.5 * float(power.sum()) * ops.scale,
            float(np.sum(ops.k2 * power)) * ops.scale)


def inner_product(f: SpectralField, g: SpectralField) -> float:
    """L^2(T^dim) inner product, Parseval-exact."""
    grid = f.grid
    if g.grid != grid:
        raise SpectralError("fields live on different grids")
    s = float(np.sum((f.coeffs * np.conj(g.coeffs)).real * grid.ops.weight))
    return s * grid.volume / grid.n ** (2 * grid.dim)


def l2_norm_sq(f: SpectralField) -> float:
    return inner_product(f, f)


def convective_term(u: SpectralField) -> SpectralField:
    """Leray-projected, dealiased divergence-form transport -P div(u x u).

    For divergence-free u this equals the projection of -(grad u) u and is
    L^2-orthogonal to u (energy-neutral transport).  The kernel reads the
    point values of u's band part, from one inverse transform.
    """
    ops = u.grid.ops
    band = SpectralField(u.grid, ops.from_band(ops.to_band(u.coeffs * ops.mask_c)))
    return _convective_with_sup(u, band.to_physical())[0]


def _convective_with_sup(u: SpectralField, phys: np.ndarray):
    """``_band_convective`` of u's point values ``phys``, on the full layout.

    u lies in the dealias band, as every state of ``solver.run_path`` does
    (``convective_term`` dealiases any other field first).
    """
    conv, sup = _band_convective(u.grid, phys, _Scratch(u.grid))
    return SpectralField(u.grid, u.grid.ops.from_band(conv)), sup


def _band_convective(grid: TorusGrid, phys: np.ndarray, scratch: _Scratch) -> tuple:
    """(band coefficients of -P div(u x u), max_x |u|) from the point
    values ``phys`` of a field u in the dealias band: the one transport
    kernel of ``convective_term`` and ``solver.run_path``.

    Each product u_i u_j (i <= j) is formed pointwise once into one stack,
    whose squares give |u|^2 (summed in component order, as the sum over
    the components of ``phys ** 2``), and which one band forward transform
    takes to the dealias band (the truncation of the products).  There the
    products are differentiated spectrally, -sum_j i k_j FFT(u_i u_j):
    accumulating the negative from +0.0 keeps the transport term
    sign-exact, signed zeros included, and makes it independent of the
    signs of zero products.
    """
    ops = grid.ops
    pairs = [(i, j) for i in range(grid.dim) for j in range(i, grid.dim)]
    prods = scratch.prods
    for p, (i, j) in enumerate(pairs):
        np.multiply(phys[i], phys[j], out=prods[p])
    squares = [prods[p] for p, (i, j) in enumerate(pairs) if i == j]
    sq = squares[0] + squares[1]
    for square in squares[2:]:
        sq += square
    sup = float(np.sqrt(sq.max()))
    prod_hat = _band_rfft(grid, prods, scratch.half)
    out = np.zeros((grid.dim,) + ops.band_shape, dtype=np.complex128)
    for p, (i, j) in enumerate(pairs):
        out[i] -= ops.band_ik[j] * prod_hat[p]
        if i != j:
            out[j] -= ops.band_ik[i] * prod_hat[p]
    return _project(ops.band_ks_c, ops.band_inv_k2_c, out), sup


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
# Version 2 layout, little endian throughout:
#   magic   6 bytes  b"DEFLD\x00"
#   version u16
#   dim     u8
#   n       u32
#   time    f64
#   data    dim * n^(dim-1) * (n//2 + 1) complex coefficients (the half
#           spectrum, ``grid.spectral_shape`` per component) as (re, im) f64
#           pairs in row-major (C) wavevector order, component-major.


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
        shape = (dim,) + grid.spectral_shape
        count = 2 * int(np.prod(shape))
        data = fh.read(count * 8)
        if len(data) != count * 8:
            raise SpectralError(f"truncated snapshot: expected {count * 8} "
                                f"data bytes, got {len(data)}")
        extra = len(fh.read())
        if extra:
            raise SpectralError(f"{extra} trailing bytes after the {count * 8} "
                                f"data bytes of the snapshot")
        raw = np.frombuffer(data, dtype="<f8", count=count)
        coeffs = raw.astype(np.float64).view(np.complex128).reshape(shape)
        return SpectralField(grid, coeffs), time
