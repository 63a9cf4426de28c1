"""Cell-discretized generalized Young measures.

A measure here is a triplet per space-time cell: an oscillation histogram
over the value ball |xi| <= R, a concentration mass (where |u|^2 escapes
the ball), and a concentration-angle histogram on the unit sphere.  Beyond
plain bin masses each bin stores the within-bin first and second moments of
the samples it received, so pairings against integrands that are
polynomials of degree <= 2 reproduce the underlying sample quadrature
exactly; general integrands are evaluated at bin centroids with an error
bounded by Lip(f) times the bin diameter.

The truncation radius R splits oscillation from concentration: the limit
object has no finite-sample definition, so the estimator applies one rule
to every sample.  A sample with |u| <= R goes to its oscillation bin.  A
sample with |u| > R routes its quadrature-weighted mass |u|^2 to the
concentration part, with the direction u/|u| binned on the sphere, and
keeps its unit share of the oscillation histogram at the origin bin, with
value 0.  Each cell's histogram is normalized by all of its samples, so it
is a probability, and 0.5 <nu, |xi|^2> + 0.5 lambda is the sampled energy
whatever R is.

Storage is sparse: each cell receives about one sample per snapshot, so
almost every (cell, bin) pair stays empty.  Both histograms keep only
their occupied entries (``BinEntries``: sorted flat keys cell * bins + bin
with mass, mean and second moment per entry), and the build, the pairings,
the barycenter and the slab energies run over those entries.  Only the
concentration mass ``lam_mass`` is one dense value per cell.  The dense
(n_cells, bins) bin masses ``nu_mass`` and ``inf_mass`` remain as
read-only views built on first access, for inspection and tests; nothing
in the package reads them.

Every measure comes from one ``YoungAccumulator``: ``add`` bins one
trajectory's snapshots into per-entry moment sums and keeps nothing of the
trajectory, and ``measure`` normalizes the sums once at the end.  The sums
live in one table per time slab, and a snapshot's samples stay
component-major, (dim, npts) as the trajectory stores them, so binning a
snapshot touches only its own slab's entries.
``dirac_embed`` and ``estimate_from_family`` are loops over it, and a
caller that produces trajectories one at a time (the viscosity ladder)
feeds it directly, so no build needs a whole family in memory.

``write_measure`` exports a measure as one binary file: a magic, a
version, the partition and build parameters, then the raw ``lam_mass``
and the key, mass, mean and second-moment arrays of both histograms.
``read_measure`` reads it back bit for bit.  The test dictionary is not
stored; ``quadratic_dictionary(dim)`` rebuilds it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi


class YoungMeasureError(ValueError):
    pass


@dataclass(frozen=True)
class CellPartition:
    """n_t time slabs times n_x^dim space cells over [t0, t1] x T^dim.

    Space cells are blocks of the sampling grid, so grid_n must be a
    multiple of n_x.
    """

    dim: int
    grid_n: int
    n_t: int
    n_x: int
    t0: float
    t1: float

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise YoungMeasureError("dim must be 2 or 3")
        if self.n_t < 1 or self.n_x < 1:
            raise YoungMeasureError("need at least one cell per direction")
        if self.grid_n % self.n_x != 0:
            raise YoungMeasureError(
                f"space cells ({self.n_x}) must divide the grid ({self.grid_n})")
        if not self.t1 > self.t0:
            raise YoungMeasureError("empty time interval")

    @property
    def n_space(self) -> int:
        return self.n_x ** self.dim

    @property
    def n_cells(self) -> int:
        return self.n_t * self.n_space

    @property
    def slab_duration(self) -> float:
        return (self.t1 - self.t0) / self.n_t

    @property
    def space_volume(self) -> float:
        return (TWO_PI / self.n_x) ** self.dim

    @property
    def cell_volume(self) -> float:
        """Space-time volume of one cell."""
        return self.space_volume * self.slab_duration

    @property
    def total_volume(self) -> float:
        return TWO_PI ** self.dim * (self.t1 - self.t0)

    def sample_times(self, dt: float, per_slab: int) -> list:
        """per_slab evenly spaced mid-interval times per slab, on the step grid."""
        dur = self.slab_duration
        return sorted({round((self.t0 + s * dur + (j + 0.5) / per_slab * dur) / dt) * dt
                       for s in range(self.n_t) for j in range(per_slab)})

    def slab_of(self, t: float) -> int:
        s = int((t - self.t0) / self.slab_duration)
        return min(max(s, 0), self.n_t - 1)

    def check_slabs(self, times, error=YoungMeasureError) -> None:
        """Every time is finite and every time slab holds one of ``times``
        by ``slab_of``, or ``error``."""
        times = [float(t) for t in times]
        for t in times:
            if not math.isfinite(t):
                raise error(f"snapshot time {t!r} is not finite")
        empty = sorted(set(range(self.n_t)) - {self.slab_of(t) for t in times})
        if empty:
            raise error(f"time slabs {empty} hold no snapshot ({len(empty)} of "
                        f"{self.n_t} time cells)")

    def space_cell_index(self) -> np.ndarray:
        """Flattened space-cell index for every grid point, shape (grid_n^dim,)."""
        idx1 = np.arange(self.grid_n) // (self.grid_n // self.n_x)
        coords = np.meshgrid(*[idx1] * self.dim, indexing="ij")
        return np.ravel_multi_index(coords, (self.n_x,) * self.dim).ravel()

    def block_mean(self, values: np.ndarray) -> np.ndarray:
        """Average the trailing ``dim`` axes over the n_x^dim space cells.

        ``values`` has shape lead + (m,)*dim for any m divisible by n_x (the
        sampling grid or a refinement of it); returns lead + (n_space,) in
        the cell order of ``space_cell_index``.
        """
        m = values.shape[-1]
        block = m // self.n_x
        if block * self.n_x != m:
            raise YoungMeasureError(
                f"space cells ({self.n_x}) must divide the grid ({m})")
        lead = values.shape[:-self.dim]
        blocks = values.reshape(lead + (self.n_x, block) * self.dim)
        axes = tuple(range(len(lead) + 1, len(lead) + 2 * self.dim, 2))
        return blocks.mean(axis=axes).reshape(lead + (self.n_space,))

    def cell_centers(self):
        """(times, positions) of cell centers: (n_cells,), (n_cells, dim)."""
        ts = self.t0 + (np.arange(self.n_t) + 0.5) * self.slab_duration
        side = np.arange(self.n_x) + 0.5
        coords = np.meshgrid(*[side] * self.dim, indexing="ij")
        xs = np.stack([c.ravel() for c in coords], axis=1) * (TWO_PI / self.n_x)
        times = np.repeat(ts, self.n_space)
        pos = np.tile(xs, (self.n_t, 1))
        return times, pos


@dataclass(frozen=True)
class TestIntegrand:
    """Integrand with quadratic growth plus its recession function.

    Quadratic integrands are declared by (A, b, c) meaning
    f(xi) = xi.A.xi + b.xi + c with recession xi.A.xi on the sphere; they
    pair exactly against the stored bin moments.  General integrands supply
    vectorized callables f and f_inf and pair through bin centroids.
    """

    __test__ = False  # not a pytest class

    name: str
    quad: tuple | None = None
    f: object = None
    f_inf: object = None

    def __post_init__(self):
        if self.quad is None and (self.f is None or self.f_inf is None):
            raise YoungMeasureError(
                f"integrand {self.name!r}: need quad coefficients or (f, f_inf)")
        if self.quad is not None:
            a, b, c = self.quad
            object.__setattr__(self, "quad",
                               (np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                                float(c)))

    def eval(self, xi: np.ndarray) -> np.ndarray:
        if self.quad is not None:
            a, b, c = self.quad
            return np.einsum("...i,ij,...j->...", xi, a, xi) + xi @ b + c
        return self.f(xi)

    def eval_recession(self, unit: np.ndarray) -> np.ndarray:
        if self.quad is not None:
            a, _, _ = self.quad
            return np.einsum("...i,ij,...j->...", unit, a, unit)
        return self.f_inf(unit)


@dataclass(frozen=True)
class BinEntries:
    """The occupied (cell, bin) entries of a per-cell histogram.

    ``key`` is cell * n_bins + bin, strictly increasing; each entry carries
    its mass and the mean (E, dim) and second moment (E, dim, dim) of the
    samples it received.
    """

    n_bins: int
    key: np.ndarray
    mass: np.ndarray
    mean: np.ndarray
    sec: np.ndarray

    def __post_init__(self):
        for name in ("key", "mass", "mean", "sec"):
            getattr(self, name).setflags(write=False)

    @cached_property
    def cell(self) -> np.ndarray:
        return self.key // self.n_bins

    def cells(self, lo: int, hi: int) -> "BinEntries":
        """The entries of cells lo..hi-1, with cells renumbered from 0."""
        a, b = np.searchsorted(self.key, [lo * self.n_bins, hi * self.n_bins])
        return BinEntries(self.n_bins, self.key[a:b] - lo * self.n_bins,
                          self.mass[a:b], self.mean[a:b], self.sec[a:b])

    def per_cell(self, n_cells: int, values=None) -> np.ndarray:
        """Sum of mass * values over each cell's entries.

        ``values`` has shape (E,) + q (default: ones); returns (n_cells,) + q,
        zero for a cell without entries.
        """
        if values is None:
            values = np.ones(len(self.key))
        q = values.shape[1:]
        weighted = self.mass.reshape((-1,) + (1,) * len(q)) * values
        flat = weighted.reshape(len(self.key), int(np.prod(q, dtype=int)))
        out = np.empty((n_cells, flat.shape[1]))
        for j in range(flat.shape[1]):
            out[:, j] = np.bincount(self.cell, weights=flat[:, j],
                                    minlength=n_cells)
        return out.reshape((n_cells,) + q)

    def dense(self, n_cells: int) -> np.ndarray:
        """The masses as a read-only (n_cells, n_bins) array."""
        out = np.zeros(n_cells * self.n_bins)
        out[self.key] = self.mass
        out = out.reshape(n_cells, self.n_bins)
        out.setflags(write=False)
        return out


def _dense_mass(part: str):
    return cached_property(lambda V: getattr(V, part).dense(V.partition.n_cells))


@dataclass(frozen=True)
class GeneralizedYoungMeasure:
    partition: CellPartition
    radius: float
    bins_per_axis: int
    sphere_bins: int
    nu: BinEntries           # oscillation histogram, bins_per_axis^dim bins
    lam_mass: np.ndarray     # (n_cells,)
    nu_inf: BinEntries       # concentration-angle histogram, sphere_bins bins

    def __post_init__(self):
        self.lam_mass.setflags(write=False)

    # dense (n_cells, bins) bin masses, built on first access
    nu_mass = _dense_mass("nu")
    inf_mass = _dense_mass("nu_inf")

    @property
    def dim(self) -> int:
        return self.partition.dim

    def lam_total(self) -> float:
        return float(self.lam_mass.sum())

    def lam_t(self, slab: int) -> float:
        """Concentration mass of one slab normalized by its duration."""
        lo = slab * self.partition.n_space
        hi = lo + self.partition.n_space
        return float(self.lam_mass[lo:hi].sum()) / self.partition.slab_duration

    def slab(self, slab: int) -> BinEntries:
        """Oscillation entries of one time slab, space cells numbered from 0."""
        lo = slab * self.partition.n_space
        return self.nu.cells(lo, lo + self.partition.n_space)


# -- construction ----------------------------------------------------------


def _bin_of_values(values: np.ndarray, radius: float, bins: int) -> np.ndarray:
    """Flat histogram bin per row of values, shape (npts,)."""
    w = 2.0 * radius / bins
    idx = np.floor((values + radius) / w).astype(np.int64)
    np.clip(idx, 0, bins - 1, out=idx)
    flat = idx[:, 0]
    for axis in range(1, values.shape[1]):
        flat = flat * bins + idx[:, axis]
    return flat


def _sphere_bin(units: np.ndarray, sphere_bins: int, dim: int) -> np.ndarray:
    if dim == 2:
        theta = np.arctan2(units[:, 1], units[:, 0])
        idx = np.floor((theta + np.pi) / (TWO_PI / sphere_bins)).astype(np.int64)
        return np.clip(idx, 0, sphere_bins - 1)
    # 3D: equal-area latitude bands (uniform in cos theta) split in longitude
    n_lat = 4
    while sphere_bins % n_lat != 0:
        n_lat -= 1
    n_lon = sphere_bins // n_lat
    band = np.floor((units[:, 2] + 1.0) / 2.0 * n_lat).astype(np.int64)
    np.clip(band, 0, n_lat - 1, out=band)
    phi = np.arctan2(units[:, 1], units[:, 0])
    lon = np.floor((phi + np.pi) / (TWO_PI / n_lon)).astype(np.int64)
    np.clip(lon, 0, n_lon - 1, out=lon)
    return band * n_lon + lon


class _MomentSums:
    """Weight, first- and second-moment sums per occupied key of one slab.

    Keys get a slot when they first occur.  ``add`` sums one snapshot of
    component-major (dim, npts) samples with one bincount per moment and
    adds it to the running totals, so every total associates as a dense
    accumulation over all keys would.  Totals start at +0.0 and a bincount
    never returns -0.0, so a total never becomes -0.0 and the += 0.0 a
    table skips for the snapshots of other slabs would change no bit.
    """

    def __init__(self, size: int, dim: int):
        self.slot = np.full(size, -1, dtype=np.int32)
        self.keys = np.zeros(0, dtype=np.intp)
        self.w = np.zeros(0)
        self.v = np.zeros((0, dim))
        self.vv = np.zeros((0, dim, dim))

    def add(self, keys: np.ndarray, values: np.ndarray, weights=None) -> None:
        new = np.unique(keys[self.slot[keys] < 0])
        if len(new):
            self.slot[new] = np.arange(len(self.keys), len(self.keys) + len(new))
            self.keys = np.concatenate([self.keys, new])
            self.w, self.v, self.vv = (
                np.concatenate([a, np.zeros((len(new),) + a.shape[1:])])
                for a in (self.w, self.v, self.vv))
        s = self.slot[keys]
        n = len(self.keys)
        # unit weights leave each weighted value bit-identical to the value
        weighted = values if weights is None else weights * values
        self.w += np.bincount(s, weights=weights, minlength=n)
        for i in range(len(values)):
            self.v[:, i] += np.bincount(s, weights=weighted[i], minlength=n)
            for j in range(i, len(values)):
                contrib = np.bincount(s, weights=weighted[i] * values[j],
                                      minlength=n)
                self.vv[:, i, j] += contrib
                if i != j:
                    self.vv[:, j, i] += contrib

    def by_key(self, offset: int):
        """Sorted keys plus ``offset`` with their sums (E,), (E, dim), (E, dim, dim)."""
        order = np.argsort(self.keys)
        return self.keys[order] + offset, self.w[order], self.v[order], self.vv[order]


def _by_key(tables: list, span: int):
    """The per-slab tables' sorted entries as one table over global keys.

    Slab s holds the keys s * span ... (s + 1) * span - 1, so concatenating
    in slab order keeps the keys sorted.
    """
    parts = [t.by_key(s * span) for s, t in enumerate(tables)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


class YoungAccumulator:
    """The one measure build: ``add`` trajectories, then ``measure`` once.

    ``add`` bins every snapshot of a trajectory that falls inside the
    partition window into running moment sums and keeps nothing of the
    trajectory itself; ``measure`` normalizes the sums into a
    ``GeneralizedYoungMeasure`` once, after the last ``add``.  Samples
    beyond the truncation radius feed the concentration part and count at
    the origin of the oscillation histogram.  The sums depend only on the
    order of the added trajectories, so a caller that streams them gets the
    bits of one call over the whole family.  Each time slab has its own
    moment tables, keyed by space cell and bin within the slab.
    """

    def __init__(self, partition: CellPartition, radius: float,
                 bins_per_axis: int = 16, sphere_bins: int = 32):
        if not radius > 0:
            raise YoungMeasureError(f"truncation radius must be positive, got {radius}")
        self.partition = partition
        self.radius = radius
        self.bins_per_axis = bins_per_axis
        self.sphere_bins = sphere_bins
        dim, n_space = partition.dim, partition.n_space
        self._n_bins = bins_per_axis ** dim
        self._osc = [_MomentSums(n_space * self._n_bins, dim)
                     for _ in range(partition.n_t)]
        self._conc = [_MomentSums(n_space * sphere_bins, dim)
                      for _ in range(partition.n_t)]
        self._samples_per_cell = np.zeros(partition.n_cells)
        self._space_idx = partition.space_cell_index()
        self._space_count = np.bincount(self._space_idx, minlength=n_space)

    def add(self, traj) -> None:
        """Bin the snapshots of one ``solver.Trajectory``."""
        part = self.partition
        dim, n_space, n_bins = part.dim, part.n_space, self._n_bins
        radius, bins_per_axis = self.radius, self.bins_per_axis
        if traj.grid.n != part.grid_n or traj.grid.dim != dim:
            raise YoungMeasureError("trajectory grid does not match partition")
        cell = self._space_idx   # space cell of every sample, within its slab
        for m in range(traj.n_snapshots):
            t = float(traj.times[m])
            if t < part.t0 - 1e-12 or t > part.t1 + 1e-12:
                continue
            slab = part.slab_of(t)
            in_slab = slice(slab * n_space, (slab + 1) * n_space)
            vals = traj.values[m].reshape(dim, -1)  # (dim, npts)
            self._samples_per_cell[in_slab] += self._space_count

            speed = np.sqrt((vals ** 2).sum(axis=0))
            below = speed <= radius
            vb = vals
            if not below.all():
                above = ~below
                sa = np.compress(above, speed)
                units = np.compress(above, vals, axis=1) / sa
                self._conc[slab].add(
                    np.compress(above, cell) * self.sphere_bins
                    + _sphere_bin(units.T, self.sphere_bins, dim),
                    units, sa ** 2)
                vb = np.where(below, vals, 0.0)
            self._osc[slab].add(
                cell * n_bins + _bin_of_values(vb.T, radius, bins_per_axis), vb)

    def measure(self) -> GeneralizedYoungMeasure:
        """The measure of every sample added; call it once, after the last add."""
        part = self.partition
        n_cells, n_space, n_bins = part.n_cells, part.n_space, self._n_bins
        sphere_bins = self.sphere_bins
        if not self._samples_per_cell.any():
            raise YoungMeasureError("no samples fall inside the partition window")
        if np.any(self._samples_per_cell == 0):
            raise YoungMeasureError(
                "partition has cells without samples; refine snapshots or coarsen")

        # oscillation part: per-cell probability with bin moments; every
        # entry holds at least one sample
        keys, w, v, vv = _by_key(self._osc, n_space * n_bins)
        nu = BinEntries(n_bins, keys, w / self._samples_per_cell[keys // n_bins],
                        v / w[:, None], vv / w[:, None, None])

        # concentration part: quadrature weight per sample is cellvol / samples
        keys, w, v, vv = _by_key(self._conc, n_space * sphere_bins)
        cell = keys // sphere_bins
        cell_weight = (part.cell_volume / self._samples_per_cell)[cell]
        w = w * cell_weight
        v = v * cell_weight[:, None]
        vv = vv * cell_weight[:, None, None]
        # (a bincount of no entries is an integer array)
        lam_mass = np.bincount(cell, weights=w, minlength=n_cells).astype(float)
        nu_inf = BinEntries(sphere_bins, keys, w / lam_mass[cell], v / w[:, None],
                            vv / w[:, None, None])

        return GeneralizedYoungMeasure(
            partition=part, radius=self.radius, bins_per_axis=self.bins_per_axis,
            sphere_bins=sphere_bins, nu=nu, lam_mass=lam_mass, nu_inf=nu_inf)


def dirac_embed(traj, partition: CellPartition, radius: float,
                bins_per_axis: int = 16, sphere_bins: int = 32) -> GeneralizedYoungMeasure:
    """Embed one trajectory (a ``solver.Trajectory``) as (delta_u, 0, 0).

    The measure is (delta_u, 0, 0) while |u| <= R; samples beyond the
    truncation radius feed the concentration part as in any family.
    """
    acc = YoungAccumulator(partition, radius, bins_per_axis, sphere_bins)
    acc.add(traj)
    return acc.measure()


def estimate_from_family(family, partition: CellPartition, radius: float,
                         bins_per_axis: int = 16,
                         sphere_bins: int = 32) -> GeneralizedYoungMeasure:
    """Pooled oscillation/concentration estimator over a family of runs.

    Samples with |u| <= R populate the oscillation histograms; the rest
    contribute quadrature-weighted |u|^2 mass to the concentration measure
    and their directions to the sphere histogram.  ``family`` is iterated
    once, so a generator streams its trajectories one at a time; an empty
    family has no samples and is rejected.
    """
    acc = YoungAccumulator(partition, radius, bins_per_axis, sphere_bins)
    for traj in family:
        acc.add(traj)
    return acc.measure()


# -- pairings and reductions ----------------------------------------------


def pairing(V: GeneralizedYoungMeasure, f: TestIntegrand, phi=None) -> float:
    """Integral of phi(t,x) [<nu, f> dx dt + <nu_inf, f_inf> dlambda].

    phi is evaluated at cell centers (continuous weights only); quadratic
    integrands use the stored bin moments and are exact with respect to the
    underlying samples.
    """
    return _weighted_pairing(V, f, _cell_weights(V.partition, phi))


def _cell_weights(part: CellPartition, phi, centers=None) -> np.ndarray:
    """phi at the cell centers (ones for phi None), shape (n_cells,)."""
    if phi is None:
        return np.ones(part.n_cells)
    tc, xc = part.cell_centers() if centers is None else centers
    return np.asarray(phi(tc, xc), dtype=float)


def _weighted_pairing(V: GeneralizedYoungMeasure, f: TestIntegrand,
                      weights: np.ndarray) -> float:
    part = V.partition
    nu, inf = V.nu, V.nu_inf
    if f.quad is not None:
        a, b, c = f.quad
        per_entry = np.einsum("eij,ij->e", nu.sec, a) + nu.mean @ b + c
        per_entry_inf = np.einsum("eij,ij->e", inf.sec, a)
    else:
        per_entry = f.eval(nu.mean)
        per_entry_inf = f.eval_recession(inf.mean)

    osc_cell = nu.per_cell(part.n_cells, per_entry) * part.cell_volume
    conc_cell = inf.per_cell(part.n_cells, per_entry_inf) * V.lam_mass
    return float(weights @ (osc_cell + conc_cell))


def barycenter(V: GeneralizedYoungMeasure) -> np.ndarray:
    """Per-cell first moment of the oscillation part, shape (n_cells, dim)."""
    return V.nu.per_cell(V.partition.n_cells, V.nu.mean)


def energy_of(V: GeneralizedYoungMeasure, slab: int) -> float:
    """Slab kinetic energy 0.5 int <nu, |xi|^2> dx + 0.5 lambda_t(T^dim)."""
    part = V.partition
    if not 0 <= slab < part.n_t:
        raise YoungMeasureError(f"slab {slab} out of range")
    nu = V.slab(slab)
    tr = np.trace(nu.sec, axis1=1, axis2=2)
    osc = (nu.mass * tr).sum() * part.space_volume
    return 0.5 * float(osc) + 0.5 * V.lam_t(slab)


def slab_energies(V: GeneralizedYoungMeasure) -> np.ndarray:
    return np.array([energy_of(V, s) for s in range(V.partition.n_t)])


def quadratic_dictionary(dim: int):
    """Separating family: polynomials of degree <= 2 times trig weights.

    Returns a list of (TestIntegrand, phi, label); phi may be None for the
    constant weight.  At least 20 entries for every dim.
    """
    integrands = [TestIntegrand("one", quad=(np.zeros((dim, dim)), np.zeros(dim), 1.0))]
    for i in range(dim):
        b = np.zeros(dim)
        b[i] = 1.0
        integrands.append(TestIntegrand(f"xi{i}", quad=(np.zeros((dim, dim)), b, 0.0)))
    for i in range(dim):
        for j in range(i, dim):
            a = np.zeros((dim, dim))
            a[i, j] += 0.5
            a[j, i] += 0.5
            integrands.append(TestIntegrand(f"xi{i}xi{j}", quad=(a, np.zeros(dim), 0.0)))
    integrands.append(TestIntegrand("speed2", quad=(np.eye(dim), np.zeros(dim), 0.0)))

    weights = [(None, "1")]
    for axis in range(dim):
        weights.append((_trig_weight(axis, np.cos), f"cos_x{axis}"))
        weights.append((_trig_weight(axis, np.sin), f"sin_x{axis}"))

    out = []
    for f in integrands:
        for phi, wname in weights:
            out.append((f, phi, f"{f.name}*{wname}"))
    return out


def _trig_weight(axis: int, fn):
    def phi(t, x):
        return fn(x[:, axis])
    return phi


def weakstar_distance(V1: GeneralizedYoungMeasure, V2: GeneralizedYoungMeasure,
                      dictionary=None) -> float:
    """Max pairing discrepancy over a fixed separating dictionary."""
    if V1.partition != V2.partition:
        raise YoungMeasureError("measures live on different partitions")
    if dictionary is None:
        dictionary = quadratic_dictionary(V1.dim)
    centers = V1.partition.cell_centers()
    worst = 0.0
    for f, phi, _ in dictionary:
        weights = _cell_weights(V1.partition, phi, centers)
        worst = max(worst, abs(_weighted_pairing(V1, f, weights)
                               - _weighted_pairing(V2, f, weights)))
    return worst


# -- export ----------------------------------------------------------------


_MEASURE_MAGIC = b"DEYMS\x00"
_MEASURE_VERSION = 2
# version, dim, grid_n, n_t, n_x, t0, t1, radius, bins_per_axis,
# sphere_bins, nu entries, nu_inf entries
_MEASURE_HEADER = struct.Struct("<HBIIIdddIIQQ")


def write_measure(path, V: GeneralizedYoungMeasure) -> None:
    """Write V as a measure file: header, then the raw entry arrays."""
    part = V.partition
    with open(path, "wb") as fh:
        fh.write(_MEASURE_MAGIC)
        fh.write(_MEASURE_HEADER.pack(
            _MEASURE_VERSION, part.dim, part.grid_n, part.n_t, part.n_x, part.t0, part.t1,
            V.radius, V.bins_per_axis, V.sphere_bins, len(V.nu.key),
            len(V.nu_inf.key)))
        fh.write(V.lam_mass.astype("<f8", copy=False).tobytes())
        for entries in (V.nu, V.nu_inf):
            fh.write(entries.key.astype("<i8", copy=False).tobytes())
            for a in (entries.mass, entries.mean, entries.sec):
                fh.write(a.astype("<f8", copy=False).tobytes())


def read_measure(path) -> GeneralizedYoungMeasure:
    """Read a measure written by ``write_measure``, bit for bit."""
    with open(path, "rb") as fh:
        magic = fh.read(6)
        if magic != _MEASURE_MAGIC:
            raise YoungMeasureError(f"not a measure file: bad magic {magic!r}")
        header = fh.read(_MEASURE_HEADER.size)
        version = int.from_bytes(header[:2], "little")
        if len(header) >= 2 and version != _MEASURE_VERSION:
            raise YoungMeasureError(f"unsupported measure version {version}")
        if len(header) != _MEASURE_HEADER.size:
            raise YoungMeasureError(
                f"truncated measure: expected a {_MEASURE_HEADER.size}-byte "
                f"header, got {len(header)} bytes")
        data = fh.read()
    (_, dim, grid_n, n_t, n_x, t0, t1, radius, bins_per_axis, sphere_bins,
     n_nu, n_inf) = _MEASURE_HEADER.unpack(header)
    part = CellPartition(dim, grid_n, n_t, n_x, t0, t1)
    per_entry = 2 + dim + dim * dim   # key, mass, mean, sec
    want = 8 * (part.n_cells + (n_nu + n_inf) * per_entry)
    if len(data) < want:
        raise YoungMeasureError(f"truncated measure: expected {want} data "
                                f"bytes, got {len(data)}")
    if len(data) > want:
        raise YoungMeasureError(f"{len(data) - want} trailing bytes after the "
                                f"{want} data bytes of the measure")

    offset = 0

    def take(dtype, shape):
        nonlocal offset
        n = int(np.prod(shape, dtype=int))
        a = np.frombuffer(data, dtype="<" + dtype, count=n, offset=offset)
        offset += 8 * n
        return a.astype(dtype, copy=False).reshape(shape)

    def entries(n_bins, n):
        return BinEntries(n_bins, take("i8", (n,)), take("f8", (n,)),
                          take("f8", (n, dim)), take("f8", (n, dim, dim)))

    lam_mass = take("f8", (part.n_cells,))
    nu = entries(bins_per_axis ** dim, n_nu)
    nu_inf = entries(sphere_bins, n_inf)
    return GeneralizedYoungMeasure(
        partition=part, radius=radius, bins_per_axis=bins_per_axis,
        sphere_bins=sphere_bins, nu=nu, lam_mass=lam_mass, nu_inf=nu_inf)
