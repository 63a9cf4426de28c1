"""Cell-discretized generalized Young measures.

A measure here is a triplet per space-time cell: an oscillation
distribution nu over the value ball |xi| <= R, a concentration mass lambda
(where |u|^2 escapes the ball), and a concentration-angle distribution
nu_inf on the unit sphere.

The truncation radius R splits oscillation from concentration: the limit
object has no finite-sample definition, so the estimator applies one rule
to every sample.  A sample with |u| <= R belongs to nu.  A sample with
|u| > R routes its quadrature-weighted mass |u|^2 to the concentration
part, with its direction u/|u| in nu_inf, and keeps its unit share of nu
at the origin, with value 0.  Each cell's nu is normalized by all of its
samples, so it is a probability, and 0.5 <nu, |xi|^2> + 0.5 lambda is the
sampled energy whatever R is.

The solution reads its measure only through quadratic quantities: the
energy and the nonlinear term <nu, xi (x) xi> + lambda <nu_inf, theta (x)
theta>.  So a measure stores, per cell and exactly as the sample
quadrature gives them, three dense moment arrays:

* ``nu_first``, <nu, xi>, shape (n_cells, dim);
* ``nu_second``, <nu, xi (x) xi>, shape (n_cells, dim, dim);
* ``lam_second``, lambda <nu_inf, theta (x) theta>: the sum of u (x) u
  over the cell's escaped samples times cell_volume / samples, so its
  trace is the cell's ``lam_mass``.

Every pairing (against a quadratic ``TestIntegrand``), the weak*
distance, the barycenter ``nu_first`` and the slab energies read these
arrays and the dense ``lam_mass``.  The two histograms keep their bin
masses only, sparse as ``BinEntries`` (sorted flat keys cell * bins + bin,
a mass each: a cell receives about one sample per snapshot, so almost
every (cell, bin) pair stays empty), read to normalize nu and by the dense
(n_cells, bins) views ``nu_mass`` and ``inf_mass``, built on first access
for inspection and tests.

Every per-cell sum reads point values in the one cell layout of
``CellPartition.blocks`` (column c holds space cell c's samples in grid
order) and adds each column from +0.0 row by row, as a bincount over the
samples would; ``block_mean`` averages in that order too.  A measure is
built in two steps by one ``Binning`` (the partition, R and the bin counts
of both histograms), which it carries.  A ``YoungBinner`` bins a run's
snapshots into a ``RunBins``: per snapshot, its per-cell moment sums and
concentration entries, and per time slab, its integer bin counts; it keeps
nothing of the states.  A ``YoungAccumulator`` applies binned runs, in run
order, to running sums, and ``measure`` normalizes them once at the end.
Both histograms sum into dense tables of one row per time slab, keyed by
space cell and bin within the slab (int64 counts for nu, float64 weights
for nu_inf), whose nonzero entries become the measure's sorted keys.  A
run binned in one process applies, bit for bit, in another.
``dirac_embed`` builds the measure of one binned run,
``estimate_from_family`` that of a family, and the viscosity ladder
applies each binned run to its rung and to the family, so no build holds a
trajectory or a whole family.

``write_measure`` exports a measure as one binary file (version 3): a
magic, a version, the ``Binning``, then the raw ``lam_mass``,
``nu_first``, ``nu_second`` and ``lam_second``, then the keys and masses
of ``nu`` and of ``nu_inf``.  ``read_measure`` reads it back bit for bit.
The test dictionary is not stored; ``quadratic_dictionary(dim)`` rebuilds
it.
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
        check_count(self.n_t, "time_cells")
        check_count(self.n_x, "space_cells")
        check_space_cells(self.n_x, self.grid_n)
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

    def sample_times(self, dt: float, per_slab: int) -> list:
        """per_slab evenly spaced mid-interval times per slab, on the step grid."""
        dur = self.slab_duration
        return sorted({round((self.t0 + s * dur + (j + 0.5) / per_slab * dur) / dt) * dt
                       for s in range(self.n_t) for j in range(per_slab)})

    def slab_of(self, t: float) -> int:
        s = int((t - self.t0) / self.slab_duration)
        return min(max(s, 0), self.n_t - 1)

    def slab_cells(self, slab: int) -> slice:
        """The cells of one time slab, in the cell order of the measure."""
        return slice(slab * self.n_space, (slab + 1) * self.n_space)

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

    def blocks(self, values: np.ndarray) -> np.ndarray:
        """Point values lead + (m,)*dim, for any m divisible by n_x (the
        sampling grid or a refinement of it), in cell layout: lead +
        (samples per cell, n_space), whose column c holds space cell c's
        samples in grid order.  The one map from grid points to cells."""
        dim, m = self.dim, values.shape[-1]
        check_space_cells(self.n_x, m)
        side, k = m // self.n_x, values.ndim - dim
        grid = values.reshape(values.shape[:k] + (self.n_x, side) * dim)
        order = (*range(k), *range(k + 1, k + 2 * dim, 2), *range(k, k + 2 * dim, 2))
        return grid.transpose(order).reshape(values.shape[:k] + (side ** dim, self.n_space))

    def block_mean(self, values: np.ndarray) -> np.ndarray:
        """Average point values, lead + (m,)*dim as for ``blocks``, over each
        space cell, shape lead + (n_space,).  Each cell adds its samples in
        the order a measure build adds them."""
        blocks = self.blocks(values)
        return _cell_sums(blocks) / blocks.shape[-2]

    def cell_centers(self):
        """(times, positions) of cell centers: (n_cells,), (n_cells, dim)."""
        ts = self.t0 + (np.arange(self.n_t) + 0.5) * self.slab_duration
        side = np.arange(self.n_x) + 0.5
        coords = np.meshgrid(*[side] * self.dim, indexing="ij")
        xs = np.stack([c.ravel() for c in coords], axis=1) * (TWO_PI / self.n_x)
        times = np.repeat(ts, self.n_space)
        pos = np.tile(xs, (self.n_t, 1))
        return times, pos


def check_radius(radius, error=YoungMeasureError) -> None:
    """A truncation radius is positive and finite (an infinite one makes
    every bin infinitely wide), or ``error``; NaN fails."""
    if not 0 < radius < math.inf:
        raise error(f"truncation radius must be positive and finite, got {radius}")


def check_count(count, name: str, error=YoungMeasureError) -> None:
    """A count of cells (time or space) or of bins (per axis or on the
    sphere) ``name`` is >= 1, or ``error``; NaN fails."""
    if not count >= 1:
        raise error(f"{name} must be >= 1, got {count}")


def check_space_cells(n_x, grid_n, error=YoungMeasureError) -> None:
    """Space cells are blocks of the grid: ``n_x`` divides ``grid_n``, or ``error``."""
    if not grid_n % n_x == 0:
        raise error(f"space cells ({n_x}) must divide the grid n={grid_n}")


@dataclass(frozen=True)
class Binning:
    """How a measure build bins its samples: the cell ``partition``, the
    truncation ``radius`` R, and the oscillation bins per axis of the ball
    and the concentration bins of the sphere."""

    partition: CellPartition
    radius: float
    bins_per_axis: int
    sphere_bins: int

    def __post_init__(self):
        check_radius(self.radius)
        check_count(self.bins_per_axis, "bins_per_axis")
        check_count(self.sphere_bins, "sphere_bins")

    def value_bin(self, values: np.ndarray) -> np.ndarray:
        """Flat oscillation bin per row of values (npts, dim), shape (npts,).

        Every row lies in the ball of radius R, so (v + R) / w > -1 for each
        component: truncation toward zero is the floor clipped at 0, and only
        the top edge needs a clip.
        """
        bins = self.bins_per_axis
        w = 2.0 * self.radius / bins
        idx = ((values + self.radius) / w).astype(np.int64)
        np.minimum(idx, bins - 1, out=idx)
        flat = idx[:, 0]
        for axis in range(1, values.shape[1]):
            flat = flat * bins + idx[:, axis]
        return flat

    def direction_bin(self, units: np.ndarray) -> np.ndarray:
        """Concentration bin per unit row of units (npts, dim), shape (npts,):
        in 2D equal angles; in 3D equal-area latitude bands (uniform in cos
        theta) split in longitude."""
        sphere_bins = self.sphere_bins
        if self.partition.dim == 2:
            theta = np.arctan2(units[:, 1], units[:, 0])
            idx = np.floor((theta + np.pi) / (TWO_PI / sphere_bins)).astype(np.int64)
            return np.clip(idx, 0, sphere_bins - 1)
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


@dataclass(frozen=True)
class TestIntegrand:
    """The quadratic integrand f(xi) = xi.A.xi + b.xi + c, given as (A, b, c).

    Its recession function on the unit sphere is theta.A.theta, so it pairs
    exactly against a measure's moment arrays.
    """

    __test__ = False  # not a pytest class

    name: str
    quad: tuple

    def __post_init__(self):
        a, b, c = self.quad
        object.__setattr__(self, "quad", (np.asarray(a, dtype=float),
                                          np.asarray(b, dtype=float), float(c)))


@dataclass(frozen=True)
class BinEntries:
    """The occupied (cell, bin) entries of a per-cell histogram.

    ``key`` is cell * n_bins + bin, strictly increasing, and ``mass`` the
    mass of each entry.
    """

    n_bins: int
    key: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        self.key.setflags(write=False)
        self.mass.setflags(write=False)

    @cached_property
    def cell(self) -> np.ndarray:
        return self.key // self.n_bins

    def per_cell(self, n_cells: int) -> np.ndarray:
        """The total mass of each cell, shape (n_cells,)."""
        return np.bincount(self.cell, weights=self.mass, minlength=n_cells)

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
    binning: Binning         # the partition, radius and bins it was built by
    nu: BinEntries           # oscillation histogram, bins_per_axis^dim bins
    lam_mass: np.ndarray     # (n_cells,)
    nu_inf: BinEntries       # concentration-angle histogram, sphere_bins bins
    nu_first: np.ndarray     # (n_cells, dim): <nu, xi>
    nu_second: np.ndarray    # (n_cells, dim, dim): <nu, xi (x) xi>
    lam_second: np.ndarray   # (n_cells, dim, dim): lambda <nu_inf, theta (x) theta>

    def __post_init__(self):
        for a in (self.lam_mass, self.nu_first, self.nu_second, self.lam_second):
            a.setflags(write=False)

    # dense (n_cells, bins) bin masses, built on first access
    nu_mass = _dense_mass("nu")
    inf_mass = _dense_mass("nu_inf")

    @property
    def partition(self) -> CellPartition:
        return self.binning.partition

    @property
    def dim(self) -> int:
        return self.partition.dim

    def lam_total(self) -> float:
        return float(self.lam_mass.sum())

    def lam_t(self, slab: int) -> float:
        """Concentration mass of one slab normalized by its duration."""
        cells = self.partition.slab_cells(slab)
        return float(self.lam_mass[cells].sum()) / self.partition.slab_duration


# -- construction ----------------------------------------------------------


def _cell_sums(blocks: np.ndarray) -> np.ndarray:
    """Column sums of samples in cell layout, lead + (samples per cell,
    cells), shape lead + (cells,).

    Each column adds from +0.0 in row order, the order in which a bincount
    over the samples adds a cell's samples.  numpy reduces the row axis
    row after row while there are several columns; a single column it
    would sum pairwise, so that one goes through bincount.
    """
    if blocks.shape[-1] > 1:
        return np.add.reduce(blocks, axis=-2, initial=0.0)
    lead = blocks.shape[:-2]
    column = np.repeat(np.arange(math.prod(lead)), blocks.shape[-2])
    return np.bincount(column, weights=blocks.ravel()).reshape(lead + (1,))


def _products(blocks: np.ndarray) -> np.ndarray:
    """Per-cell sums of v (x) v over samples in cell layout (dim, per cell,
    cells), shape (cells, dim, dim) and symmetric bit for bit."""
    dim = len(blocks)
    out = np.empty((blocks.shape[-1], dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            out[:, i, j] = out[:, j, i] = _cell_sums(blocks[i] * blocks[j])
    return out


@dataclass(frozen=True)
class RunBins:
    """One run's samples, binned by a ``YoungBinner``, for
    ``YoungAccumulator.apply``.

    ``binning`` is the ``Binning`` they were binned for.  ``snapshots``
    holds (slab, first, second, escaped) per snapshot inside the partition
    window, in the order observed: the per-cell sums over the slab's space
    cells of u, shape (n_space, dim), and of u (x) u, shape (n_space, dim,
    dim), where an escaped sample counts as 0; and, if any sample escaped,
    its concentration keys within the slab, its weights |u|^2 (both in
    cell layout, so each cell's in grid order) and the per-cell sums of u
    (x) u over the escaped samples, else None.  ``counts`` holds (slab,
    keys, counts) per slab: the oscillation keys within the slab that the
    run occupied and their integer sample counts.
    """

    binning: Binning
    snapshots: list
    counts: list


class YoungBinner:
    """Observer binning the samples of one run by ``binning``: the first
    half of a measure build, whose second half is
    ``YoungAccumulator.apply``.

    It observes ``steps`` of the run (every step if None).  ``bin`` reduces
    each state's point values to that snapshot's moment sums, concentration
    entries and oscillation keys, and keeps nothing of the state;
    ``payload()`` gives the run's ``RunBins``, which apply in any process.

    It reads each snapshot once, in the cell layout of
    ``CellPartition.blocks``, where a sample's space cell is its column, and
    adds each cell's samples in grid order, as a bincount over the samples
    would.  The oscillation keys become integer counts, which no order
    changes.
    """

    def __init__(self, binning: Binning, steps=None):
        self.binning, self.steps = binning, steps
        self._snapshots, self._keys = [], {}

    def on_state(self, n, t, band, phys):
        self.bin(t, phys)

    def bin(self, t, values: np.ndarray) -> None:
        """Bin the point values, shape (dim,) + grid shape, of the state at
        time ``t``; a time outside the partition window is skipped."""
        binning = self.binning
        part = binning.partition
        dim = part.dim
        if values.shape != (dim,) + (part.grid_n,) * dim:
            raise YoungMeasureError("trajectory grid does not match partition")
        t = float(t)
        if t < part.t0 - 1e-12 or t > part.t1 + 1e-12:
            return
        slab, n_space = part.slab_of(t), part.n_space
        blocks = part.blocks(values)    # (dim, samples per cell, n_space)
        speed = np.sqrt((blocks ** 2).sum(axis=0))
        below = speed <= binning.radius
        vb, escaped = blocks, None
        if not below.all():
            above = np.flatnonzero(~below)  # row by row; the cell is the column
            sa = speed.take(above)
            va = blocks.reshape(dim, -1).take(above, axis=1)
            keys = above % n_space * binning.sphere_bins + binning.direction_bin((va / sa).T)
            escaped = (keys, sa ** 2, _products(np.where(below, 0.0, blocks)))
            vb = np.where(below, blocks, 0.0)
        keys = binning.value_bin(vb.reshape(dim, -1).T).reshape(-1, n_space)
        keys += np.arange(n_space) * binning.bins_per_axis ** dim
        self._keys.setdefault(slab, []).append(keys.ravel())
        self._snapshots.append((slab, _cell_sums(vb).T, _products(vb), escaped))

    def payload(self) -> RunBins:
        """The ``RunBins`` of the samples binned so far."""
        counts = [(slab, *np.unique(np.concatenate(keys), return_counts=True))
                  for slab, keys in sorted(self._keys.items())]
        return RunBins(self.binning, self._snapshots, counts)


class YoungAccumulator:
    """The one measure build: ``apply`` binned runs, then ``measure`` once.

    ``apply`` adds one run's ``RunBins`` (binned by the same ``binning``)
    to running sums.  ``measure`` normalizes the sums into a
    ``GeneralizedYoungMeasure`` once, after the last run.  Samples beyond
    the truncation radius feed the concentration part and count at the
    origin of the oscillation histogram.  The sums depend only on the order
    of the applied runs, so a caller that streams them gets the bits of one
    call over the whole family.  It counts snapshots per time slab, each
    giving every space cell one block of samples; the moment sums are dense
    per cell, and both histograms are dense tables of one row per time
    slab, keyed by space cell and bin within the slab: the oscillation counts as int64,
    the concentration weights as float64, made when a sample first escapes
    (a zeroed table is resident once made, and most builds escape nowhere).
    """

    def __init__(self, binning: Binning):
        self.binning = binning
        part = binning.partition
        dim, n_cells = part.dim, part.n_cells
        self._counts = np.zeros((part.n_t, part.n_space * binning.bins_per_axis ** dim),
                                dtype=np.int64)
        self._conc = None
        self._snapshots = np.zeros(part.n_t, dtype=np.int64)
        self._first = np.zeros((n_cells, dim))
        self._second = np.zeros((n_cells, dim, dim))
        self._escaped_second = np.zeros((n_cells, dim, dim))

    def apply(self, binned: RunBins) -> None:
        """Add the samples of one binned run, snapshot by snapshot; a
        snapshot's concentration weights add to its slab's row as one
        bincount, so every total adds from +0.0 in snapshot order."""
        if binned.binning != self.binning:
            raise YoungMeasureError("run binned for another partition, radius or bins")
        part = self.binning.partition
        for slab, first, second, escaped in binned.snapshots:
            cells = part.slab_cells(slab)
            self._snapshots[slab] += 1
            self._first[cells] += first
            self._second[cells] += second
            if escaped is not None:
                keys, weights, products = escaped
                if self._conc is None:
                    self._conc = np.zeros((part.n_t, part.n_space * self.binning.sphere_bins))
                self._conc[slab] += np.bincount(keys, weights=weights,
                                                minlength=self._conc.shape[1])
                self._escaped_second[cells] += products
        for slab, keys, counts in binned.counts:
            self._counts[slab, keys] += counts

    def measure(self) -> GeneralizedYoungMeasure:
        """The measure of every sample applied; call it once, after the last
        run.  Row s of a table holds the keys of slab s, so its flat nonzero
        entries are the measure's sorted keys."""
        binning = self.binning
        part, sphere_bins = binning.partition, binning.sphere_bins
        n_bins = binning.bins_per_axis ** part.dim
        if not self._snapshots.any():
            raise YoungMeasureError("no samples fall inside the partition window")
        if not self._snapshots.all():
            raise YoungMeasureError(
                "partition has cells without samples; refine snapshots or coarsen")

        # oscillation part: a probability per cell
        per_snapshot = float((part.grid_n // part.n_x) ** part.dim)
        samples = np.repeat(self._snapshots * per_snapshot, part.n_space)
        keys = np.flatnonzero(self._counts > 0)   # faster than on the int64 table
        nu = BinEntries(n_bins, keys, self._counts.ravel()[keys] / samples[keys // n_bins])

        # concentration part: quadrature weight per sample is cellvol / samples
        cell_weight = part.cell_volume / samples
        conc = np.zeros(0) if self._conc is None else self._conc.ravel()
        keys = np.flatnonzero(conc)
        cell = keys // sphere_bins
        w = conc[keys] * cell_weight[cell]
        # (a bincount of no entries is an integer array)
        lam_mass = np.bincount(cell, weights=w, minlength=part.n_cells).astype(float)
        nu_inf = BinEntries(sphere_bins, keys, w / lam_mass[cell])

        return GeneralizedYoungMeasure(
            binning=binning, nu=nu, lam_mass=lam_mass, nu_inf=nu_inf,
            nu_first=self._first / samples[:, None],
            nu_second=self._second / samples[:, None, None],
            lam_second=self._escaped_second * cell_weight[:, None, None])


def dirac_embed(binned: RunBins) -> GeneralizedYoungMeasure:
    """Embed one binned run as (delta_u, 0, 0).

    The measure is (delta_u, 0, 0) while |u| <= R; samples beyond the
    truncation radius feed the concentration part as in any family.  The
    binning is the one the run was binned by.
    """
    acc = YoungAccumulator(binned.binning)
    acc.apply(binned)
    return acc.measure()


def estimate_from_family(runs) -> GeneralizedYoungMeasure:
    """Pooled oscillation/concentration estimator over a family of binned runs.

    Samples with |u| <= R populate the oscillation histograms; the rest
    contribute quadrature-weighted |u|^2 mass to the concentration measure
    and their directions to the sphere histogram.  The binning is that of
    the first run; a run binned by another raises.  ``runs`` is iterated
    once, so a generator streams its ``RunBins`` one at a time; an empty
    family is rejected.
    """
    acc = None
    for binned in runs:
        if acc is None:
            acc = YoungAccumulator(binned.binning)
        acc.apply(binned)
    if acc is None:
        raise YoungMeasureError("empty family: no binned run to estimate from")
    return acc.measure()


# -- pairings and reductions ----------------------------------------------


def pairing(V: GeneralizedYoungMeasure, f: TestIntegrand, phi=None) -> float:
    """Integral of phi(t,x) [<nu, f> dx dt + <nu_inf, f_inf> dlambda].

    phi is evaluated at cell centers (continuous weights only); the pairing
    reads the moment arrays and is exact with respect to the underlying
    samples.
    """
    return float(_cell_weights(V.partition, phi) @ _per_cell(V, f))


def _cell_weights(part: CellPartition, phi, centers=None) -> np.ndarray:
    """phi at the cell centers (ones for phi None), shape (n_cells,)."""
    if phi is None:
        return np.ones(part.n_cells)
    tc, xc = part.cell_centers() if centers is None else centers
    return np.asarray(phi(tc, xc), dtype=float)


def _per_cell(V: GeneralizedYoungMeasure, f: TestIntegrand) -> np.ndarray:
    """<nu, f> dx dt + <nu_inf, f_inf> dlambda on each cell, shape (n_cells,).

    nu is a probability, so <nu, c> = c.
    """
    a, b, c = f.quad
    osc = np.einsum("kij,ij->k", V.nu_second, a) + V.nu_first @ b + c
    return osc * V.partition.cell_volume + np.einsum("kij,ij->k", V.lam_second, a)


def energy_of(V: GeneralizedYoungMeasure, slab: int) -> float:
    """Slab kinetic energy 0.5 int <nu, |xi|^2> dx + 0.5 lambda_t(T^dim)."""
    part = V.partition
    if not 0 <= slab < part.n_t:
        raise YoungMeasureError(f"slab {slab} out of range")
    second = V.nu_second[part.slab_cells(slab)]
    osc = np.trace(second, axis1=1, axis2=2).sum() * part.space_volume
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


def weakstar_distance(V1: GeneralizedYoungMeasure,
                      V2: GeneralizedYoungMeasure) -> float:
    """Max pairing discrepancy over the separating ``quadratic_dictionary``."""
    if V1.partition != V2.partition:
        raise YoungMeasureError("measures live on different partitions")
    centers = V1.partition.cell_centers()
    worst = 0.0
    for f, phi, _ in quadratic_dictionary(V1.dim):
        weights = _cell_weights(V1.partition, phi, centers)
        worst = max(worst, abs(float(weights @ _per_cell(V1, f))
                               - float(weights @ _per_cell(V2, f))))
    return worst


# -- export ----------------------------------------------------------------


_MEASURE_MAGIC = b"DEYMS\x00"
_MEASURE_VERSION = 3
# version, dim, grid_n, n_t, n_x, t0, t1, radius, bins_per_axis,
# sphere_bins, nu entries, nu_inf entries
_MEASURE_HEADER = struct.Struct("<HBIIIdddIIQQ")


def write_measure(path, V: GeneralizedYoungMeasure) -> None:
    """Write V as a measure file: header, the per-cell arrays, then the
    entries of both histograms."""
    b, part = V.binning, V.partition
    with open(path, "wb") as fh:
        fh.write(_MEASURE_MAGIC)
        fh.write(_MEASURE_HEADER.pack(
            _MEASURE_VERSION, part.dim, part.grid_n, part.n_t, part.n_x, part.t0, part.t1,
            b.radius, b.bins_per_axis, b.sphere_bins, len(V.nu.key), len(V.nu_inf.key)))
        for a in (V.lam_mass, V.nu_first, V.nu_second, V.lam_second):
            fh.write(a.astype("<f8", copy=False).tobytes())
        for entries in (V.nu, V.nu_inf):
            fh.write(entries.key.astype("<i8", copy=False).tobytes())
            fh.write(entries.mass.astype("<f8", copy=False).tobytes())


def read_measure(path) -> GeneralizedYoungMeasure:
    """Read a measure written by ``write_measure``, bit for bit; a header
    that breaks the ``Binning`` rules, or int64 keys that do not increase
    strictly within [0, n_cells * bins), raise ``YoungMeasureError``."""
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
    binning = Binning(CellPartition(dim, grid_n, n_t, n_x, t0, t1), radius,
                      bins_per_axis, sphere_bins)
    n_cells = binning.partition.n_cells
    # lam_mass, nu_first, nu_second, lam_second; a key and a mass per entry
    want = 8 * (n_cells * (1 + dim + 2 * dim * dim) + 2 * (n_nu + n_inf))
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

    lam_mass = take("f8", (n_cells,))
    nu_first = take("f8", (n_cells, dim))
    nu_second = take("f8", (n_cells, dim, dim))
    lam_second = take("f8", (n_cells, dim, dim))
    entries = []
    for name, n_bins, n in (("nu", bins_per_axis ** dim, n_nu),
                            ("nu_inf", sphere_bins, n_inf)):
        key, top = take("i8", (n,)), n_cells * n_bins
        if top > 2 ** 63 or n and (key[0] < 0 or key[-1] >= top or np.any(key[1:] <= key[:-1])):
            raise YoungMeasureError(f"{name} keys are not int64 keys strictly increasing "
                                    f"in [0, {top})")
        entries.append(BinEntries(n_bins, key, take("f8", (n,))))
    return GeneralizedYoungMeasure(binning, entries[0], lam_mass, entries[1],
                                   nu_first, nu_second, lam_second)
