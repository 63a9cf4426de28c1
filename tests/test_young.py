"""Young measure estimators: embedding, oscillation/concentration, pairing."""

import math
import pickle
import struct
import weakref
from dataclasses import replace

import numpy as np
import pytest

from dissipeuler.spectral import TorusGrid, l2_norm_sq, taylor_green
from dissipeuler.young import (
    Binning,
    CellPartition,
    TestIntegrand,
    YoungAccumulator,
    YoungBinner,
    YoungMeasureError,
    dirac_embed,
    energy_of,
    estimate_from_family,
    pairing,
    quadratic_dictionary,
    read_measure,
    slab_energies,
    weakstar_distance,
    write_measure,
)

from conftest import Trajectory, bin_run, space_cell_index, total_volume

TWO_PI = 2.0 * np.pi


def constant_trajectory(grid, c, times):
    vals = np.zeros((len(times), grid.dim) + grid.shape)
    for i, ci in enumerate(c):
        vals[:, i] = ci
    return Trajectory(np.asarray(times, dtype=float), vals)


def field_trajectory(grid, fn, times):
    """Trajectory from fn(t, x_arrays) -> (dim,)+shape physical values."""
    x = grid.points()
    vals = np.stack([fn(t, x) for t in times])
    return Trajectory(np.asarray(times, dtype=float), vals)


def sign_oscillation(grid, m, a=1.0):
    """a * sign(sin(m x1)) e2 sampled off-lattice so no zeros occur."""
    n = grid.n
    xo = (np.arange(n) + 0.5) * TWO_PI / n
    col = a * np.sign(np.sin(m * xo))
    vals = np.zeros((grid.dim,) + grid.shape)
    vals[1] = col[(slice(None),) + (None,) * (grid.dim - 1)]
    return vals


def make_partition(grid, n_t=2, n_x=4, t0=0.0, t1=1.0):
    return CellPartition(grid.dim, grid.n, n_t, n_x, t0, t1)


ENERGY = TestIntegrand("speed2", quad=(np.eye(2), np.zeros(2), 0.0))
ONE = TestIntegrand("one", quad=(np.zeros((2, 2)), np.zeros(2), 1.0))


# (dim, grid_n, n_x, m): m points per axis, the sampling grid or 4x finer
BLOCK_CASES = [(2, 32, 4, 32), (2, 16, 16, 16), (3, 16, 4, 16), (2, 16, 1, 16),
               (3, 8, 1, 8), (3, 8, 8, 8), (2, 16, 4, 64), (3, 8, 2, 32), (2, 8, 1, 32)]


class TestCellPartition:
    @pytest.mark.parametrize("dim,n,n_x,m", BLOCK_CASES, ids=[
        f"{d}-{n}-{x}" + ("" if m == n else f"-m{m}") for d, n, x, m in BLOCK_CASES])
    def test_block_mean_matches_space_cell_index(self, dim, n, n_x, m):
        # bit for bit: each cell adds its samples in grid order from +0.0,
        # as a bincount over the samples does
        part = CellPartition(dim, n, 1, n_x, 0.0, 1.0)
        vals = np.random.default_rng(dim * n + n_x + m).standard_normal(
            (3, 2) + (m,) * dim)
        idx = space_cell_index(part, m)
        counts = np.bincount(idx, minlength=part.n_space)
        flat = vals.reshape(6, -1)
        want = np.stack([np.bincount(idx, weights=row, minlength=part.n_space)
                         for row in flat]) / counts
        got = part.block_mean(vals)
        assert got.shape == (3, 2, part.n_space)
        assert np.array_equal(got.reshape(6, -1), want)

    def test_block_mean_rejects_indivisible_grid(self):
        part = CellPartition(2, 32, 1, 8, 0.0, 1.0)
        with pytest.raises(YoungMeasureError):
            part.block_mean(np.zeros((2, 12, 12)))


class TestDiracEmbed:
    def test_constant_field_single_bin(self):
        grid = TorusGrid(2, 16)
        part = make_partition(grid)
        traj = constant_trajectory(grid, (0.3, -0.4), [0.0, 0.5, 1.0])
        V = dirac_embed(bin_run(traj, part, radius=2.0))
        assert V.lam_total() == 0.0
        # exactly one occupied bin per cell, carrying the exact value
        for cell in range(part.n_cells):
            occ = np.nonzero(V.nu_mass[cell])[0]
            assert len(occ) == 1
            assert V.nu_mass[cell, occ[0]] == pytest.approx(1.0)
        # every cell's moments are those of the exact value
        assert np.allclose(V.nu_first, [0.3, -0.4])
        assert np.allclose(V.nu_second, np.outer([0.3, -0.4], [0.3, -0.4]))

    def test_barycenter_is_cell_average(self):
        grid = TorusGrid(2, 32)
        part = make_partition(grid, n_t=1, n_x=4)
        traj = field_trajectory(
            grid, lambda t, x: np.stack([
                np.broadcast_to(np.sin(x[0]), grid.shape),
                np.broadcast_to(np.cos(x[1]), grid.shape)]), [0.0, 1.0])
        V = dirac_embed(bin_run(traj, part, radius=2.0))
        bary = V.nu_first
        space_idx = space_cell_index(part)
        vals = traj.values.reshape(2, 2, -1)  # (snap, dim, pts)
        for cell in range(part.n_cells):
            sel = space_idx == cell
            avg = vals[:, :, sel].mean(axis=(0, 2))
            assert np.allclose(bary[cell], avg, atol=1e-12)

    def test_pairing_energy_matches_spectral_quadrature(self):
        grid = TorusGrid(2, 32)
        part = make_partition(grid, n_t=2, n_x=4)
        u = taylor_green(grid)
        traj = field_trajectory(grid, lambda t, x: u.to_physical(),
                                [0.0, 0.25, 0.5, 0.75, 1.0])
        V = dirac_embed(bin_run(traj, part, radius=2.0))
        # <V, |xi|^2 x 1> = int_0^1 ||u||^2 dt = 2 * time-integrated energy
        got = pairing(V, ENERGY)
        assert got == pytest.approx(l2_norm_sq(u), rel=2e-2)

    def test_escaped_constant_is_pure_concentration(self):
        # every sample of (3, 0) escapes R = 2: lambda carries |u|^2 = 9 per
        # unit volume and nu is the Dirac mass at 0 in every cell
        grid = TorusGrid(2, 16)
        part = make_partition(grid)
        traj = constant_trajectory(grid, (3.0, 0.0), [0.0, 1.0])
        V = dirac_embed(bin_run(traj, part, radius=2.0))
        assert V.lam_total() == pytest.approx(9 * total_volume(part), rel=1e-12)
        binning = V.binning
        origin = int(binning.value_bin(np.zeros((1, 2)))[0])
        assert np.array_equal(V.nu.key, np.arange(part.n_cells) * V.nu.n_bins + origin)
        assert np.all(V.nu.mass == 1.0)
        assert not V.nu_first.any() and not V.nu_second.any()
        e1 = int(binning.direction_bin(np.array([[1.0, 0.0]]))[0])
        assert np.array_equal(V.nu_inf.key, np.arange(part.n_cells) * binning.sphere_bins + e1)
        assert np.allclose(V.lam_second, V.lam_mass[:, None, None] * np.diag([1.0, 0.0]))


class TestFamilyEstimator:
    def test_single_trajectory_below_radius_equals_dirac(self):
        grid = TorusGrid(2, 16)
        part = make_partition(grid)
        traj = field_trajectory(
            grid, lambda t, x: 0.5 * np.stack([
                np.broadcast_to(np.sin(x[0] + t), grid.shape),
                np.broadcast_to(np.cos(x[1]), grid.shape)]), [0.0, 0.5, 1.0])
        Vf = estimate_from_family([bin_run(traj, part, radius=2.0)])
        Vd = dirac_embed(bin_run(traj, part, radius=2.0))
        assert np.allclose(Vf.nu_mass, Vd.nu_mass)
        assert np.array_equal(Vf.nu.key, Vd.nu.key)
        assert np.allclose(Vf.nu_first, Vd.nu_first)
        assert np.allclose(Vf.nu_second, Vd.nu_second)
        assert Vf.lam_total() == 0.0

    def test_oscillation_family_recovers_two_point_measure(self):
        # u_m = a sign(sin(m x1)) e2 oscillates between +-a e2; the pooled
        # histogram approaches (delta_{+a} + delta_{-a}) / 2 on bins
        grid = TorusGrid(2, 256)
        part = make_partition(grid, n_t=1, n_x=4)
        a, radius, bins = 1.0, 2.0, 16
        m = 61
        traj = Trajectory(np.array([0.0, 1.0]),
                          np.stack([sign_oscillation(grid, m, a)] * 2))
        V = estimate_from_family([bin_run(traj, part, radius, bins_per_axis=bins)])

        ref = np.zeros_like(V.nu_mass)
        w = 2 * radius / bins
        bin_plus = int((0 + radius) / w) * bins + int((a + radius) / w)
        bin_minus = int((0 + radius) / w) * bins + int((-a + radius) / w)
        ref[:, bin_plus] = 0.5
        ref[:, bin_minus] = 0.5
        tv = 0.5 * np.abs(V.nu_mass - ref).sum(axis=1).max()
        assert tv < 0.05

    def test_oscillation_family_total_variation_shrinks(self):
        grid = TorusGrid(2, 256)
        part = make_partition(grid, n_t=1, n_x=4)
        tvs = []
        for m in (5, 11, 23, 61):
            traj = Trajectory(np.array([0.0, 1.0]),
                              np.stack([sign_oscillation(grid, m)] * 2))
            V = estimate_from_family([bin_run(traj, part, 2.0, bins_per_axis=16)])
            ref = np.zeros_like(V.nu_mass)
            w = 4.0 / 16
            ref[:, int(2.0 / w) * 16 + int(3.0 / w)] = 0.5
            ref[:, int(2.0 / w) * 16 + int(1.0 / w)] = 0.5
            tvs.append(0.5 * np.abs(V.nu_mass - ref).sum(axis=1).max())
        assert tvs[-1] < tvs[0]
        assert tvs[-1] < 0.05

    def test_concentration_family_mass_and_angle(self):
        # u_m = m e1 on a patch of measure (2pi)^2/m^2: per-slab lambda mass
        # m^2 |A_m| = (2pi)^2 and all angle mass in the e1 sphere bin
        grid = TorusGrid(2, 128)
        part = make_partition(grid, n_t=2, n_x=4)
        m = 8
        width = grid.n // m  # patch side in grid points: area (2pi/m)^2
        vals = np.zeros((grid.dim,) + grid.shape)
        vals[0, :width, :width] = m
        traj = Trajectory(np.array([0.0, 0.5, 1.0]), np.stack([vals] * 3))
        V = estimate_from_family([bin_run(traj, part, radius=2.0)])

        expected = TWO_PI ** 2
        for slab in range(part.n_t):
            assert V.lam_t(slab) == pytest.approx(expected, rel=0.05)
        # angle histogram concentrated where (1, 0) lands
        total_inf = (V.inf_mass * V.lam_mass[:, None]).sum(axis=0)
        e1_bin = np.argmax(total_inf)
        assert total_inf[e1_bin] == pytest.approx(V.lam_total(), rel=1e-12)
        at_e1 = V.nu_inf.key % V.nu_inf.n_bins == e1_bin
        assert np.array_equal(V.nu_inf.cell[at_e1], np.flatnonzero(V.lam_mass > 0))
        assert np.allclose(V.lam_second, V.lam_mass[:, None, None] * np.diag([1.0, 0.0]))

    def test_pure_concentration_barycenter_zero_energy_is_lambda(self):
        grid = TorusGrid(2, 64)
        part = make_partition(grid, n_t=1, n_x=2)
        vals = np.zeros((2,) + grid.shape)
        vals[0, :8, :8] = 8.0
        traj = Trajectory(np.array([0.0, 1.0]), np.stack([vals] * 2))
        V = estimate_from_family([bin_run(traj, part, radius=2.0)])
        # below-radius samples are exactly zero there, so barycenter is 0
        # and the oscillation part carries no energy
        assert np.max(np.abs(V.nu_first)) == 0.0
        assert energy_of(V, 0) == pytest.approx(0.5 * V.lam_t(0))

    def test_empty_family_rejected(self):
        # no run to read the partition, radius and bins from: the empty
        # family is named, as a list and as an exhausted iterator
        with pytest.raises(YoungMeasureError, match="empty family"):
            estimate_from_family([])
        with pytest.raises(YoungMeasureError, match="empty family"):
            estimate_from_family(iter([]))

    def test_family_of_runs_binned_for_other_measures_rejected(self):
        grid = TorusGrid(2, 16)
        part = make_partition(grid)
        traj = constant_trajectory(grid, (0.5, 0.0), [0.0, 1.0])
        with pytest.raises(YoungMeasureError, match="another partition"):
            estimate_from_family([bin_run(traj, part, 2.0), bin_run(traj, part, 3.0)])

    def test_dirac_embed_is_the_family_of_one_run(self):
        # one binned run, with samples beyond R, embeds with the bits of its
        # family of one
        trajs, part, radius, bins, sphere, _ = ORACLE_CASES["dirac_clipped"]()
        binned = bin_run(trajs[0], part, radius, bins, sphere)
        _assert_same_measure(dirac_embed(binned), estimate_from_family([binned]))

    def test_generator_family_is_streamed(self, tmp_path):
        # a generator is read one binned run at a time: when the next one is
        # made, at most the one just read is still alive, and the measure
        # writes the bytes of the one built from the same runs in a list
        grid = TorusGrid(2, 16)
        part = make_partition(grid)
        times = [0.0, 0.25, 0.5, 0.75, 1.0]
        rng = np.random.default_rng(5)
        values = [rng.standard_normal((len(times), 2) + grid.shape) for _ in range(5)]
        alive = []

        def family():
            for vals in values:
                assert sum(ref() is not None for ref in alive) <= 1
                binned = bin_run(Trajectory(np.asarray(times), vals.copy()), part, 2.0)
                alive.append(weakref.ref(binned))
                yield binned
        streamed = estimate_from_family(family())
        listed = estimate_from_family(
            [bin_run(Trajectory(np.asarray(times), v), part, 2.0) for v in values])
        assert len(alive) == 5
        write_measure(tmp_path / "streamed.ym", streamed)
        write_measure(tmp_path / "listed.ym", listed)
        assert (tmp_path / "streamed.ym").read_bytes() == \
            (tmp_path / "listed.ym").read_bytes()

    def test_permutation_invariance(self):
        grid = TorusGrid(2, 16)
        part = make_partition(grid)
        t1 = constant_trajectory(grid, (0.5, 0.0), [0.0, 1.0])
        t2 = constant_trajectory(grid, (-0.25, 0.1), [0.0, 1.0])
        Va = estimate_from_family(bin_run(t, part, 2.0) for t in [t1, t2])
        Vb = estimate_from_family(bin_run(t, part, 2.0) for t in [t2, t1])
        assert np.allclose(Va.nu_mass, Vb.nu_mass)
        assert np.array_equal(Va.nu.key, Vb.nu.key)
        assert np.allclose(Va.nu_first, Vb.nu_first)
        assert np.allclose(Va.nu_second, Vb.nu_second)
        assert np.allclose(Va.lam_mass, Vb.lam_mass)


class TestPairing:
    def test_constant_integrand_gives_volume(self):
        grid = TorusGrid(2, 16)
        part = make_partition(grid, n_t=2, n_x=2, t0=0.0, t1=0.5)
        traj = constant_trajectory(grid, (0.1, 0.2), [0.0, 0.25, 0.5])
        V = dirac_embed(bin_run(traj, part, 2.0))
        assert pairing(V, ONE) == pytest.approx(total_volume(part), rel=1e-12)

    def test_energy_integrand_sees_full_concentration(self):
        grid = TorusGrid(2, 64)
        part = make_partition(grid, n_t=1, n_x=2)
        vals = np.zeros((2,) + grid.shape)
        vals[1, :8, :8] = 16.0
        traj = Trajectory(np.array([0.0, 1.0]), np.stack([vals] * 2))
        V = estimate_from_family([bin_run(traj, part, radius=2.0)])
        got = pairing(V, ENERGY)
        assert got == pytest.approx(V.lam_total(), rel=1e-12)

    def test_tensor_pairing_matches_direct_quadrature(self):
        # <nu, xi_i xi_j> against pointwise u_i u_j under a trig weight
        grid = TorusGrid(2, 64)
        part = make_partition(grid, n_t=1, n_x=16)
        u = taylor_green(grid)
        traj = field_trajectory(grid, lambda t, x: u.to_physical(), [0.0, 1.0])
        V = dirac_embed(bin_run(traj, part, 2.0))

        f = TestIntegrand("xi0sq", quad=(np.diag([1.0, 0.0]), np.zeros(2), 0.0))
        got = pairing(V, f, lambda t, xc: np.cos(2.0 * xc[:, 1]))
        phys = u.to_physical()
        x = grid.points()
        direct = np.mean(phys[0] ** 2 * np.cos(2.0 * x[1])) * TWO_PI ** 2
        assert abs(direct) > 1.0  # the oracle integral is genuinely nonzero
        assert got == pytest.approx(direct, rel=0.05)

    def test_pairing_linear_in_integrand(self):
        grid = TorusGrid(2, 16)
        part = make_partition(grid)
        traj = constant_trajectory(grid, (0.4, 0.1), [0.0, 1.0])
        V = dirac_embed(bin_run(traj, part, 2.0))
        a = pairing(V, ENERGY)
        b = pairing(V, ONE)
        comb = TestIntegrand("combo", quad=(2.0 * np.eye(2), np.zeros(2), 3.0))
        assert pairing(V, comb) == pytest.approx(2 * a + 3 * b, rel=1e-12)

    def test_pairing_monotone_for_nonnegative(self):
        grid = TorusGrid(2, 64)
        part = make_partition(grid, n_t=1, n_x=2)
        vals = np.zeros((2,) + grid.shape)
        vals[0, :8, :8] = 8.0
        vals[1] = 0.3
        traj = Trajectory(np.array([0.0, 1.0]), np.stack([vals] * 2))
        V = estimate_from_family([bin_run(traj, part, radius=2.0)])
        small = TestIntegrand("half", quad=(0.5 * np.eye(2), np.zeros(2), 0.0))
        assert pairing(V, small) <= pairing(V, ENERGY)
        assert pairing(V, small) >= 0.0


class TestEnergyAndDistance:
    def test_constant_energy_closed_form(self):
        grid = TorusGrid(2, 16)
        part = make_partition(grid)
        c = (0.6, -0.8)
        traj = constant_trajectory(grid, c, [0.0, 0.5, 1.0])
        V = dirac_embed(bin_run(traj, part, 2.0))
        expected = 0.5 * (c[0] ** 2 + c[1] ** 2) * TWO_PI ** 2
        for slab in range(part.n_t):
            assert energy_of(V, slab) == pytest.approx(expected, rel=1e-12)

    def test_slab_energy_tracks_time_average(self):
        grid = TorusGrid(2, 32)
        part = make_partition(grid, n_t=2, n_x=4)
        u = taylor_green(grid)
        traj = field_trajectory(
            grid, lambda t, x: (1.0 - 0.5 * t) * u.to_physical(),
            [0.0, 0.25, 0.5, 0.75, 1.0])
        V = dirac_embed(bin_run(traj, part, 2.0))
        e = l2_norm_sq(u)
        # slab 0 holds t in {0, .25}, slab 0.5 boundary goes to slab 1
        avg0 = 0.5 * np.mean([(1 - 0.5 * t) ** 2 for t in (0.0, 0.25)]) * e
        avg1 = 0.5 * np.mean([(1 - 0.5 * t) ** 2 for t in (0.5, 0.75, 1.0)]) * e
        got = slab_energies(V)
        assert got[0] == pytest.approx(avg0, rel=2e-2)
        assert got[1] == pytest.approx(avg1, rel=2e-2)

    def test_second_moment_bounded_by_sup_energy(self):
        grid = TorusGrid(2, 32)
        part = make_partition(grid)
        u = taylor_green(grid)
        traj = field_trajectory(grid, lambda t, x: u.to_physical(),
                                [0.0, 0.5, 1.0])
        V = dirac_embed(bin_run(traj, part, 2.0))
        horizon = part.t1 - part.t0
        # space-time integral of <nu, |xi|^2>, finite by construction
        second_moment = pairing(V, ENERGY)
        assert second_moment <= l2_norm_sq(u) * horizon * (1 + 1e-10)

    def test_distance_self_is_zero(self):
        grid = TorusGrid(2, 16)
        part = make_partition(grid)
        traj = constant_trajectory(grid, (0.2, 0.2), [0.0, 1.0])
        V = dirac_embed(bin_run(traj, part, 2.0))
        assert weakstar_distance(V, V) == 0.0

    def test_distance_linear_in_perturbation(self):
        grid = TorusGrid(2, 32)
        part = make_partition(grid, n_t=1, n_x=4)
        u = taylor_green(grid).to_physical()
        w = np.zeros_like(u)
        w[0] = 1.0
        dists = []
        for delta in (0.2, 0.1, 0.05):
            t1 = Trajectory(np.array([0.0, 1.0]), np.stack([u] * 2))
            t2 = Trajectory(np.array([0.0, 1.0]),
                            np.stack([u + delta * w] * 2))
            V1 = dirac_embed(bin_run(t1, part, 3.0))
            V2 = dirac_embed(bin_run(t2, part, 3.0))
            dists.append(weakstar_distance(V1, V2))
        ratios = np.array(dists[:-1]) / np.array(dists[1:])
        assert np.all(ratios > 1.6) and np.all(ratios < 2.5)

    def test_distance_requires_common_partition(self):
        grid = TorusGrid(2, 16)
        t = constant_trajectory(grid, (0.1, 0.0), [0.0, 1.0])
        V1 = dirac_embed(bin_run(t, make_partition(grid, n_x=2), 2.0))
        V2 = dirac_embed(bin_run(t, make_partition(grid, n_x=4), 2.0))
        with pytest.raises(YoungMeasureError):
            weakstar_distance(V1, V2)

    def test_dictionary_size(self):
        assert len(quadratic_dictionary(2)) >= 20
        assert len(quadratic_dictionary(3)) >= 20


def _assert_same_measure(got, want):
    """Every array equal with its dtype, shape and bits; every scalar too."""
    assert got.binning == want.binning
    for name in ("radius", "bins_per_axis", "sphere_bins"):
        g, w = getattr(got.binning, name), getattr(want.binning, name)
        assert g == w and np.signbit(g) == np.signbit(w), name
    for t in ("t0", "t1"):
        assert np.signbit(getattr(got.partition, t)) == \
            np.signbit(getattr(want.partition, t))
    pairs = [(getattr(got, a), getattr(want, a))
             for a in ("lam_mass", "nu_first", "nu_second", "lam_second")]
    for part in ("nu", "nu_inf"):
        g, w = getattr(got, part), getattr(want, part)
        assert g.n_bins == w.n_bins
        pairs += [(getattr(g, a), getattr(w, a)) for a in ("key", "mass")]
    for g, w in pairs:
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)
        assert g.tobytes() == w.tobytes()


# the version 3 header after the 6-byte magic, and its fields
_HEADER = struct.Struct("<HBIIIdddIIQQ")
_FIELDS = ("version", "dim", "grid_n", "n_t", "n_x", "t0", "t1", "radius",
           "bins_per_axis", "sphere_bins", "n_nu", "n_inf")


def _set_header(**fields):
    """Damage to a measure file that rewrites header fields."""
    def damage(data):
        header = dict(zip(_FIELDS, _HEADER.unpack_from(data, 6)))
        header.update(fields)
        return data[:6] + _HEADER.pack(*header.values()) + data[6 + _HEADER.size:]
    return damage


def _set_keys(part, keys_at):
    """Damage to a measure file that writes ``keys_at(keys, n_cells * bins)``
    over the first keys of histogram ``part``."""
    def damage(data):
        h = dict(zip(_FIELDS, _HEADER.unpack_from(data, 6)))
        dim, n_cells = h["dim"], h["n_t"] * h["n_x"] ** h["dim"]
        start = 6 + _HEADER.size + 8 * n_cells * (1 + dim + 2 * dim * dim)
        n_bins, n = h["bins_per_axis"] ** dim, h["n_nu"]
        if part == "nu_inf":
            start, n_bins, n = start + 16 * n, h["sphere_bins"], h["n_inf"]
        keys = np.frombuffer(data, "<i8", count=n, offset=start)
        new = np.asarray(keys_at(keys, n_cells * n_bins), dtype="<i8").tobytes()
        return data[:start] + new + data[start + len(new):]
    return damage


def _written(tmp_path, V, name="m.ym"):
    path = tmp_path / name
    write_measure(path, V)
    return path


class TestExport:
    def test_round_trip_keeps_negative_zero(self, tmp_path):
        grid = TorusGrid(2, 16)
        traj = constant_trajectory(grid, (0.5, 0.5), [0.0, 1.0])
        V = dirac_embed(bin_run(traj, make_partition(grid), 2.0))
        lam = V.lam_mass.copy()
        lam[0] = -0.0
        V = replace(V, binning=replace(V.binning, partition=replace(V.partition, t0=-0.0)),
                    lam_mass=lam)
        back = read_measure(_written(tmp_path, V))
        assert np.signbit(back.lam_mass[0]) and np.signbit(back.partition.t0)
        _assert_same_measure(back, V)

    @pytest.mark.parametrize("damage, message", [
        (lambda b: b"DEFLD\x00" + b[6:], "bad magic"),
        (lambda b: b[:6] + (2).to_bytes(2, "little") + b[8:],
         "unsupported measure version 2"),
        (lambda b: b[:6] + (4).to_bytes(2, "little") + b[8:],
         "unsupported measure version 4"),
        (lambda b: b[:20], "header"),
        (lambda b: b[:-8], "truncated measure: expected"),
        (lambda b: b + b"\x00", "trailing bytes"),
    ], ids=["foreign_magic", "wrong_version", "newer_version", "truncated_header",
            "truncated_data", "trailing_bytes"])
    def test_rejects(self, tmp_path, damage, message):
        V = _build("family_2d")
        path = _written(tmp_path, V)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(YoungMeasureError, match=message):
            read_measure(path)

    @pytest.mark.parametrize("damage, message", [
        (_set_header(radius=math.nan), "truncation radius"),
        (_set_header(radius=-1.0), "truncation radius"),
        (_set_header(radius=math.inf), "truncation radius"),
        (_set_header(bins_per_axis=0), "bins_per_axis must be >= 1"),
        (_set_header(sphere_bins=0), "sphere_bins must be >= 1"),
        (_set_header(bins_per_axis=2 ** 32 - 1), "nu keys are not int64"),
        (_set_keys("nu", lambda k, top: k[1:2]), "nu keys are not int64 keys strictly"),
        (_set_keys("nu", lambda k, top: k[1::-1]), "nu keys are not int64 keys strictly"),
        (_set_keys("nu", lambda k, top: [-1]), "nu keys are not int64 keys strictly"),
        (_set_keys("nu", lambda k, top: [top]), "nu keys are not int64 keys strictly"),
        (_set_keys("nu_inf", lambda k, top: [top]), "nu_inf keys are not int64 keys strictly"),
    ], ids=["nan_radius", "negative_radius", "infinite_radius", "no_value_bins",
            "no_sphere_bins", "keys_past_int64", "repeated_key", "decreasing_key",
            "negative_key", "key_past_the_last_bin", "inf_key_past_the_last_bin"])
    def test_rejects_a_corrupt_binning_or_keys(self, tmp_path, damage, message):
        path = _written(tmp_path, _build("family_2d"))
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(YoungMeasureError, match=message):
            read_measure(path)


class TestFamilyEnergyBound:
    def test_slab_energy_below_family_sup(self):
        grid = TorusGrid(2, 16)
        part = make_partition(grid, n_t=2, n_x=4)
        trajs = []
        sups = []
        for amp in (0.4, 0.8):
            u = taylor_green(grid, amp)
            from dissipeuler.spectral import l2_norm_sq as _l2
            sups.append(0.5 * _l2(u))
            trajs.append(field_trajectory(
                grid, lambda t, x, u=u: u.to_physical(), [0.0, 0.5, 1.0]))
        V = estimate_from_family(bin_run(t, part, radius=3.0) for t in trajs)
        for s in range(part.n_t):
            assert energy_of(V, s) <= max(sups) * (1 + 1e-10)


class TestThreeDimensionalMeasures:
    def test_3d_concentration_sphere_bin(self):
        grid = TorusGrid(3, 32)
        part = CellPartition(3, 32, 1, 2, 0.0, 1.0)
        m = 8
        width = grid.n // m
        vals = np.zeros((3,) + grid.shape)
        vals[2, :width, :width, :width] = m  # concentrates along +e3
        traj = Trajectory(np.array([0.0, 1.0]), np.stack([vals] * 2))
        V = estimate_from_family([bin_run(traj, part, radius=2.0, bins_per_axis=8)])
        # lambda_t = m^2 |A| = m^2 (2 pi / m)^3 = (2 pi)^3 / m
        expected = (2 * np.pi) ** 3 / m
        assert V.lam_t(0) == pytest.approx(expected, rel=0.05)
        total_inf = (V.inf_mass * V.lam_mass[:, None]).sum(axis=0)
        top = int(np.argmax(total_inf))
        assert total_inf[top] == pytest.approx(V.lam_total(), rel=1e-12)
        at_top = V.nu_inf.key % V.nu_inf.n_bins == top
        assert np.array_equal(V.nu_inf.cell[at_top], np.flatnonzero(V.lam_mass > 0))
        assert np.allclose(V.lam_second, V.lam_mass[:, None, None] * np.diag([0.0, 0.0, 1.0]))

    def test_3d_pairing_volume(self):
        grid = TorusGrid(3, 16)
        part = CellPartition(3, 16, 2, 2, 0.0, 0.5)
        vals = np.zeros((2, 3) + grid.shape)
        vals[:, 0] = 0.3
        traj = Trajectory(np.array([0.0, 0.5]), vals)
        V = dirac_embed(bin_run(traj, part, 2.0, bins_per_axis=8))
        one3 = TestIntegrand("one", quad=(np.zeros((3, 3)), np.zeros(3), 1.0))
        assert pairing(V, one3) == pytest.approx(total_volume(part), rel=1e-12)
        assert len(quadratic_dictionary(3)) >= 20


# -- oracle: the measure summed sample by sample from the raw samples --------


def _oracle_build(trajectories, partition, radius, bins_per_axis, sphere_bins):
    """Every sample inside the window, with the dense arrays of its measure.

    The bin masses are dense (n_cells, bins) arrays; the moments are block
    sums over each cell's samples.
    """
    binning = Binning(partition, radius, bins_per_axis, sphere_bins)
    dim, n_cells = partition.dim, partition.n_cells
    n_bins = bins_per_axis ** dim
    space_idx = space_cell_index(partition)
    cells, values = [], []
    for traj in trajectories:
        for m in range(len(traj.times)):
            t = float(traj.times[m])
            if partition.t0 - 1e-12 <= t <= partition.t1 + 1e-12:
                cells.append(partition.slab_of(t) * partition.n_space + space_idx)
                values.append(traj.values[m].reshape(dim, -1).T)
    cell, vals = np.concatenate(cells), np.concatenate(values)
    count = np.bincount(cell, minlength=n_cells).astype(float)
    speed = np.sqrt((vals ** 2).sum(axis=1))
    below = speed <= radius
    # an escaped sample counts in nu at the origin, with value 0
    use = np.where(below[:, None], vals, 0.0)
    flat = cell * n_bins + binning.value_bin(use)
    nu_mass = (np.bincount(flat, minlength=n_cells * n_bins).reshape(n_cells, n_bins)
               / count[:, None])

    above = ~below
    weight = speed[above] ** 2 * partition.cell_volume / count[cell[above]]
    lam_mass = np.bincount(cell[above], weights=weight, minlength=n_cells)
    flat = cell[above] * sphere_bins + binning.direction_bin(
        vals[above] / speed[above][:, None])
    inf_w = np.bincount(flat, weights=weight,
                        minlength=n_cells * sphere_bins).reshape(n_cells, sphere_bins)
    inf_mass = np.zeros(inf_w.shape)   # (a bincount of no entries is an integer array)
    np.divide(inf_w, lam_mass[:, None], out=inf_mass, where=(lam_mass > 0)[:, None])

    nu_first = np.zeros((n_cells, dim))
    nu_second = np.zeros((n_cells, dim, dim))
    lam_second = np.zeros((n_cells, dim, dim))
    for c in range(n_cells):
        mine = cell == c
        inside, escaped = use[mine], vals[mine & above]
        nu_first[c] = inside.sum(axis=0) / count[c]
        nu_second[c] = inside.T @ inside / count[c]
        lam_second[c] = escaped.T @ escaped * partition.cell_volume / count[c]
    return {"cell": cell, "vals": vals, "below": below, "count": count,
            "nu_mass": nu_mass, "lam_mass": lam_mass, "inf_mass": inf_mass,
            "nu_first": nu_first, "nu_second": nu_second, "lam_second": lam_second}


def _oracle_pairing(ref, part, f, phi):
    """The sample quadrature of phi [<nu, f> dx dt + <nu_inf, f_inf> dlambda].

    A sample in the ball gives f(u); an escaped one gives f(0) = c from its
    share of nu plus |u|^2 f_inf(u / |u|) = u.A.u from lambda.
    """
    weights = (np.ones(part.n_cells) if phi is None
               else np.asarray(phi(*part.cell_centers()), dtype=float))
    a, b, c = f.quad
    cell, vals = ref["cell"], ref["vals"]
    quad = np.einsum("si,ij,sj->s", vals, a, vals)
    value = np.where(ref["below"], quad + vals @ b + c, c + quad)
    return float(np.sum(weights[cell] * part.cell_volume / ref["count"][cell] * value))


def _random_family(grid, n_traj, times, scale, seed):
    rng = np.random.default_rng(seed)
    return [Trajectory(np.asarray(times, dtype=float),
                       scale * rng.standard_normal(
                           (len(times), grid.dim) + grid.shape))
            for _ in range(n_traj)]


def _escaped_embed_case():
    grid = TorusGrid(2, 16)
    traj = _random_family(grid, 1, [0.0, 0.25, 0.5, 0.75, 1.0], 1.0, 1)[0]
    return [traj], make_partition(grid, n_t=2, n_x=4), 1.5, 8, 16, True


def _family_case(dim):
    def case():
        grid = TorusGrid(dim, 16 if dim == 2 else 8)
        trajs = _random_family(grid, 3, [0.0, 0.5, 1.0], 1.0, dim)
        part = CellPartition(dim, grid.n, 2, 4 if dim == 2 else 2, 0.0, 1.0)
        return trajs, part, 1.8, 8 if dim == 2 else 4, 16, False
    return case


def _pure_concentration_case(dim):
    def case():
        grid = TorusGrid(dim, 16 if dim == 2 else 8)
        (traj,) = _random_family(grid, 1, [0.0, 0.5, 1.0], 0.5, 3)
        vals = traj.values.copy()
        block = (slice(0, 4),) * (dim - 1)   # the first block in all but x1
        vals[(slice(None), 0, slice(0, 4)) + block] = 5.0    # every sample of space cell 0
        vals[(slice(None), 1, slice(4, 6)) + block] = -4.0   # part of space cell 4
        part = CellPartition(dim, grid.n, 2, 4 if dim == 2 else 2, 0.0, 1.0)
        return ([Trajectory(traj.times, vals)], part, 2.0,
                16 if dim == 2 else 4, 8, False)
    return case


def _one_sample_cells_case():
    # the weakstrong partition: a space cell per grid point
    grid = TorusGrid(2, 16)
    trajs = _random_family(grid, 2, [0.0, 0.25, 0.5, 0.75, 1.0], 1.0, 4)
    return trajs, make_partition(grid, n_t=2, n_x=16), 1.5, 8, 16, False


def _signed_zero_case():
    # a field of -0.0 and +0.0: every sum of a cell must start from +0.0
    grid = TorusGrid(2, 16)
    vals = np.zeros((3, 2) + grid.shape)
    vals[:, 0] = -0.0
    vals[1, :, ::2] = -0.0
    traj = Trajectory(np.array([0.0, 0.5, 1.0]), vals)
    return [traj], make_partition(grid, n_t=2, n_x=4), 1.0, 8, 16, True


def _single_space_cell_case(dim):
    # one space cell: its sums run over every sample of a snapshot
    def case():
        grid = TorusGrid(dim, 16 if dim == 2 else 8)
        trajs = _random_family(grid, 2, [0.0, 0.5, 1.0], 1.0, 5 + dim)
        part = CellPartition(dim, grid.n, 2, 1, 0.0, 1.0)
        return trajs, part, 1.8, 8 if dim == 2 else 4, 16, False
    return case


ORACLE_CASES = {
    "dirac_clipped": _escaped_embed_case,
    "family_2d": _family_case(2),
    "family_3d": _family_case(3),
    "pure_concentration": _pure_concentration_case(2),
    "pure_concentration_3d": _pure_concentration_case(3),
    "one_sample_cells": _one_sample_cells_case,
    "signed_zero_field": _signed_zero_case,
    "single_space_cell": _single_space_cell_case(2),
    "single_space_cell_3d": _single_space_cell_case(3),
}


def _build(case, radius=None):
    """The case's measure, at its own radius unless one is given."""
    trajs, part, case_radius, bins, sphere, embed = ORACLE_CASES[case]()
    radius = case_radius if radius is None else radius
    if embed:
        return dirac_embed(bin_run(trajs[0], part, radius, bins, sphere))
    return estimate_from_family(bin_run(t, part, radius, bins, sphere) for t in trajs)


def _build_both(case):
    trajs, part, radius, bins, sphere, _ = ORACLE_CASES[case]()
    return _build(case), _oracle_build(trajs, part, radius, bins, sphere)


def _bincount_build(trajectories, part, radius, bins_per_axis, sphere_bins):
    """The measure as the per-snapshot bincount build made it.

    Every snapshot is reduced and added on its own: a floor-and-clip bin
    index, one bincount over the samples per moment component, and dense
    per-slab tables of the bin counts and the concentration weights.
    """
    from dissipeuler.young import BinEntries, GeneralizedYoungMeasure

    binning = Binning(part, radius, bins_per_axis, sphere_bins)
    dim, n_space, n_cells = part.dim, part.n_space, part.n_cells
    n_bins = bins_per_axis ** dim
    cell = space_cell_index(part)
    space_count = np.bincount(cell, minlength=n_space)
    samples = np.zeros(n_cells)
    first = np.zeros((n_cells, dim))
    second = np.zeros((n_cells, dim, dim))
    escaped_second = np.zeros((n_cells, dim, dim))
    osc = np.zeros((part.n_t, n_space * n_bins))
    conc = np.zeros((part.n_t, n_space * sphere_bins))

    def add_products(out, cells, values):
        for i in range(dim):
            for j in range(i, dim):
                total = np.bincount(cells, weights=values[i] * values[j],
                                    minlength=n_space)
                out[:, i, j] += total
                if i != j:
                    out[:, j, i] += total

    width = 2.0 * radius / bins_per_axis
    for traj in trajectories:
        for t, values in zip(traj.times, traj.values):
            if not part.t0 - 1e-12 <= t <= part.t1 + 1e-12:
                continue
            slab = part.slab_of(float(t))
            in_slab = part.slab_cells(slab)
            vals = values.reshape(dim, -1)
            samples[in_slab] += space_count
            speed = np.sqrt((vals ** 2).sum(axis=0))
            below = speed <= radius
            vb = vals
            if not below.all():
                above = ~below
                sa, va, ca = speed[above], vals[:, above], cell[above]
                keys = ca * sphere_bins + binning.direction_bin((va / sa).T)
                conc[slab] += np.bincount(keys, weights=sa ** 2, minlength=conc.shape[1])
                add_products(escaped_second[in_slab], ca, va)
                vb = np.where(below, vals, 0.0)
            idx = np.clip(np.floor((vb.T + radius) / width).astype(np.int64), 0,
                          bins_per_axis - 1)
            flat = idx[:, 0]
            for axis in range(1, dim):
                flat = flat * bins_per_axis + idx[:, axis]
            osc[slab] += np.bincount(cell * n_bins + flat, minlength=osc.shape[1])
            for i in range(dim):
                first[in_slab, i] += np.bincount(cell, weights=vb[i], minlength=n_space)
            add_products(second[in_slab], cell, vb)

    keys = np.flatnonzero(osc)
    nu = BinEntries(n_bins, keys, osc.ravel()[keys] / samples[keys // n_bins])
    cell_weight = part.cell_volume / samples
    keys = np.flatnonzero(conc)
    conc_cell = keys // sphere_bins
    w = conc.ravel()[keys] * cell_weight[conc_cell]
    lam_mass = np.bincount(conc_cell, weights=w, minlength=n_cells).astype(float)
    nu_inf = BinEntries(sphere_bins, keys, w / lam_mass[conc_cell])
    return GeneralizedYoungMeasure(
        binning=binning, nu=nu, lam_mass=lam_mass, nu_inf=nu_inf,
        nu_first=first / samples[:, None], nu_second=second / samples[:, None, None],
        lam_second=escaped_second * cell_weight[:, None, None])


class TestEntriesMatchDenseOracle:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_entries(self, case):
        V, ref = _build_both(case)
        for entries, prefix in ((V.nu, "nu_"), (V.nu_inf, "inf_")):
            mass = ref[prefix + "mass"].ravel()
            keys = np.flatnonzero(mass)
            assert np.array_equal(entries.key, keys)
            np.testing.assert_allclose(entries.mass, mass[keys], rtol=1e-14, atol=0)
        np.testing.assert_allclose(V.lam_mass, ref["lam_mass"], rtol=1e-14,
                                   atol=0)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_bin_and_apply_keep_the_bits_of_per_snapshot_bincounts(self, case):
        # the bin/apply split, its block-ordered moment sums and its integer
        # counts give every bit of one bincount per snapshot and component
        trajs, part, radius, bins, sphere, _ = ORACLE_CASES[case]()
        _assert_same_measure(_build(case),
                             _bincount_build(trajs, part, radius, bins, sphere))

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_each_snapshot_sums_as_a_bincount(self, case):
        # every increment a run sends is, bit for bit and sign of zero
        # included, the bincount of the snapshot's samples by cell
        trajs, part, radius, bins, sphere, _ = ORACLE_CASES[case]()
        cell = space_cell_index(part)
        for traj in trajs:
            binned = bin_run(traj, part, radius, bins, sphere)
            for (_, first, second, _), values in zip(binned.snapshots, traj.values):
                vals = values.reshape(part.dim, -1)
                vb = np.where(np.sqrt((vals ** 2).sum(axis=0)) <= radius, vals, 0.0)
                for i in range(part.dim):
                    want = np.bincount(cell, weights=vb[i], minlength=part.n_space)
                    assert first[:, i].tobytes() == want.tobytes()
                    for j in range(part.dim):
                        want = np.bincount(cell, weights=vb[i] * vb[j],
                                           minlength=part.n_space)
                        assert second[:, i, j].tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", ["family_2d", "family_3d", "dirac_clipped"])
    def test_a_run_binned_once_applies_anywhere(self, case):
        # a run binned once applies to two accumulators, once through a
        # pickle, as a worker process sends it, with the bits of one
        # bincount per snapshot
        trajs, part, radius, bins, sphere, _ = ORACLE_CASES[case]()
        binning = Binning(part, radius, bins, sphere)
        here, there = (YoungAccumulator(binning) for _ in range(2))
        for traj in trajs:
            binned = bin_run(traj, part, radius, bins, sphere)
            here.apply(binned)
            there.apply(pickle.loads(pickle.dumps(binned)))
        want = _bincount_build(trajs, part, radius, bins, sphere)
        _assert_same_measure(here.measure(), want)
        _assert_same_measure(there.measure(), want)

    def test_apply_rejects_a_run_binned_for_another_measure(self):
        trajs, part, radius, bins, sphere, _ = ORACLE_CASES["family_2d"]()
        binner = YoungBinner(Binning(part, 2.0 * radius, bins, sphere))
        binner.bin(trajs[0].times[0], trajs[0].values[0])
        with pytest.raises(YoungMeasureError, match="another partition"):
            YoungAccumulator(Binning(part, radius, bins, sphere)).apply(binner.payload())

    @pytest.mark.parametrize("bins,sphere", [(0, 32), (-2, 32), (16, 0), (16, -4)])
    def test_bin_counts_below_one_rejected(self, bins, sphere):
        # a count below 1 would divide by zero or build keys of no bin;
        # the binning that every binner and accumulator takes rejects it
        part = CellPartition(2, 16, 1, 4, 0.0, 1.0)
        name = "bins_per_axis" if bins < 1 else "sphere_bins"
        with pytest.raises(YoungMeasureError, match=f"{name} must be >= 1"):
            Binning(part, 1.0, bins, sphere)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_moments(self, case):
        # <nu, xi>, <nu, xi (x) xi> and lambda <nu_inf, theta (x) theta> are
        # the block sums of u, of u (x) u inside the ball and of u (x) u
        # beyond it, over each cell's samples
        V, ref = _build_both(case)
        for name in ("nu_first", "nu_second", "lam_second"):
            np.testing.assert_allclose(getattr(V, name), ref[name], rtol=1e-12,
                                       atol=0, err_msg=name)
        np.testing.assert_allclose(np.trace(V.lam_second, axis1=1, axis2=2),
                                   V.lam_mass, rtol=1e-12, atol=0)

    def test_cases_cover_clipping_concentration_and_empty_cells(self):
        # samples beyond R in a single-trajectory embedding, concentration
        # in 2D and 3D families, and cells whose every sample escaped, so
        # that nu is the Dirac mass at 0 there
        def escaped_only(V):
            return int((np.trace(V.nu_second, axis1=1, axis2=2) == 0).sum())

        assert _build("dirac_clipped").lam_total() > 0
        for case in ("family_2d", "family_3d"):
            V = _build(case)
            assert V.lam_total() > 0 and escaped_only(V) == 0
        for case in ("pure_concentration", "pure_concentration_3d"):
            assert escaped_only(_build(case)) == 2

    @pytest.mark.parametrize("case", ["dirac_clipped", "family_2d", "family_3d"])
    def test_slab_energies_do_not_depend_on_radius(self, case):
        # 0.5 <nu, |xi|^2> + 0.5 lambda is the sampled energy at any R: the
        # case's radius, which samples exceed, and one that none exceeds
        trajs = ORACLE_CASES[case]()[0]
        sup = max(float(np.sqrt((t.values ** 2).sum(axis=1)).max()) for t in trajs)
        escaped, inside = _build(case), _build(case, radius=2.0 * sup)
        assert escaped.lam_total() > 0 and inside.lam_total() == 0.0
        np.testing.assert_allclose(slab_energies(escaped), slab_energies(inside),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_dense_views(self, case):
        V, ref = _build_both(case)
        for name in ("nu_mass", "inf_mass"):
            view = getattr(V, name)
            assert view.shape == ref[name].shape
            assert not view.flags.writeable
            np.testing.assert_allclose(view, ref[name], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_pairing_dictionary(self, case):
        # every pairing is the quadrature over the samples; pairings that
        # vanish exactly (a trig weight against a constant) are rounding
        # noise, and their floor scales with the total volume
        V, ref = _build_both(case)
        floor = 1e-12 * total_volume(V.partition)
        for f, phi, label in quadratic_dictionary(V.dim):
            want = _oracle_pairing(ref, V.partition, f, phi)
            assert pairing(V, f, phi) == pytest.approx(want, rel=1e-12,
                                                       abs=floor), label

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_file_round_trip(self, case, tmp_path):
        # test_entries and test_moments tie the arrays to the oracle; the
        # file keeps every bit
        V, _ = _build_both(case)
        path = _written(tmp_path, V)
        back = read_measure(path)
        _assert_same_measure(back, V)
        assert _written(tmp_path, back, "again.ym").read_bytes() == path.read_bytes()
