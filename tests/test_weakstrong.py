"""Relative energy, stopping times, Gronwall envelope, the ladder audit."""

import os
from dataclasses import replace

import numpy as np
import pytest

from dissipeuler.forcing import WienerPath, default_forcing
from dissipeuler.reporting import all_passed
from dissipeuler.solver import InitialCondition, SolverConfig, initial_state
from dissipeuler.spectral import (
    SpectralError,
    SpectralField,
    TorusGrid,
    band_embed,
    l2_norm_sq,
    single_mode,
    taylor_green,
)
import dissipeuler.solver as solver
import dissipeuler.weakstrong as weakstrong
from dissipeuler.weakstrong import (
    weak_strong_ladder,
    WeakStrongError,
    build_reference,
    gronwall_audit,
    initial_relative_energy,
    ladder_monotone_within_ci,
    relative_energy,
    stopping_time,
)
from dissipeuler.young import Binning, CellPartition, dirac_embed, estimate_from_family

from conftest import (
    Snapshots,
    Trajectory,
    band_field,
    bin_run,
    full_layout_start,
    gradient_physical,
    lone_run,
    resample,
    resampled_relative_energy,
)

# two time slabs of 4 x 4 space cells on a 16^2 grid over [0, 0.25]
SMALL = Binning(CellPartition(2, 16, 2, 4, 0.0, 0.25), 4.0, 16, 32)


def steady_config(grid, amp=1.0, dt=1.0 / 32, horizon=0.25, kind="taylor_green"):
    return SolverConfig(grid=grid, forcing=None, eps=0.0, dt=dt, horizon=horizon,
                        initial=InitialCondition(kind, amplitude=amp))


def observed(cfg, seed, path_id, snapshot_times):
    """The trajectory of a run of ``cfg`` at ``snapshot_times``."""
    snaps = Snapshots(cfg, snapshot_times)
    lone_run(cfg, seed, path_id, observers=(snaps,))
    return snaps.payload()


def steady_run(grid, snapshot_times, amp=1.0, dt=1.0 / 32, horizon=0.25,
               kind="taylor_green"):
    return observed(steady_config(grid, amp, dt, horizon, kind), 1, 0,
                    snapshot_times)


def reduced_reference(cfg, seed, path_id, partition, snapshot_times, weak=None,
                      initial=None):
    """A run of the reference ``cfg`` reduced by the observer
    ``build_reference`` builds for its path, with F(0) against ``weak``
    (``cfg`` if None)."""
    reduction = build_reference(cfg, partition, snapshot_times, weak or cfg)
    path = WienerPath.sample(seed, path_id, cfg.forcing.rank, cfg.dt, cfg.steps)
    observer = reduction(path)
    lone_run(cfg, seed, path_id, path, (observer,), initial)
    return observer.payload()


def steady_reference(grid, partition, snapshot_times, amp=1.0, dt=1.0 / 32,
                     horizon=0.25, kind="taylor_green"):
    """The reference of ``steady_run``, reduced as ``build_reference`` does."""
    return reduced_reference(steady_config(grid, amp, dt, horizon, kind), 1, 0,
                             partition, snapshot_times)


def snapshot_grid(horizon, n_t, per_slab=2, dt=1.0 / 32):
    out = []
    for s in range(n_t):
        lo = s * horizon / n_t
        for frac in np.linspace(0.0, 1.0, per_slab, endpoint=False):
            t = lo + frac * horizon / n_t
            out.append(round(t / dt) * dt)
    return sorted(set(out))


class TestRelativeEnergy:
    def test_self_comparison_within_binning_floor(self):
        grid = TorusGrid(2, 32)
        times = snapshot_grid(0.25, 2)
        traj = steady_run(grid, times)
        part = CellPartition(2, 32, 2, 16, 0.0, 0.25)
        ref = steady_reference(grid, part, times)
        V = dirac_embed(bin_run(traj, part, radius=3.0))
        e = 0.5 * l2_norm_sq(taylor_green(grid))
        for slab in range(part.n_t):
            out = relative_energy(V, ref, slab)
            assert out["measure_form"] >= 0.0
            assert out["measure_form"] <= 0.02 * e

    def test_pure_concentration_against_zero_reference(self):
        grid = TorusGrid(2, 64)
        part = CellPartition(2, 64, 1, 2, 0.0, 1.0)
        vals = np.zeros((2,) + grid.shape)
        vals[0, :8, :8] = 8.0
        traj = Trajectory(np.array([0.0, 1.0]), np.stack([vals] * 2))
        V = estimate_from_family([bin_run(traj, part, radius=2.0)])

        ref = steady_reference(grid, part, [0.0, 0.5, 1.0], dt=0.5, horizon=1.0,
                               kind="zero")
        out = relative_energy(V, ref, 0)
        assert out["measure_form"] == pytest.approx(0.5 * V.lam_t(0))

    def test_two_forms_agree_on_random_inputs(self):
        grid = TorusGrid(2, 32)
        times = snapshot_grid(0.25, 2)
        cfg = SolverConfig(grid=grid, forcing=default_forcing(2, sigma=0.2),
                           eps=0.05, dt=1.0 / 32, horizon=0.25,
                           initial=InitialCondition("random_spectrum",
                                                    amplitude=0.3, k_max=2))
        traj = observed(cfg, 41, 0, times)
        part = CellPartition(2, 32, 2, 16, 0.0, 0.25)
        ref = steady_reference(grid, part, times, amp=0.7)
        V = dirac_embed(bin_run(traj, part, radius=4.0))
        for slab in range(part.n_t):
            out = relative_energy(V, ref, slab)
            scale = max(out["measure_form"], out["expanded_form"])
            assert out["forms_gap"] <= 0.02 * scale

    def test_nonnegative_on_ensemble(self):
        grid = TorusGrid(2, 16)
        times = snapshot_grid(0.25, 2)
        part = CellPartition(2, 16, 2, 8, 0.0, 0.25)
        ref = steady_reference(grid, part, times, amp=0.5)
        for pid in range(5):
            cfg = SolverConfig(grid=grid, forcing=default_forcing(2, 0.3),
                               eps=0.02, dt=1.0 / 32, horizon=0.25,
                               initial=InitialCondition("random_spectrum",
                                                        amplitude=0.4))
            V = dirac_embed(bin_run(observed(cfg, 43, pid, times), part, radius=4.0))
            for slab in range(part.n_t):
                assert relative_energy(V, ref, slab)["measure_form"] >= 0.0

    def test_initial_relative_energy_identical_data(self):
        ic = InitialCondition("random_spectrum", amplitude=0.5, k_max=2)
        coarse, fine = TorusGrid(2, 32), TorusGrid(2, 128)
        u0 = coarse.ops.to_band(ic.sample(coarse, 7, 0).coeffs)
        v0 = fine.ops.to_band(ic.sample(fine, 7, 0).coeffs)
        assert initial_relative_energy(coarse, u0, fine, v0) < 1e-20

    def test_initial_relative_energy_distinct_data(self):
        grid = TorusGrid(2, 32)
        a = taylor_green(grid)
        b = single_mode(grid)
        direct = 0.5 * l2_norm_sq(SpectralField(grid, a.coeffs - b.coeffs))
        bands = [grid.ops.to_band(f.coeffs) for f in (a, b)]
        assert initial_relative_energy(grid, bands[0], grid, bands[1]) == \
            pytest.approx(direct, rel=1e-12)


def start_config(dim, n, kind="random_spectrum", amplitude=0.4):
    return SolverConfig(grid=TorusGrid(dim, n), forcing=None, eps=0.0, dt=1.0 / 32,
                        horizon=0.25, initial=InitialCondition(kind, amplitude, k_max=2))


GRID_PAIRS = [(2, 32, 32), (2, 32, 128), (3, 16, 16), (3, 16, 32)]


class TestInitialRelativeEnergy:
    """F(0) compares the two starts on the band of the finer grid."""

    @pytest.mark.parametrize("dim,n,fine_n", GRID_PAIRS)
    @pytest.mark.parametrize("kinds", [("random_spectrum", "random_spectrum"),
                                       ("taylor_green", "single_mode"),
                                       ("single_mode", "random_spectrum")])
    def test_matches_the_coefficient_transfer_of_full_fields(self, dim, n, fine_n, kinds):
        weak, ref = start_config(dim, n, kinds[0]), start_config(dim, fine_n, kinds[1], 0.7)
        u0, v0 = solver.initial_state(weak, 5, 0), solver.initial_state(ref, 5, 1)
        got = initial_relative_energy(weak.grid, u0, ref.grid, v0)
        want = resampled_relative_energy(full_layout_start(weak, 5, 0),
                                         full_layout_start(ref, 5, 1))
        assert want > 1e-3
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("dim,n,fine_n", GRID_PAIRS)
    def test_identical_draws_give_zero(self, dim, n, fine_n):
        weak, ref = start_config(dim, n), start_config(dim, fine_n)
        got = initial_relative_energy(weak.grid, solver.initial_state(weak, 3, 2),
                                      ref.grid, solver.initial_state(ref, 3, 2))
        assert got == 0.0

    @pytest.mark.parametrize("dim,n,fine_n", GRID_PAIRS)
    def test_embed_is_the_band_of_the_transferred_field(self, dim, n, fine_n):
        weak, ref = start_config(dim, n), start_config(dim, fine_n)
        start = full_layout_start(weak, 2, 0)
        got = band_embed(weak.grid, weak.grid.ops.to_band(start.coeffs), ref.grid)
        want = ref.grid.ops.to_band(resample(start, ref.grid).coeffs)
        assert got.shape == (dim,) + ref.grid.ops.band_shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("grid,fine", [(TorusGrid(2, 32), TorusGrid(2, 16)),
                                           (TorusGrid(2, 16), TorusGrid(3, 16))])
    def test_embed_rejects_a_grid_that_does_not_refine(self, grid, fine):
        band = np.zeros((grid.dim,) + grid.ops.band_shape, dtype=np.complex128)
        with pytest.raises(SpectralError, match="does not refine"):
            band_embed(grid, band, fine)


class TestReference:
    def test_cell_mean_is_slab_mean_of_block_means(self):
        # the reduction is today's slab average, exactly: block means summed
        # over the slab's snapshots in time order, then divided
        grid = TorusGrid(2, 32)
        times = snapshot_grid(0.25, 2, per_slab=3)
        cfg = SolverConfig(grid=grid, forcing=default_forcing(2, sigma=0.2),
                           eps=0.0, dt=1.0 / 32, horizon=0.25,
                           initial=InitialCondition("random_spectrum",
                                                    amplitude=0.3, k_max=2))
        states = []

        class Keep:
            steps = Snapshots(cfg, times).steps

            def on_state(self, n, t, band, phys):
                states.append((t, band_field(grid, band)))

        lone_run(cfg, 61, 0, observers=(Keep(),))
        part = CellPartition(2, 16, 2, 4, 0.0, 0.25)
        ref = reduced_reference(cfg, 61, 0, part, times)
        assert np.array_equal(ref.times, [t for t, _ in states])
        for s in range(part.n_t):
            sel = [m for m, t in enumerate(times) if part.slab_of(t) == s]
            acc = 0.0
            for m in sel:
                acc = acc + part.block_mean(states[m][1].to_physical())
            want = np.moveaxis(acc / len(sel), -1, 0)
            assert np.array_equal(ref.cell_mean[s], want)
            assert ref.slab_energy_sq[s] == np.mean(
                [l2_norm_sq(states[m][1]) for m in sel])

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_grad_sup_is_that_of_the_full_gradient(self, dim, n):
        # ||grad v||_inf is read from the band of grad v by the pruned
        # inverse transform, and keeps the bits of gradient_physical
        cfg = SolverConfig(grid=TorusGrid(dim, n), forcing=default_forcing(dim, 0.2),
                           eps=0.0, dt=1.0 / 32, horizon=0.25,
                           initial=InitialCondition("random_spectrum", 0.5, k_max=2))
        times = snapshot_grid(0.25, 2)
        states = []

        class Keep:
            steps = Snapshots(cfg, times).steps

            def on_state(self, n, t, band, phys):
                states.append(band_field(cfg.grid, band))

        lone_run(cfg, 7, 0, observers=(Keep(),))
        ref = reduced_reference(cfg, 7, 0, CellPartition(dim, n, 2, 4, 0.0, 0.25), times)
        want = [float(np.sqrt((gradient_physical(v) ** 2).sum(axis=(0, 1)).max()))
                for v in states]
        assert ref.grad_sup.tobytes() == np.array(want).tobytes()

    def test_v0_is_the_first_state(self, monkeypatch):
        # F(0) reads v(0) as initial_state: the state the reference starts
        # from, against the weak run's start of the same path
        cfg = SolverConfig(grid=TorusGrid(2, 32), forcing=default_forcing(2, 0.2),
                           eps=0.0, dt=1.0 / 64, horizon=0.25,
                           initial=InitialCondition("random_spectrum", 0.3))
        weak = replace(cfg, grid=TorusGrid(2, 16), eps=0.1, dt=1.0 / 32)
        starts = []
        real_f0 = weakstrong.initial_relative_energy

        def spy(*args):
            starts.append(args)
            return real_f0(*args)
        monkeypatch.setattr(weakstrong, "initial_relative_energy", spy)
        reduced_reference(cfg, 1, 3, CellPartition(2, 16, 2, 4, 0.0, 0.25),
                          snapshot_grid(0.25, 2), weak)
        [(coarse, u0, fine, v0)] = starts
        assert (coarse, fine) == (weak.grid, cfg.grid)
        assert np.array_equal(u0, initial_state(weak, 1, 3))
        assert np.array_equal(v0, initial_state(cfg, 1, 3))

    def test_snapshot_time_off_the_step_grid_rejected(self, monkeypatch):
        # the times map to steps before the run: none is integrated
        def no_run(*args, **kwargs):
            raise AssertionError("integrated before the snapshot check")
        monkeypatch.setattr(solver, "run_path", no_run)
        with pytest.raises(WeakStrongError, match="step grid"):
            reduced_reference(steady_config(TorusGrid(2, 16)), 1, 0,
                              CellPartition(2, 16, 2, 4, 0.0, 0.25),
                              [0.0, 0.1, 0.1875])

    def test_slab_without_snapshot_rejected(self):
        grid = TorusGrid(2, 16)
        with pytest.raises(WeakStrongError, match="no snapshots in slab 1"):
            steady_reference(grid, CellPartition(2, 16, 4, 4, 0.0, 0.25),
                             [0.0, 0.25])

    def test_relative_energy_rejects_other_partition(self):
        grid = TorusGrid(2, 16)
        times = snapshot_grid(0.25, 2)
        traj = steady_run(grid, times)
        ref = steady_reference(grid, CellPartition(2, 16, 2, 4, 0.0, 0.25), times)
        V = dirac_embed(bin_run(traj, CellPartition(2, 16, 2, 8, 0.0, 0.25),
                                radius=3.0))
        with pytest.raises(WeakStrongError, match="another partition"):
            relative_energy(V, ref, 0)


class TestStoppingTime:
    def test_level_above_max_returns_horizon(self):
        grid = TorusGrid(2, 32)
        ref = steady_reference(grid, CellPartition(2, 32, 2, 16, 0.0, 0.25),
                               snapshot_grid(0.25, 2))
        assert stopping_time(ref, ref.grad_sup_max() + 1.0) == 0.25

    def test_tiny_level_stops_immediately(self):
        grid = TorusGrid(2, 32)
        ref = steady_reference(grid, CellPartition(2, 32, 2, 16, 0.0, 0.25),
                               snapshot_grid(0.25, 2))
        assert stopping_time(ref, 1e-9) == ref.times[0]

    def test_rejects_nonpositive_level(self):
        grid = TorusGrid(2, 32)
        ref = steady_reference(grid, CellPartition(2, 32, 2, 16, 0.0, 0.25),
                               [0.0, 0.25])
        with pytest.raises(WeakStrongError):
            stopping_time(ref, 0.0)

    def test_tschebyscheff_bound_monte_carlo(self):
        # P[tau_L < horizon] <= E[sup ||grad v||_inf] / L
        grid = TorusGrid(2, 16)
        times = snapshot_grid(0.25, 2)
        part = CellPartition(2, 16, 2, 8, 0.0, 0.25)
        sups, stops = [], []
        level = 1.1
        for pid in range(48):
            cfg = SolverConfig(grid=grid, forcing=default_forcing(2, 0.3),
                               eps=0.0, dt=1.0 / 32, horizon=0.25,
                               initial=InitialCondition("random_spectrum",
                                                        amplitude=0.25))
            ref = reduced_reference(cfg, 47, pid, part, times)
            sups.append(ref.grad_sup_max())
            stops.append(stopping_time(ref, level) < ref.horizon)
        p_stop = np.mean(stops)
        bound = np.mean(sups) / level
        n = len(stops)
        mc_err = 3.0 / np.sqrt(n)
        assert p_stop <= bound + mc_err


class TestGronwallAudit:
    def test_exact_exponential_zero_margin(self):
        times = np.linspace(0.0, 1.0, 9)
        level = 1.7
        f0 = np.full(4, 0.3)
        f = 0.3 * np.exp(level * times)[None, :].repeat(4, axis=0)
        tau = np.full(4, 1.0)
        rows, rep = gronwall_audit(times, f, f0, tau, level, slack=0.0)
        assert all_passed(rows)
        assert rep["min_margin"] == pytest.approx(0.0, abs=1e-12)

    def test_identical_runs_f_within_binning_floor(self):
        grid = TorusGrid(2, 32)
        times = snapshot_grid(0.25, 2)
        forcing = default_forcing(2, sigma=0.2)
        ic = InitialCondition("random_spectrum", amplitude=0.3, k_max=2)
        cfg = SolverConfig(grid=grid, forcing=forcing, eps=0.0, dt=1.0 / 32,
                           horizon=0.25, initial=ic)
        part = CellPartition(2, 32, 2, 16, 0.0, 0.25)
        _, rep = weak_strong_ladder((0.0,), cfg, 32, 1, seed=53, path_ids=[0],
                                    binning=Binning(part, 4.0, 16, 32),
                                    snapshot_times=times)
        out = rep["per_eps"][0.0]
        assert out["f0"][0] == 0.0
        e0 = lone_run(cfg, 53, 0).trace.energy[0]
        assert np.all(out["f_matrix"][0] <= 0.02 * e0)
        assert np.all(out["f_matrix"][0] >= 0.0)

    def test_monotone_in_level(self):
        times = np.linspace(0.0, 0.5, 5)
        rng = np.random.default_rng(0)
        f = np.abs(rng.standard_normal((6, 5))) * 0.1
        f0 = f[:, 0]
        tau = np.full(6, 0.5)
        passed = []
        for level in (0.5, 1.0, 2.0, 4.0):
            rows, _ = gronwall_audit(times, f, f0, tau, level, slack=0.05)
            passed.append(all_passed(rows))
        for a, b in zip(passed, passed[1:]):
            assert b or not a  # pass never flips to fail as L grows

    def test_stopped_process_freezes(self):
        times = np.array([0.0, 0.25, 0.5, 0.75])
        f = np.array([[0.0, 0.1, 5.0, 9.0]])
        f0 = np.array([0.0])
        tau = np.array([0.25])
        rows, rep = gronwall_audit(times, f, f0, tau, level=1.0, slack=0.2)
        # values after tau are frozen at F(tau), so the blow-up is invisible
        assert rep["sup_mean_F"] == pytest.approx(0.1)
        assert all_passed(rows)


    def test_stopped_before_first_slab_holds_f0_in_both_audits(self):
        # tau = 0 for every path: both audits see F(0), not the later slabs
        slab_times = np.array([0.125, 0.25, 0.375, 0.5])
        tau = np.zeros(2)
        f0 = np.array([0.01, 0.03])
        per_eps = {
            0.1: {"f_matrix": np.array([[0.2, 0.8, 0.5, 0.4],
                                        [0.3, 0.9, 0.6, 0.5]]), "f0": f0},
            0.05: {"f_matrix": np.array([[0.3, 0.9, 0.6, 0.5],
                                         [0.4, 1.0, 0.7, 0.6]]), "f0": f0},
        }
        rows, mono = ladder_monotone_within_ci(per_eps, [0.1, 0.05], tau,
                                               slab_times)
        assert mono["sup_by_eps"] == {0.1: pytest.approx(0.02),
                                      0.05: pytest.approx(0.02)}
        assert all_passed(rows)
        for eps, entry in per_eps.items():
            _, rep = gronwall_audit(slab_times, entry["f_matrix"], f0, tau,
                                 level=1.0, slack=0.0)
            assert rep["sup_mean_F"] == pytest.approx(mono["sup_by_eps"][eps])

    def test_nan_on_last_rung_fails_monotone(self):
        # the first pair drops by 0.1 (value -0.1); a NaN F on the last rung
        # must reach the row rather than be skipped by the maximum
        slab_times = np.array([0.25, 0.5])
        tau = np.ones(2)
        f0 = np.zeros(2)
        per_eps = {
            0.1: {"f_matrix": np.full((2, 2), 0.3), "f0": f0},
            0.05: {"f_matrix": np.full((2, 2), 0.2), "f0": f0},
            0.025: {"f_matrix": np.full((2, 2), np.nan), "f0": f0},
        }
        rows, _ = ladder_monotone_within_ci(per_eps, [0.1, 0.05, 0.025], tau,
                                            slab_times)
        assert np.isnan(rows[0]["value"])
        assert not all_passed(rows)


class TestLadderComparison:
    def test_relative_energy_decreases_with_viscosity(self, monkeypatch):
        # point-level space cells isolate the weak-vs-reference gap from the
        # oscillation floor a coarse partition would add
        f0_calls = []
        real_f0 = weakstrong.initial_relative_energy

        def counting_f0(*args):
            f0_calls.append(args)
            return real_f0(*args)
        monkeypatch.setattr(weakstrong, "initial_relative_energy", counting_f0)
        grid = TorusGrid(2, 16)
        horizon = 0.5
        times = snapshot_grid(horizon, 4, dt=1.0 / 32)
        forcing = default_forcing(2, sigma=0.1)
        ic = InitialCondition("random_spectrum", amplitude=0.2, k_max=2,
                              decay=3.0)
        part = CellPartition(2, 16, 4, 16, 0.0, horizon)
        weak = SolverConfig(grid=grid, forcing=forcing, eps=0.2, dt=1.0 / 32,
                            horizon=horizon, initial=ic)
        rows, rep = weak_strong_ladder((0.2, 0.05, 0.0125), weak, 32, 2, seed=59,
                                       path_ids=range(4),
                                       binning=Binning(part, 4.0, 16, 32),
                                       snapshot_times=times, slack=0.05)
        sup = rep["monotone"]["sup_by_eps"]
        assert sup[0.2] > sup[0.05]
        # the monotone-ladder row and one Gronwall envelope row per eps
        gronwall = [r for r in rows if r["module"] == "weak_strong.gronwall_audit"]
        assert len(gronwall) == 4
        assert all_passed(gronwall)
        for eps in (0.2, 0.05, 0.0125):
            assert np.all(rep["per_eps"][eps]["f0"] == 0.0)
        assert len(f0_calls) == 4  # once per path: u(0) does not depend on eps

    def test_setup_validation(self, monkeypatch):
        weak = SolverConfig(grid=TorusGrid(2, 16), forcing=None, eps=0.1,
                            dt=1.0 / 32, horizon=0.25,
                            initial=InitialCondition("zero"))
        part = CellPartition(2, 16, 2, 4, 0.0, 0.25)
        times = snapshot_grid(0.25, 2)

        def ladder(ref_n, dt_factor):
            return weak_strong_ladder((0.1,), weak, ref_n, dt_factor,
                                      seed=1, path_ids=[0],
                                      binning=Binning(part, 4.0, 16, 32),
                                      snapshot_times=times, level=1.0)

        runs = []
        real_run_path = solver.run_path

        def counting_run_path(*args, **kwargs):
            runs.append(args)
            return real_run_path(*args, **kwargs)
        monkeypatch.setattr(solver, "run_path", counting_run_path)
        for ref_n, dt_factor, match in [(32, 3, "power of two"),
                                        (32, 0, "power of two"),
                                        (8, 2, "refine the weak grid")]:
            with pytest.raises(WeakStrongError, match=match):
                ladder(ref_n, dt_factor)
        assert runs == []  # rejected before any integration
        ladder(16, 2)  # same grid ok
        assert len(runs) == 2

    @pytest.mark.parametrize("eps_values", [
        (), (0.05, 0.1), (0.1, 0.1), (0.1, 0.05, 0.05)])
    def test_ladder_not_strictly_decreasing_rejected(self, monkeypatch,
                                                     eps_values):
        def no_run(*args, **kwargs):
            raise AssertionError("integrated before the ladder check")
        monkeypatch.setattr(solver, "run_path", no_run)
        weak = SolverConfig(grid=TorusGrid(2, 16), forcing=None, eps=0.1,
                            dt=1.0 / 32, horizon=0.25,
                            initial=InitialCondition("zero"))
        with pytest.raises(WeakStrongError, match="strictly decreasing"):
            weak_strong_ladder(eps_values, weak, 32, 2, seed=1, path_ids=[0],
                               binning=SMALL, snapshot_times=snapshot_grid(0.25, 2))

    def test_one_reference_run_per_path(self, monkeypatch):
        # the reference is the weak run refined: grid ref_n, eps 0, dt / factor,
        # on the Brownian-bridge refinement of the path the rungs run on; its
        # observers are built by one build_reference, and every path's
        # reference runs first
        builds, runs = [], []
        real_build, real_run_path = weakstrong.build_reference, solver.run_path

        def spy_build(cfg, partition, snapshot_times, weak):
            builds.append((cfg, weak))
            return real_build(cfg, partition, snapshot_times, weak)

        def spy_run(cfg, path, *args, **kwargs):
            runs.append((path.path_id, cfg, path))
            return real_run_path(cfg, path, *args, **kwargs)
        monkeypatch.setattr(weakstrong, "build_reference", spy_build)
        monkeypatch.setattr(solver, "run_path", spy_run)
        ic = InitialCondition("random_spectrum", amplitude=0.3, k_max=2)
        weak = SolverConfig(grid=TorusGrid(2, 16), forcing=default_forcing(2, 0.2),
                            eps=0.1, dt=1.0 / 32, horizon=0.25, initial=ic)
        ref = SolverConfig(grid=TorusGrid(2, 32), forcing=default_forcing(2, 0.2),
                           eps=0.0, dt=1.0 / 64, horizon=0.25, initial=ic)
        weak_strong_ladder((0.1, 0.05), weak, 32, 2, seed=1, path_ids=[0, 1, 2],
                           binning=SMALL, snapshot_times=snapshot_grid(0.25, 2))
        assert builds == [(ref, weak)]
        assert [(pid, cfg) for pid, cfg, _ in runs] == \
            [(0, ref), (1, ref), (2, ref)] + [(p, weak.with_eps(eps))
                                              for eps in (0.1, 0.05) for p in range(3)]
        for pid, cfg, path in runs:
            drawn = WienerPath.sample(1, pid, 4, weak.dt, weak.steps)
            want = drawn.refined(2) if cfg == ref else drawn
            assert (path.dt, path.level) == (cfg.dt, want.level)
            assert path.increments.tobytes() == want.increments.tobytes()

    def test_initial_states_drawn_once_per_grid(self, monkeypatch):
        # each reference start is drawn once, by run_ensemble; F(0) draws the
        # weak start once more, within the reference's run; run_ensemble
        # draws the weak start once for every rung; the ladder itself draws
        # none
        draws, running = [], []
        real_initial_state, real_run_path = solver.initial_state, solver.run_path

        def counted(where):
            def draw(cfg, seed, path_id):
                draws.append((where, cfg.grid.n, path_id, tuple(running)))
                return real_initial_state(cfg, seed, path_id)
            return draw

        def tracked(cfg, *args, **kwargs):
            running.append(cfg.grid.n)
            try:
                return real_run_path(cfg, *args, **kwargs)
            finally:
                running.pop()
        monkeypatch.setattr(solver, "initial_state", counted("solver"))
        monkeypatch.setattr(weakstrong, "initial_state", counted("weakstrong"))
        monkeypatch.setattr(solver, "run_path", tracked)
        ic = InitialCondition("random_spectrum", amplitude=0.3, k_max=2)
        weak = SolverConfig(grid=TorusGrid(2, 16), forcing=default_forcing(2, 0.2),
                            eps=0.1, dt=1.0 / 32, horizon=0.25, initial=ic)
        ref = SolverConfig(grid=TorusGrid(2, 32), forcing=default_forcing(2, 0.2),
                           eps=0.0, dt=1.0 / 64, horizon=0.25, initial=ic)
        part = CellPartition(2, 16, 2, 4, 0.0, 0.25)
        times = snapshot_grid(0.25, 2)
        _, rep = weak_strong_ladder((0.1, 0.05), weak, 32, 2, seed=1,
                                    path_ids=[0, 1], binning=Binning(part, 4.0, 16, 32),
                                    snapshot_times=times)
        assert draws == [("solver", 32, 0, ()), ("weakstrong", 16, 0, (32,)),
                         ("solver", 32, 1, ()), ("weakstrong", 16, 1, (32,)),
                         ("solver", 16, 0, ()), ("solver", 16, 1, ())]
        monkeypatch.setattr(solver, "initial_state", real_initial_state)
        monkeypatch.setattr(weakstrong, "initial_state", real_initial_state)
        monkeypatch.setattr(solver, "run_path", real_run_path)
        # F(0) and the reference keep the bits of their own draws
        for p, pid in enumerate([0, 1]):
            v0 = initial_state(ref, 1, pid)
            want = initial_relative_energy(weak.grid, initial_state(weak, 1, pid),
                                           ref.grid, v0)
            assert rep["per_eps"][0.1]["f0"][p] == want
            shared = reduced_reference(ref, 1, pid, part, times, weak, initial=v0)
            drawn = reduced_reference(ref, 1, pid, part, times, weak)
            assert shared.cell_mean.tobytes() == drawn.cell_mean.tobytes()
            assert shared.grad_sup.tobytes() == drawn.grad_sup.tobytes()

    def test_parent_runs_only_its_share_of_the_references(self, two_cores, forks,
                                                          monkeypatch):
        # on two processes path i's reference runs in process i mod 2, so
        # this one integrates the references of paths 0 and 2 only, and the
        # audit keeps every bit of one process
        runs, real_run_path = [], solver.run_path

        def spy(cfg, path, *args, **kwargs):
            runs.append((cfg.grid.n, path.path_id))
            return real_run_path(cfg, path, *args, **kwargs)
        monkeypatch.setattr(solver, "run_path", spy)
        ic = InitialCondition("random_spectrum", amplitude=0.3, k_max=2)
        weak = SolverConfig(grid=TorusGrid(2, 16), forcing=default_forcing(2, 0.2),
                            eps=0.1, dt=1.0 / 32, horizon=0.25, initial=ic)

        def ladder(processes):
            runs.clear()
            return weak_strong_ladder((0.1, 0.05), weak, 32, 2, seed=1,
                                      path_ids=range(4),
                                      binning=SMALL, snapshot_times=snapshot_grid(0.25, 2),
                                      processes=processes)
        rows1, rep1 = ladder(1)
        assert [pid for n, pid in runs if n == 32] == [0, 1, 2, 3]
        rows2, rep2 = ladder(2)
        assert [pid for n, pid in runs if n == 32] == [0, 2]
        assert len(forks) == 1
        assert rows2 == rows1
        for eps in (0.1, 0.05):
            for key in ("f_matrix", "f0"):
                assert rep2["per_eps"][eps][key].tobytes() == \
                    rep1["per_eps"][eps][key].tobytes()
        assert rep2["stopping_times"].tobytes() == rep1["stopping_times"].tobytes()
        with pytest.raises(ChildProcessError):   # the worker has been reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("times, match", [
        ([0.0, 0.125, 0.28125], r"steps 0\.\.8"),   # past the horizon
        ([0.0, 0.0625, 0.09375], r"slabs \[1\] hold no snapshot"),
        ([0.0, 0.1, 0.1875], "step grid"),
    ])
    def test_snapshot_times_checked_before_integration(self, monkeypatch,
                                                       times, match):
        # F reads every slab's snapshots
        ic = InitialCondition("random_spectrum", amplitude=0.3, k_max=2)
        weak = SolverConfig(grid=TorusGrid(2, 16), forcing=default_forcing(2, 0.2),
                            eps=0.1, dt=1.0 / 32, horizon=0.25, initial=ic)
        part = CellPartition(2, 16, 2, 4, 0.0, 0.25)

        def no_run(*args, **kwargs):
            raise AssertionError("integrated before the snapshot check")
        monkeypatch.setattr(solver, "run_path", no_run)
        with pytest.raises(WeakStrongError, match=match):
            weak_strong_ladder((0.1,), weak, 32, 2, seed=1, path_ids=[0],
                               binning=Binning(part, 4.0, 16, 32), snapshot_times=times)
