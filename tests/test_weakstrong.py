"""Relative energy, stopping times, Gronwall envelope, the ladder audit."""

import numpy as np
import pytest

from dissipeuler.forcing import default_forcing
from dissipeuler.reporting import all_passed
from dissipeuler.solver import InitialCondition, SolverConfig, Trajectory, run_path
from dissipeuler.spectral import TorusGrid, l2_norm_sq, single_mode, taylor_green
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
from dissipeuler.young import CellPartition, dirac_embed, estimate_from_family


def steady_run(grid, amp=1.0, dt=1.0 / 32, horizon=0.25, snapshot_times=None,
               kind="taylor_green"):
    cfg = SolverConfig(grid=grid, forcing=None, eps=0.0, dt=dt, horizon=horizon,
                       initial=InitialCondition(kind, amplitude=amp))
    return run_path(cfg, 1, 0, snapshot_times=snapshot_times)


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
        run = steady_run(grid, snapshot_times=times)
        ref = build_reference(run)
        part = CellPartition(2, 32, 2, 16, 0.0, 0.25)
        V = dirac_embed(run.trajectory(), part, radius=3.0)
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
        traj = Trajectory(grid, np.array([0.0, 1.0]), np.stack([vals] * 2))
        V = estimate_from_family([traj], part, radius=2.0)

        zero_run = steady_run(grid, dt=0.5, horizon=1.0, kind="zero",
                              snapshot_times=[0.0, 0.5, 1.0])
        ref = build_reference(zero_run)
        out = relative_energy(V, ref, 0)
        assert out["measure_form"] == pytest.approx(0.5 * V.lam_t(0))

    def test_two_forms_agree_on_random_inputs(self):
        grid = TorusGrid(2, 32)
        times = snapshot_grid(0.25, 2)
        cfg = SolverConfig(grid=grid, forcing=default_forcing(2, sigma=0.2),
                           eps=0.05, dt=1.0 / 32, horizon=0.25,
                           initial=InitialCondition("random_spectrum",
                                                    amplitude=0.3, k_max=2))
        run = run_path(cfg, 41, 0, snapshot_times=times)
        ref_run = steady_run(grid, amp=0.7, snapshot_times=times)
        ref = build_reference(ref_run)
        part = CellPartition(2, 32, 2, 16, 0.0, 0.25)
        V = dirac_embed(run.trajectory(), part, radius=4.0)
        for slab in range(part.n_t):
            out = relative_energy(V, ref, slab)
            scale = max(out["measure_form"], out["expanded_form"])
            assert out["forms_gap"] <= 0.02 * scale

    def test_nonnegative_on_ensemble(self):
        grid = TorusGrid(2, 16)
        times = snapshot_grid(0.25, 2)
        ref = build_reference(steady_run(grid, amp=0.5, snapshot_times=times))
        part = CellPartition(2, 16, 2, 8, 0.0, 0.25)
        for pid in range(5):
            cfg = SolverConfig(grid=grid, forcing=default_forcing(2, 0.3),
                               eps=0.02, dt=1.0 / 32, horizon=0.25,
                               initial=InitialCondition("random_spectrum",
                                                        amplitude=0.4))
            run = run_path(cfg, 43, pid, snapshot_times=times)
            V = dirac_embed(run.trajectory(), part, radius=4.0)
            for slab in range(part.n_t):
                assert relative_energy(V, ref, slab)["measure_form"] >= 0.0

    def test_initial_relative_energy_identical_data(self):
        ic = InitialCondition("random_spectrum", amplitude=0.5, k_max=2)
        u0 = ic.sample(TorusGrid(2, 32), 7, 0)
        v0 = ic.sample(TorusGrid(2, 128), 7, 0)
        assert initial_relative_energy(u0, v0) < 1e-20

    def test_initial_relative_energy_distinct_data(self):
        grid = TorusGrid(2, 32)
        a = taylor_green(grid)
        b = single_mode(grid)
        direct = 0.5 * l2_norm_sq(a - b)
        assert initial_relative_energy(a, b) == pytest.approx(direct, rel=1e-12)


class TestStoppingTime:
    def test_level_above_max_returns_horizon(self):
        grid = TorusGrid(2, 32)
        run = steady_run(grid, snapshot_times=snapshot_grid(0.25, 2))
        ref = build_reference(run)
        assert stopping_time(ref, ref.grad_sup_max() + 1.0) == 0.25

    def test_tiny_level_stops_immediately(self):
        grid = TorusGrid(2, 32)
        run = steady_run(grid, snapshot_times=snapshot_grid(0.25, 2))
        ref = build_reference(run)
        assert stopping_time(ref, 1e-9) == ref.traj.times[0]

    def test_rejects_nonpositive_level(self):
        grid = TorusGrid(2, 32)
        ref = build_reference(steady_run(grid, snapshot_times=[0.0, 0.25]))
        with pytest.raises(WeakStrongError):
            stopping_time(ref, 0.0)

    def test_tschebyscheff_bound_monte_carlo(self):
        # P[tau_L < horizon] <= E[sup ||grad v||_inf] / L
        grid = TorusGrid(2, 16)
        times = snapshot_grid(0.25, 2)
        sups, stops = [], []
        level = 1.1
        for pid in range(48):
            cfg = SolverConfig(grid=grid, forcing=default_forcing(2, 0.3),
                               eps=0.0, dt=1.0 / 32, horizon=0.25,
                               initial=InitialCondition("random_spectrum",
                                                        amplitude=0.25))
            ref = build_reference(run_path(cfg, 47, pid, snapshot_times=times))
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
        _, rep = weak_strong_ladder((0.0,), cfg, cfg, seed=53, path_ids=[0],
                                 partition=part, radius=4.0,
                                 snapshot_times=times)
        out = rep["per_eps"][0.0]
        assert out["f0"][0] == 0.0
        e0 = run_path(cfg, 53, 0, snapshot_times=[]).trace.energy[0]
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
    def test_relative_energy_decreases_with_viscosity(self):
        # point-level space cells isolate the weak-vs-reference gap from the
        # oscillation floor a coarse partition would add
        grid = TorusGrid(2, 16)
        fine = TorusGrid(2, 32)
        horizon = 0.5
        times = snapshot_grid(horizon, 4, dt=1.0 / 32)
        forcing = default_forcing(2, sigma=0.1)
        ic = InitialCondition("random_spectrum", amplitude=0.2, k_max=2,
                              decay=3.0)
        part = CellPartition(2, 16, 4, 16, 0.0, horizon)
        weak = SolverConfig(grid=grid, forcing=forcing, eps=0.2, dt=1.0 / 32,
                            horizon=horizon, initial=ic)
        ref = SolverConfig(grid=fine, forcing=forcing, eps=0.0, dt=1.0 / 64,
                           horizon=horizon, initial=ic)
        rows, rep = weak_strong_ladder((0.2, 0.05, 0.0125), weak, ref, seed=59,
                                       path_ids=range(4), partition=part,
                                       radius=4.0, snapshot_times=times,
                                       slack=0.05)
        sup = rep["monotone"]["sup_by_eps"]
        assert sup[0.2] > sup[0.05]
        # the monotone-ladder row and one Gronwall envelope row per eps
        gronwall = [r for r in rows if r["module"] == "weak_strong.gronwall_audit"]
        assert len(gronwall) == 4
        assert all_passed(gronwall)
        for eps in (0.2, 0.05, 0.0125):
            assert np.all(rep["per_eps"][eps]["f0"] == 0.0)

    def test_setup_validation(self, monkeypatch):
        grid = TorusGrid(2, 16)
        fine = TorusGrid(2, 32)
        ic = InitialCondition("zero")
        weak = SolverConfig(grid=grid, forcing=None, eps=0.1, dt=1.0 / 32,
                            horizon=0.25, initial=ic)
        part = CellPartition(2, 16, 2, 4, 0.0, 0.25)
        times = snapshot_grid(0.25, 2)

        def ladder(reference):
            return weak_strong_ladder((0.1,), weak, reference, seed=1,
                                      path_ids=[0], partition=part,
                                      radius=4.0, snapshot_times=times,
                                      level=1.0)

        runs = []
        real_run_path = weakstrong.run_path

        def counting_run_path(*args, **kwargs):
            runs.append(args)
            return real_run_path(*args, **kwargs)
        monkeypatch.setattr(weakstrong, "run_path", counting_run_path)
        bad = [SolverConfig(grid=fine, forcing=None, eps=0.0, dt=dt,
                            horizon=0.25, initial=ic)
               for dt in (1.0 / 48, 3.0 / 32, 1.0 / 96)]
        bad.append(SolverConfig(grid=TorusGrid(2, 8), forcing=None, eps=0.0,
                                dt=1.0 / 64, horizon=0.25, initial=ic))
        for reference in bad:
            with pytest.raises(WeakStrongError):
                ladder(reference)
        assert runs == []  # rejected before any integration
        same_grid = SolverConfig(grid=TorusGrid(2, 16), forcing=None, eps=0.0,
                                 dt=1.0 / 64, horizon=0.25, initial=ic)
        ladder(same_grid)  # same grid ok
        assert len(runs) == 2
