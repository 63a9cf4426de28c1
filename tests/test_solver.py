"""Stepper, energy trace, audit defects, and a priori moment monitor."""

from dataclasses import replace

import numpy as np
import pytest

from dissipeuler.forcing import (
    ForcingMode,
    ForcingOperator,
    WienerPath,
    default_forcing,
)
from dissipeuler.reporting import all_passed, row_passes
from dissipeuler.solver import (
    BlowUpError,
    CflError,
    InitialCondition,
    SolverConfig,
    SolverError,
    apriori_moment_report,
    run_path,
    step,
)
from dissipeuler.spectral import (
    SpectralField,
    TorusGrid,
    divergence_defect,
    inner_product,
    kinetic_energy,
    l2_norm_sq,
    single_mode,
)

from conftest import random_divfree_field


def make_config(grid=None, eps=0.0, dt=1.0 / 64, horizon=0.25, forcing=None,
                initial=None, **kw):
    grid = grid or TorusGrid(2, 32)
    initial = initial or InitialCondition("taylor_green")
    return SolverConfig(grid=grid, forcing=forcing, eps=eps, dt=dt,
                        horizon=horizon, initial=initial, **kw)


class TestStep:
    def test_zero_stays_zero(self):
        cfg = make_config(initial=InitialCondition("zero"))
        u = SpectralField.zero(cfg.grid)
        for _ in range(5):
            u, _ = step(u, None, cfg)
        assert np.max(np.abs(u.coeffs)) == 0.0

    def test_single_mode_exact_heat_decay(self):
        # (sin x2, 0) is steady for Euler, so the viscous factor acts alone:
        # the amplitude decays exactly like exp(-eps t)
        eps, dt, steps = 0.3, 1.0 / 32, 48
        cfg = make_config(eps=eps, dt=dt, horizon=steps * dt,
                          initial=InitialCondition("single_mode"))
        u = single_mode(cfg.grid)
        e0 = kinetic_energy(u)
        for _ in range(steps):
            u, _ = step(u, None, cfg)
        t = steps * dt
        expected = e0 * np.exp(-2.0 * eps * t)
        assert kinetic_energy(u) == pytest.approx(expected, rel=1e-8)

    def test_taylor_green_steady_energy(self):
        cfg = make_config(eps=0.0)
        run = run_path(cfg, seed=1, path_id=0, snapshot_times=[])
        drift = np.abs(run.trace.energy - run.trace.energy[0])
        assert np.max(drift) < 1e-10

    def test_inviscid_energy_drift_first_order(self):
        # explicit transport injects O(dt) energy per unit time
        grid = TorusGrid(2, 32)
        rng = np.random.default_rng(2)
        u0 = random_divfree_field(grid, rng)
        errors = []
        for dt in (1.0 / 32, 1.0 / 64, 1.0 / 128):
            cfg = make_config(grid=grid, dt=dt, horizon=0.25)
            u = u0
            for _ in range(cfg.steps):
                u, _ = step(u, None, cfg)
            errors.append(abs(kinetic_energy(u) - kinetic_energy(u0)))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 0.9)

    def test_divergence_free_every_step(self):
        cfg = make_config(eps=0.01, forcing=default_forcing(2))
        path = WienerPath.sample(5, 0, cfg.rank, cfg.dt, cfg.steps)
        u = cfg.initial.sample(cfg.grid, 5, 0)
        for n in range(cfg.steps):
            u, _ = step(u, path.increments[n], cfg)
            assert divergence_defect(u) < 1e-12

    def test_blowup_raises(self):
        cfg = make_config(blowup_ceiling=0.5)
        with pytest.raises(BlowUpError) as err:
            run_path(cfg, seed=1, path_id=0, snapshot_times=[])
        assert err.value.sup > 0.5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_state_is_a_blowup(self):
        # amplitude 1e308 * |k|^2 overflows: the initial state is NaN, whose
        # sup fails every comparison with the ceiling
        cfg = make_config(grid=TorusGrid(2, 16), initial=InitialCondition(
            "random_spectrum", amplitude=1e308, k_max=2, decay=-2.0))
        with pytest.raises(BlowUpError) as err:
            run_path(cfg, seed=1, path_id=0, snapshot_times=[])
        assert np.isnan(err.value.sup)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_state_without_transport_is_a_blowup(self):
        # no transport, so no sup to test: the non-finite energy names the
        # blow-up, and the partial trace ends at the state that lost it
        cfg = make_config(grid=TorusGrid(2, 16), transport=False,
                          initial=InitialCondition("random_spectrum",
                                                   amplitude=1e308, k_max=2,
                                                   decay=-2.0))
        with pytest.raises(BlowUpError) as err:
            run_path(cfg, seed=1, path_id=0, snapshot_times=[])
        assert err.value.sup is None and err.value.time == 0.0
        assert str(err.value).startswith("non-finite energy")
        assert len(err.value.partial.times) == 1
        assert not np.isfinite(err.value.partial.energy[-1])

    def test_cfl_guard(self):
        cfg = make_config(dt=0.5, horizon=1.0)
        with pytest.raises(CflError):
            run_path(cfg, seed=1, path_id=0, snapshot_times=[])


class TestRunPath:
    def test_zero_horizon_single_entry(self):
        cfg = make_config(horizon=0.0)
        run = run_path(cfg, seed=1, path_id=0)
        assert len(run.trace.times) == 1
        u0 = cfg.initial.sample(cfg.grid, 1, 0)
        assert run.trace.energy[0] == pytest.approx(kinetic_energy(u0), rel=1e-12)

    def test_viscous_unforced_energy_monotone(self):
        cfg = make_config(eps=0.05)
        run = run_path(cfg, seed=1, path_id=0, snapshot_times=[])
        diffs = np.diff(run.trace.energy)
        assert np.all(diffs <= 1e-10)

    def test_deterministic_given_keys(self):
        cfg = make_config(eps=0.02, forcing=default_forcing(2),
                          initial=InitialCondition("random_spectrum", amplitude=0.4))
        a = run_path(cfg, seed=9, path_id=3, snapshot_times=[])
        b = run_path(cfg, seed=9, path_id=3, snapshot_times=[])
        assert np.array_equal(a.final.coeffs, b.final.coeffs)
        assert np.array_equal(a.trace.stochastic, b.trace.stochastic)

    def test_shared_path_across_viscosities(self):
        # the noise path is a function of (seed, path_id) only, never of eps
        forcing = default_forcing(2)
        cfg = make_config(forcing=forcing)
        p1 = WienerPath.sample(7, 1, forcing.rank, cfg.dt, cfg.steps)
        p2 = WienerPath.sample(7, 1, forcing.rank, cfg.dt, cfg.steps)
        assert np.array_equal(p1.increments, p2.increments)
        r1 = run_path(cfg.with_eps(0.1), 7, 1, path=p1, snapshot_times=[])
        r2 = run_path(cfg.with_eps(0.0125), 7, 1, path=p2, snapshot_times=[])
        assert not np.array_equal(r1.final.coeffs, r2.final.coeffs)

    def test_snapshots_at_requested_times(self):
        cfg = make_config()
        run = run_path(cfg, 1, 0, snapshot_times=[0.0, 0.125, 0.25])
        assert list(run.snapshot_times) == [0.0, 0.125, 0.25]
        assert len(run.snapshots) == 3

    def test_rejects_off_grid_snapshot(self):
        cfg = make_config()
        with pytest.raises(SolverError):
            run_path(cfg, 1, 0, snapshot_times=[0.1234])


class TestItoPairing:
    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_step_pairing_is_the_sum_over_modes(self, dim, n):
        # per step, M gains sum_k sigma_k <u, g_k> dW_k; the modes have a
        # last wavevector component 0, > 0 and < 0
        if dim == 2:
            modes = (ForcingMode((1, 0), (0.0, 1.0), 0.4, "cos"),
                     ForcingMode((1, 2), (2.0, -1.0), 0.3, "sin"),
                     ForcingMode((2, -1), (1.0, 2.0), 0.2, "cos"))
        else:
            modes = (ForcingMode((1, 1, 0), (0.0, 0.0, 1.0), 0.4, "sin"),
                     ForcingMode((0, 1, 2), (1.0, 0.0, 0.0), 0.3, "cos"),
                     ForcingMode((1, 0, -2), (2.0, 0.0, 1.0), 0.2, "sin"))
        forcing = ForcingOperator(modes)
        cfg = make_config(grid=TorusGrid(dim, n), eps=0.05, dt=1.0 / 32,
                          horizon=0.25, forcing=forcing,
                          initial=InitialCondition("random_spectrum", 0.5))

        states = []

        class Keep:
            def on_state(self, n, t, u):
                states.append(u)

        run = run_path(cfg, 3, 1, snapshot_times=[], observers=(Keep(),))
        path = WienerPath.sample(3, 1, forcing.rank, cfg.dt, cfg.steps)
        g = [m.sigma * forcing.mode_field(cfg.grid, k)
             for k, m in enumerate(modes)]
        got = np.diff(run.trace.stochastic)
        want = [sum(inner_product(u, g[k]) * path.increments[i, k]
                    for k in range(forcing.rank))
                for i, u in enumerate(states[:-1])]
        assert np.all(got != 0.0)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


class TestEnergyAudit:
    def test_zero_solution_zero_defect(self):
        cfg = make_config(initial=InitialCondition("zero"), horizon=0.25)
        run = run_path(cfg, 1, 0, snapshot_times=[])
        assert run.trace.defect(0.0, 0.25) == 0.0
        assert run.trace.max_positive_defect() == 0.0

    def test_nan_energy_fails_defect_row(self):
        cfg = make_config(eps=0.05, horizon=0.25)
        run = run_path(cfg, 1, 0, snapshot_times=[])
        energy = run.trace.energy.copy()
        energy[len(energy) // 2] = np.nan
        trace = replace(run.trace, energy=energy)
        value = trace.max_positive_defect()
        assert np.isnan(value)
        assert not row_passes(value, trace.tolerance(c=1.0))

    def test_decaying_mode_defect_first_order(self):
        # left-point quadrature of the dissipation leaves an O(dt) defect
        defects = []
        for dt in (1.0 / 32, 1.0 / 64, 1.0 / 128):
            cfg = make_config(eps=0.3, dt=dt, horizon=0.5,
                              initial=InitialCondition("single_mode"))
            run = run_path(cfg, 1, 0, snapshot_times=[])
            defects.append(abs(run.trace.defect(0.0, 0.5)))
        orders = np.log2(np.array(defects[:-1]) / np.array(defects[1:]))
        assert np.all(orders >= 0.9)

    def test_stochastic_defect_shrinks_under_dt_halving(self):
        # E[max defect] decreases with observed order >= 0.5 on shared
        # (Brownian-bridge refined) paths
        grid = TorusGrid(2, 16)
        forcing = default_forcing(2, sigma=0.1)
        initial = InitialCondition("random_spectrum", amplitude=0.35, k_max=3)
        n_paths = 8
        levels = []
        base_dt = 1.0 / 32
        for lev in range(3):
            dt = base_dt / 2 ** lev
            cfg = make_config(grid=grid, eps=0.05, dt=dt, horizon=0.5,
                              forcing=forcing, initial=initial)
            vals = []
            for pid in range(n_paths):
                path = WienerPath.sample(21, pid, forcing.rank, base_dt,
                                         int(round(0.5 / base_dt))).refined(2 ** lev)
                run = run_path(cfg, 21, pid, path=path, snapshot_times=[])
                vals.append(run.trace.max_positive_defect())
            levels.append(np.mean(vals))
        orders = np.log2(np.array(levels[:-1]) / np.array(levels[1:]))
        assert np.mean(orders) >= 0.5
        # every path honours the sqrt(dt) tolerance at the base level
        cfg = make_config(grid=grid, eps=0.05, dt=base_dt, horizon=0.5,
                          forcing=forcing, initial=initial)
        run = run_path(cfg, 21, 0, snapshot_times=[])
        assert run.trace.max_positive_defect() <= run.trace.tolerance(c=1.0)

    def test_defect_requires_ordered_grid_times(self):
        cfg = make_config(horizon=0.25)
        run = run_path(cfg, 1, 0, snapshot_times=[])
        with pytest.raises(SolverError):
            run.trace.defect(0.25, 0.0)
        with pytest.raises(SolverError):
            run.trace.defect(0.0, 0.2499)

    def test_trace_csv_columns(self, tmp_path):
        cfg = make_config(horizon=1.0 / 16, forcing=default_forcing(2))
        run = run_path(cfg, 3, 0, snapshot_times=[])
        out = tmp_path / "trace.csv"
        run.trace.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,E,D,I,M,defect"
        assert len(lines) == cfg.steps + 2


class TestAprioriMonitor:
    def test_deterministic_inviscid_moment_is_e0_power(self):
        cfg = make_config(eps=0.0, horizon=0.125)
        run = run_path(cfg, 1, 0, snapshot_times=[])
        _, rep = apriori_moment_report({0.0: [run.trace]}, p=3.0)
        e0 = run.trace.energy[0]
        assert rep["rows"][0]["moment"] == pytest.approx(e0 ** 3, rel=1e-10)

    def test_deterministic_viscous_moment_closed_form(self):
        cfg = make_config(eps=0.05, horizon=0.125)
        run = run_path(cfg, 1, 0, snapshot_times=[])
        _, rep = apriori_moment_report({0.05: [run.trace]}, p=2.5)
        expected = (np.max(run.trace.energy) + run.trace.dissipation[-1]) ** 2.5
        assert rep["rows"][0]["moment"] == pytest.approx(expected, rel=1e-12)

    def test_uniform_along_ladder(self):
        grid = TorusGrid(2, 16)
        forcing = default_forcing(2, sigma=0.3)
        traces = {}
        for eps in (0.1, 0.05, 0.025):
            cfg = make_config(grid=grid, eps=eps, dt=1.0 / 32, horizon=0.5,
                              forcing=forcing)
            traces[eps] = [run_path(cfg, 31, pid, snapshot_times=[]).trace
                           for pid in range(16)]
        rows, rep = apriori_moment_report(traces, p=3.0)
        assert all_passed(rows)
        assert [r["eps"] for r in rep["rows"]] == [0.1, 0.05, 0.025]

    def test_stronger_forcing_raises_bound(self):
        grid = TorusGrid(2, 16)
        reports = []
        for sigma in (0.3, 0.6):
            forcing = default_forcing(2, sigma=sigma)
            cfg = make_config(grid=grid, eps=0.05, dt=1.0 / 32, horizon=0.5,
                              forcing=forcing)
            traces = [run_path(cfg, 37, pid, snapshot_times=[]).trace
                      for pid in range(16)]
            reports.append(apriori_moment_report({0.05: traces}, p=3.0)[1])
        assert reports[1]["rows"][0]["moment"] > reports[0]["rows"][0]["moment"]

    def test_rejects_low_moment_order(self):
        with pytest.raises(SolverError):
            apriori_moment_report({0.1: []}, p=2.0)


class TestInitialConditions:
    def test_random_spectrum_divergence_free_and_reproducible(self):
        grid = TorusGrid(2, 32)
        ic = InitialCondition("random_spectrum", amplitude=0.5, k_max=3)
        a = ic.sample(grid, 11, 4)
        b = ic.sample(grid, 11, 4)
        c = ic.sample(grid, 11, 5)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert not np.array_equal(a.coeffs, c.coeffs)
        assert divergence_defect(a) < 1e-12

    def test_resolution_consistency(self):
        # the same (seed, path) draw is the same field on finer grids
        ic = InitialCondition("random_spectrum", amplitude=0.5, k_max=3)
        coarse = ic.sample(TorusGrid(2, 32), 13, 0)
        fine = ic.sample(TorusGrid(2, 64), 13, 0)
        assert l2_norm_sq(coarse) == pytest.approx(l2_norm_sq(fine), rel=1e-12)

    def test_amplitude_scaling(self):
        grid = TorusGrid(2, 32)
        a = InitialCondition("random_spectrum", amplitude=0.5).sample(grid, 1, 0)
        b = InitialCondition("random_spectrum", amplitude=1.0).sample(grid, 1, 0)
        assert l2_norm_sq(b) == pytest.approx(4.0 * l2_norm_sq(a), rel=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SolverError):
            InitialCondition("vortex_soup")


class TestWeakConvergenceProxy:
    def test_mean_energy_converges_under_dt_halving(self):
        # weak-order proxy: mean energy at fixed t settles at order >= 0.5
        # when the same Wiener paths are bridge-refined across dt levels
        grid = TorusGrid(2, 16)
        forcing = default_forcing(2, sigma=0.2)
        initial = InitialCondition("random_spectrum", amplitude=0.3, k_max=2)
        base_dt, horizon, n_paths = 1.0 / 16, 0.5, 16
        base_steps = int(round(horizon / base_dt))
        means = []
        for lev in range(4):
            cfg = make_config(grid=grid, eps=0.05, dt=base_dt / 2 ** lev,
                              horizon=horizon, forcing=forcing, initial=initial)
            vals = []
            for pid in range(n_paths):
                path = WienerPath.sample(71, pid, forcing.rank, base_dt,
                                         base_steps).refined(2 ** lev)
                run = run_path(cfg, 71, pid, snapshot_times=[], path=path)
                vals.append(run.trace.energy[-1])
            means.append(np.mean(vals))
        diffs = np.abs(np.diff(means))
        orders = np.log2(diffs[:-1] / diffs[1:])
        assert np.mean(orders) >= 0.5


class TestThreeDimensional:
    def test_3d_run_energy_budget(self):
        grid = TorusGrid(3, 16)
        cfg = make_config(grid=grid, eps=0.05, dt=1.0 / 32, horizon=0.25,
                          forcing=default_forcing(3, sigma=0.1),
                          initial=InitialCondition("taylor_green",
                                                   amplitude=0.3))
        run = run_path(cfg, 91, 0, snapshot_times=[])
        assert run.trace.max_positive_defect() <= run.trace.tolerance(c=1.0)
        assert divergence_defect(run.final) < 1e-12
