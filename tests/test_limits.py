"""Viscosity ladder, momentum residual, martingale identification."""

from dataclasses import replace

import numpy as np
import pytest

from dissipeuler.forcing import WienerPath, default_forcing
from dissipeuler.limits import (
    FunctionalRecorder,
    MIN_MARTINGALE_PATHS,
    EnsembleFunctionals,
    LimitError,
    MartingaleStat,
    ViscosityLadder,
    energy_inequality_limit,
    forcing_pairings,
    linear_model_functionals_multi,
    martingale_test,
    momentum_residual,
    run_ladder,
    solver_functionals_multi,
)
from dissipeuler.reporting import all_passed
from dissipeuler.solver import InitialCondition, SolverConfig, run_path
from dissipeuler.spectral import SpectralField, TorusGrid
from dissipeuler.young import CellPartition, barycenter, dirac_embed

TWO_PI = 2.0 * np.pi


def div_free_phi(grid, k=(0, 1), amp=1.0, parity="sin"):
    """Low-mode divergence-free test field; sin parity overlaps the
    default forcing so stochastic pairings are nontrivial."""
    direction = np.zeros(grid.dim, dtype=complex)
    direction[0] = amp / 2.0 / (1j if parity == "sin" else 1.0)
    return SpectralField.from_modes(grid, {k: direction})


def base_config(n=32, dt=1.0 / 64, horizon=0.5, sigma=0.2, amp=0.4):
    grid = TorusGrid(2, n)
    return SolverConfig(
        grid=grid, forcing=default_forcing(2, sigma=sigma), eps=0.1, dt=dt,
        horizon=horizon,
        initial=InitialCondition("random_spectrum", amplitude=amp, k_max=2))


class TestLadder:
    def test_rejects_non_decreasing(self):
        with pytest.raises(LimitError):
            ViscosityLadder((0.1, 0.1), base_config(), seed=1)
        with pytest.raises(LimitError):
            ViscosityLadder((0.05, 0.1), base_config(), seed=1)
        with pytest.raises(LimitError):
            ViscosityLadder((0.1, -0.05), base_config(), seed=1)

    def test_single_rung_family_equals_dirac_embed(self):
        cfg = base_config(n=16, horizon=0.25)
        ladder = ViscosityLadder((0.1,), cfg, seed=3)
        part = CellPartition(2, 16, 2, 2, 0.0, 0.25)
        res = run_ladder(ladder, part, radius=3.0)
        traj = res.runs[0.1][0].trajectory()
        Vd = dirac_embed(traj, part, 3.0)
        assert np.allclose(res.family.nu_mass, Vd.nu_mass)
        assert np.array_equal(res.family.nu.key, Vd.nu.key)
        assert np.allclose(res.family.nu.mean, Vd.nu.mean)
        assert res.family.lam_total() == 0.0

    def test_deterministic_ladder_cauchy_decrease(self):
        grid = TorusGrid(2, 32)
        cfg = SolverConfig(grid=grid, forcing=None, eps=0.1, dt=1.0 / 64,
                           horizon=0.5,
                           initial=InitialCondition("random_spectrum",
                                                    amplitude=0.4, k_max=2))
        ladder = ViscosityLadder((0.1, 0.05, 0.025, 0.0125), cfg, seed=5)
        part = CellPartition(2, 32, 2, 4, 0.0, 0.5)
        res = run_ladder(ladder, part, radius=3.0)
        d = res.cauchy_distances
        assert len(d) == 3
        assert d[0] > d[1] > d[2]

    def test_barycenter_consistency(self):
        # one path per rung: each rung's barycenter is the per-slab,
        # per-cell average of that path's samples
        cfg = base_config(n=16, horizon=0.25)
        ladder = ViscosityLadder((0.1, 0.05), cfg, seed=7)
        part = CellPartition(2, 16, 2, 2, 0.0, 0.25)
        res = run_ladder(ladder, part, radius=4.0)
        for eps, (run,) in res.runs.items():
            traj = run.trajectory()
            bary = barycenter(res.measures[eps]).reshape(part.n_t, part.n_space, -1)
            slabs = np.array([part.slab_of(float(t)) for t in traj.times])
            for s in range(part.n_t):
                avg = part.block_mean(traj.values[slabs == s]).mean(axis=0).T
                assert np.max(np.abs(bary[s] - avg)) < 1e-12

    def test_shared_noise_bit_exact(self):
        cfg = base_config(n=16, horizon=0.25)
        ladder = ViscosityLadder((0.1, 0.05), cfg, seed=11, path_ids=(0, 1))
        part = CellPartition(2, 16, 2, 2, 0.0, 0.25)
        res = run_ladder(ladder, part, radius=4.0)
        # identical Ito input trace; stochastic integrals differ through u
        t0, t1 = res.runs[0.1][0].trace, res.runs[0.05][0].trace
        assert np.array_equal(t0.ito_input, t1.ito_input)
        assert not np.array_equal(t0.stochastic, t1.stochastic)


class TestMomentumResidual:
    def setup_run(self, eps=0.0, n=32, dt=1.0 / 64, horizon=0.25,
                  snapshot_times=None):
        cfg = base_config(n=n, dt=dt, horizon=horizon)
        cfg = cfg.with_eps(eps) if eps > 0 else SolverConfig(
            grid=cfg.grid, forcing=cfg.forcing, eps=0.0, dt=dt,
            horizon=horizon, initial=cfg.initial)
        path = WienerPath.sample(13, 0, cfg.rank, dt, cfg.steps)
        run = run_path(cfg, 13, 0, path=path, snapshot_times=snapshot_times)
        return cfg, path, run

    def test_zero_time_window(self):
        cfg, path, run = self.setup_run()
        phi = div_free_phi(cfg.grid)
        assert momentum_residual(run, cfg.forcing, path, phi, t=0.0) == 0.0

    def test_inviscid_residual_is_machine_zero(self):
        # with eps = 0 and every step sampled, the scheme satisfies the
        # discrete weak form identically
        cfg, path, run = self.setup_run(eps=0.0)
        phi = div_free_phi(cfg.grid)
        assert momentum_residual(run, cfg.forcing, path, phi, t=0.25) < 1e-12

    def test_viscous_residual_first_order(self):
        residuals = []
        for k, dt in enumerate((1.0 / 64, 1.0 / 128, 1.0 / 256)):
            cfg, path, run = self.setup_run(eps=0.2, dt=dt)
            phi = div_free_phi(cfg.grid)
            residuals.append(momentum_residual(run, cfg.forcing, path, phi,
                                               t=0.25))
        orders = np.log2(np.array(residuals[:-1]) / np.array(residuals[1:]))
        assert np.all(orders >= 0.9)

    # every step, and the CLI's sampling: two mid-slab times per slab of
    # CellPartition(2, 32, 4, 4, 0, 0.25) plus both endpoints
    @pytest.mark.parametrize("snapshot_times", [
        None,
        sorted({0.0, 0.25,
                *CellPartition(2, 32, 4, 4, 0.0, 0.25).sample_times(1.0 / 64, 2)}),
    ], ids=["every_step", "slab_mids"])
    def test_oracle_equivalence_with_classical_weak_form(self, snapshot_times):
        # independent trajectory-side evaluation of every term
        cfg, path, run = self.setup_run(eps=0.0, snapshot_times=snapshot_times)
        phi = div_free_phi(cfg.grid)
        traj = run.trajectory()
        t = 0.25
        residual = momentum_residual(run, cfg.forcing, path, phi, t=t)

        grid = cfg.grid
        gp = np.zeros((2, 2) + grid.shape)
        x = grid.points()
        # phi = (sin x2, 0): d phi_0 / d x2 = cos x2
        gp[0, 1] = np.broadcast_to(np.cos(x[1]), grid.shape)
        drift = (np.sum(traj.values[-1] * phi.to_physical())
                 - np.sum(traj.values[0] * phi.to_physical())) * grid.dx ** 2
        conv = 0.0
        times = traj.times
        for m, tm in enumerate(times):
            if tm >= t:
                continue
            t_next = times[m + 1] if m + 1 < len(times) else t
            w = min(t_next, t) - tm
            conv += w * np.sum(traj.values[m][0] * traj.values[m][1] * gp[0, 1]) \
                * grid.dx ** 2
        c = forcing_pairings(phi, cfg.forcing)
        stoch = float(c @ path.increments[: int(round(t / cfg.dt))].sum(axis=0))
        classical = abs(drift - conv - stoch)
        assert abs(residual - classical) < 1e-10

    def test_rejects_off_slab_time(self):
        cfg, path, run = self.setup_run()
        phi = div_free_phi(cfg.grid)
        with pytest.raises(LimitError):
            momentum_residual(run, cfg.forcing, path, phi, t=0.1)

    def test_rejects_run_without_snapshot_at_zero(self):
        cfg, path, run = self.setup_run(snapshot_times=[0.125, 0.25])
        phi = div_free_phi(cfg.grid)
        with pytest.raises(LimitError):
            momentum_residual(run, cfg.forcing, path, phi, t=0.25)


class TestMartingale:
    def test_deterministic_steady_state_all_zero(self):
        # steady Taylor-Green, no forcing: M vanishes identically because
        # div(u x u) is a gradient and phi is divergence-free
        grid = TorusGrid(2, 32)
        cfg = SolverConfig(grid=grid, forcing=None, eps=0.0, dt=1.0 / 32,
                           horizon=0.25, initial=InitialCondition("taylor_green"))
        phi = div_free_phi(grid)
        rec = FunctionalRecorder(phi, 0.0)
        run_path(cfg, 1, 0, snapshot_times=[], observers=(rec,))
        m = rec.martingale_series()
        assert np.max(np.abs(m)) < 1e-12

        ens = EnsembleFunctionals(m_s=np.zeros(32), m_t=np.zeros(32),
                                  beta_s=np.zeros((32, 1)),
                                  beta_t=np.zeros((32, 1)), pair_s=np.zeros(32))
        stat = MartingaleStat("phi", 0.0625, 0.125)
        rows, _ = martingale_test(stat, ens, c=np.zeros(1))
        assert all_passed(rows)
        assert all(r["value"] == 0.0 for r in rows)

    def test_linear_model_ito_oracle(self):
        # transport off, eps = 0: M_t = sum c_k beta_k(t) exactly, so the
        # three statistics are exact zero-mean at any dt
        grid = TorusGrid(2, 16)
        forcing = default_forcing(2, sigma=0.5)
        phi = div_free_phi(grid)
        dt, steps = 1.0 / 64, 64
        by_pair, c = linear_model_functionals_multi(
            forcing, [("phi", phi)], seed=17, path_ids=range(10_000), dt=dt,
            steps=steps, pairs=[(0.25, 0.75)])["phi"]
        ens = by_pair[(0.25, 0.75)]
        assert float(np.sum(c ** 2)) > 0.1  # phi genuinely sees the noise
        for history in ("one", "clamp_beta"):
            stat = MartingaleStat("phi", 0.25, 0.75, history=history)
            rows, _ = martingale_test(stat, ens, c, n_tests=12)
            assert all_passed(rows), rows

        # direct quadratic-variation check against N_t
        qv = np.mean((ens.m_t - ens.m_s) ** 2)
        expected = float(np.sum(c ** 2)) * 0.5
        assert qv == pytest.approx(expected, rel=0.05)

    def test_fast_path_matches_solver(self):
        # the increments-only evaluation equals the recorder on real runs
        grid = TorusGrid(2, 16)
        forcing = default_forcing(2, sigma=0.4)
        cfg = SolverConfig(grid=grid, forcing=forcing, eps=0.0, dt=1.0 / 32,
                           horizon=0.5, initial=InitialCondition("zero"),
                           transport=False)
        fields = [("phi", div_free_phi(grid))]
        fast_by_pair, c = linear_model_functionals_multi(
            forcing, fields, seed=19, path_ids=range(3), dt=cfg.dt,
            steps=cfg.steps, pairs=[(0.25, 0.5)])["phi"]
        by_pair, c2 = solver_functionals_multi(cfg, fields, seed=19,
                                               path_ids=range(3),
                                               pairs=[(0.25, 0.5)])["phi"]
        fast, slow = fast_by_pair[(0.25, 0.5)], by_pair[(0.25, 0.5)]
        assert np.allclose(c, c2)
        assert np.allclose(fast.m_s, slow.m_s, rtol=0, atol=1e-10)
        assert np.allclose(fast.m_t, slow.m_t, rtol=0, atol=1e-10)
        assert np.array_equal(fast.beta_t, slow.beta_t)

    def test_linear_model_matches_per_path_loop(self):
        # the ensemble arrays equal the per-path dot products c . beta(t)
        grid = TorusGrid(2, 16)
        forcing = default_forcing(2, sigma=0.5)
        dt, steps, pair = 1.0 / 64, 32, (0.25, 0.5)
        by_pair, c = linear_model_functionals_multi(
            forcing, [("phi", div_free_phi(grid))], seed=31, path_ids=range(5),
            dt=dt, steps=steps, pairs=[pair])["phi"]
        ens = by_pair[pair]
        for p in range(5):
            beta = WienerPath.sample(31, p, forcing.rank, dt, steps).coordinates()
            assert ens.m_s[p] == float(c @ beta[16])
            assert ens.m_t[p] == float(c @ beta[32])
            assert ens.pair_s[p] == ens.m_s[p]
            assert np.array_equal(ens.beta_s[p], beta[16])
            assert np.array_equal(ens.beta_t[p], beta[32])

    def test_nonlinear_ensemble_passes(self):
        cfg = SolverConfig(
            grid=TorusGrid(2, 16), forcing=default_forcing(2, sigma=0.3),
            eps=0.05, dt=1.0 / 64, horizon=0.5,
            initial=InitialCondition("taylor_green", amplitude=0.3))
        by_pair, c = solver_functionals_multi(cfg, [("phi", div_free_phi(cfg.grid))],
                                              seed=23, path_ids=range(64),
                                              pairs=[(0.125, 0.25)])["phi"]
        ens = by_pair[(0.125, 0.25)]
        stat = MartingaleStat("phi", 0.125, 0.25, history="clamp_pair")
        rows, _ = martingale_test(stat, ens, c, n_tests=6)
        assert all_passed(rows), rows

    def test_small_ensemble_rejected(self):
        stat = MartingaleStat("phi", 0.0, 1.0)
        p = MIN_MARTINGALE_PATHS - 1
        ens = EnsembleFunctionals(m_s=np.zeros(p), m_t=np.ones(p),
                                  beta_s=np.zeros((p, 1)), beta_t=np.ones((p, 1)),
                                  pair_s=np.zeros(p))
        with pytest.raises(LimitError, match="too small"):
            martingale_test(stat, ens, c=np.zeros(1))

    def test_fields_share_one_run_per_path(self):
        # one run recording two fields gives each field the arrays of a run
        # recording it alone
        cfg = SolverConfig(
            grid=TorusGrid(2, 16), forcing=default_forcing(2, sigma=0.3),
            eps=0.05, dt=1.0 / 32, horizon=0.25,
            initial=InitialCondition("taylor_green", amplitude=0.3))
        fields = [("phi1", div_free_phi(cfg.grid)),
                  ("phi2", div_free_phi(cfg.grid, k=(0, 2), parity="cos"))]
        pairs = [(0.0625, 0.125), (0.125, 0.25)]
        both = solver_functionals_multi(cfg, fields, 29, range(4), pairs)
        assert list(both) == ["phi1", "phi2"]
        for field in fields:
            alone = solver_functionals_multi(cfg, [field], 29, range(4), pairs)
            by_pair, c = both[field[0]]
            by_pair_alone, c_alone = alone[field[0]]
            assert np.array_equal(c, c_alone)
            for pair in pairs:
                for key in ("m_s", "m_t", "beta_s", "beta_t", "pair_s"):
                    got = getattr(by_pair[pair], key)
                    want = getattr(by_pair_alone[pair], key)
                    assert got.shape[0] == 4
                    assert np.array_equal(got, want), (field[0], pair, key)

    def test_pair_off_the_step_grid_rejected(self):
        grid = TorusGrid(2, 16)
        with pytest.raises(LimitError, match="step grid"):
            linear_model_functionals_multi(
                default_forcing(2), [("phi", div_free_phi(grid))], seed=1,
                path_ids=range(2), dt=1.0 / 64, steps=32, pairs=[(0.1, 0.2)])

    def test_nqv_linear_in_time(self):
        grid = TorusGrid(2, 16)
        forcing = default_forcing(2, sigma=0.5)
        phi = div_free_phi(grid)
        c = forcing_pairings(phi, forcing)
        n01 = float(np.sum(c ** 2)) * 0.1
        n02 = float(np.sum(c ** 2)) * 0.2
        assert n02 == pytest.approx(2 * n01)
        assert n01 >= 0.0


class TestEnergyInequalityLimit:
    def test_zero_solution_all_zero(self):
        grid = TorusGrid(2, 16)
        cfg = SolverConfig(grid=grid, forcing=None, eps=0.1, dt=1.0 / 32,
                           horizon=0.5, initial=InitialCondition("zero"))
        run = run_path(cfg, 1, 0)
        part = CellPartition(2, 16, 4, 2, 0.0, 0.5)
        V = dirac_embed(run.trajectory(), part, radius=1.0)
        rows, _ = energy_inequality_limit(V, [run.trace], None, tol=1e-12)
        assert all_passed(rows)
        values = {r["audit"]: r["value"] for r in rows}
        assert values == {"energy_inequality_family": 0.0, "no_positive_jumps": 0.0}

    def test_nan_slab_fails_family_row(self):
        # a NaN compensated energy in the last slab follows finite pairwise
        # defects; the largest defect must be NaN, not the finite 0
        grid = TorusGrid(2, 16)
        cfg = SolverConfig(grid=grid, forcing=None, eps=0.1, dt=1.0 / 32,
                           horizon=0.5, initial=InitialCondition("zero"))
        run = run_path(cfg, 1, 0)
        part = CellPartition(2, 16, 4, 2, 0.0, 0.5)
        V = dirac_embed(run.trajectory(), part, radius=1.0)
        stochastic = run.trace.stochastic.copy()
        stochastic[-1] = np.nan
        trace = replace(run.trace, stochastic=stochastic)
        rows, _ = energy_inequality_limit(V, [trace], None, tol=1e-12)
        values = {r["audit"]: r["value"] for r in rows}
        assert np.isnan(values["energy_inequality_family"])
        assert not all_passed(rows)

    def test_deterministic_ladder_defects_nonpositive(self):
        grid = TorusGrid(2, 32)
        cfg = SolverConfig(grid=grid, forcing=None, eps=0.1, dt=1.0 / 64,
                           horizon=0.5,
                           initial=InitialCondition("random_spectrum",
                                                    amplitude=0.4, k_max=2))
        ladder = ViscosityLadder((0.1, 0.05, 0.025), cfg, seed=29)
        part = CellPartition(2, 32, 4, 4, 0.0, 0.5)
        res = run_ladder(ladder, part, radius=3.0)
        traces = [r.trace for eps in (0.05, 0.025) for r in res.runs[eps]]
        tol = res.runs[0.025][0].trace.tolerance(c=1.0)
        rows, _ = energy_inequality_limit(res.family, traces, None, tol=tol)
        assert all_passed(rows)
        # dissipative dynamics: the compensated slab process really decreases
        assert rows[0]["audit"] == "energy_inequality_family"
        assert rows[0]["value"] <= 0.0


class TestFamilyEnergyAlongLadder:
    def test_family_slab_energy_bounded_by_pathwise_sup(self):
        cfg = base_config(n=16, horizon=0.25)
        ladder = ViscosityLadder((0.1, 0.05), cfg, seed=61, path_ids=(0, 1))
        part = CellPartition(2, 16, 2, 2, 0.0, 0.25)
        res = run_ladder(ladder, part, radius=6.0)
        from dissipeuler.young import slab_energies
        sup_path = max(float(np.max(r.trace.energy))
                       for eps in (0.1, 0.05) for r in res.runs[eps])
        for e in slab_energies(res.family):
            assert e <= sup_path * (1 + 1e-10)
