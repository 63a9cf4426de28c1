"""Viscosity ladder, momentum residual, martingale identification."""

import gc
import weakref
from dataclasses import fields, replace
from typing import NamedTuple

import numpy as np
import pytest

from dissipeuler.forcing import ForcingOperator, WienerPath, default_forcing
import dissipeuler.limits as limits
import dissipeuler.solver as solver
from dissipeuler.limits import (
    FunctionalRecorder,
    MIN_MARTINGALE_PATHS,
    EnsembleFunctionals,
    LimitError,
    MartingaleStat,
    Probe,
    energy_inequality_limit,
    forcing_pairings,
    linear_model_functionals_multi,
    martingale_test,
    momentum_residual,
    probe_fields,
    run_ladder,
    solver_functionals_multi,
)
from dissipeuler.reporting import all_passed
from dissipeuler.solver import (
    InitialCondition,
    SolverConfig,
    SolverError,
    SolverRun,
)
from dissipeuler.spectral import SpectralField, TorusGrid, inner_product
from dissipeuler.young import (
    Binning,
    CellPartition,
    dirac_embed,
    estimate_from_family,
)

from conftest import Snapshots, band_field, bin_run, dealias, lone_run, random_divfree_field

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


def ladder_times(part, dt):
    """Four mid-slab samples per slab plus both endpoints, as the CLI takes."""
    return sorted({part.t0, part.t1, *part.sample_times(dt, 4)})


class Ladder(NamedTuple):
    """The rungs, base configuration, seed and path ids of a ladder."""

    eps_values: tuple
    base: SolverConfig
    seed: int
    path_ids: tuple = (0,)

    def run(self, part, radius, times=None, processes=1):
        """``run_ladder`` binning on ``part`` at ``radius`` with 16 bins per
        axis and 32 on the sphere, at ``times`` (``ladder_times`` if None)."""
        times = ladder_times(part, self.base.dt) if times is None else times
        return run_ladder(*self, Binning(part, radius, 16, 32), times, processes)


def _rerun(ladder, part, eps, pid):
    """The trajectory of (eps, pid) of a ladder, run again as ``run_ladder``
    runs it (on the same Wiener path, which lone_run samples alike)."""
    snaps = Snapshots(ladder.base, ladder_times(part, ladder.base.dt))
    lone_run(ladder.base.with_eps(eps), ladder.seed, pid, observers=(snaps,))
    return snaps.payload()


def _no_run(*args, **kwargs):
    raise AssertionError("integrated before the check")


def every_step(cfg):
    """A ``Snapshots`` observer of every step of a run of ``cfg``."""
    return Snapshots(cfg, np.arange(cfg.steps + 1) * cfg.dt)


def _assert_same_bits(V, W):
    """Two measures agree bit for bit in every stored array."""
    pairs = [(getattr(V, k), getattr(W, k))
             for k in ("lam_mass", "nu_first", "nu_second", "lam_second")]
    for a, b in ((V.nu, W.nu), (V.nu_inf, W.nu_inf)):
        pairs += [(getattr(a, k), getattr(b, k)) for k in ("key", "mass")]
    for x, y in pairs:
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def _held_runs(obj) -> list:
    """Every SolverRun reachable through dicts, lists and tuples of obj."""
    if isinstance(obj, SolverRun):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [r for x in obj for r in _held_runs(x)]
    return []


class TestLadder:
    def test_rejects_non_decreasing(self, monkeypatch):
        # before any run
        monkeypatch.setattr(solver, "run_path", _no_run)
        part = CellPartition(2, 32, 2, 2, 0.0, 0.5)
        for rungs in ((0.1, 0.1), (0.05, 0.1), (0.1, -0.05)):
            with pytest.raises(LimitError):
                Ladder(rungs, base_config(), seed=1).run(part, 4.0)

    def test_finished_rung_config_is_collectable_while_next_rung_runs(
            self, monkeypatch):
        # the rung configs are read lazily and no finished run is held, so
        # a rung's config (with its cached viscous factor) can go as soon
        # as the next rung starts
        seen, alive = [], []
        real_run_path = solver.run_path

        def spy(cfg, *args, **kwargs):
            gc.collect()
            alive.append([eps for eps, ref in seen
                          if eps != cfg.eps and ref() is not None])
            seen.append((cfg.eps, weakref.ref(cfg)))
            return real_run_path(cfg, *args, **kwargs)
        monkeypatch.setattr(solver, "run_path", spy)
        cfg = base_config(n=16, horizon=0.25)
        ladder = Ladder((0.1, 0.05, 0.025), cfg, seed=3, path_ids=(0, 1))
        part = CellPartition(2, 16, 2, 2, 0.0, 0.25)
        res = ladder.run(part, 3.0)
        assert [eps for eps, _ in seen] == [0.1, 0.1, 0.05, 0.05, 0.025, 0.025]
        assert alive == [[]] * 6
        assert list(res.measures) == [0.1, 0.05, 0.025]

    def test_rungs_on_two_processes_keep_every_bit(self, two_cores, forks):
        # each run is binned where it runs and applied here to its rung and,
        # in the tail, to the family; every tail run feeds a recorder, and
        # the finest rung keeps its first survivor's: two processes give
        # the bits of one
        cfg = base_config(n=16, horizon=0.25)
        ladder = Ladder((0.1, 0.05, 0.025), cfg, seed=3, path_ids=(0, 1, 2))
        part = CellPartition(2, 16, 2, 2, 0.0, 0.25)
        one, two = (ladder.run(part, 3.0, processes=p) for p in (1, 2))
        assert len(forks) == 1
        pairs = [(one.family, two.family)] + \
            [(one.measures[eps], two.measures[eps]) for eps in ladder.eps_values]
        for a, b in pairs:
            for name in ("lam_mass", "nu_first", "nu_second", "lam_second"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            for part_name in ("nu", "nu_inf"):
                for name in ("key", "mass"):
                    assert getattr(getattr(a, part_name), name).tobytes() == \
                        getattr(getattr(b, part_name), name).tobytes()
        assert one.finest[:2] == two.finest[:2] and one.finest[3] == two.finest[3]
        assert one.cauchy_distances == two.cauchy_distances
        for eps in ladder.eps_values:
            assert [(pid, tr.energy.tobytes()) for pid, tr in one.traces[eps]] == \
                [(pid, tr.energy.tobytes()) for pid, tr in two.traces[eps]]

    def test_probe_tables_built_once_per_ladder(self, monkeypatch):
        # every tail run gets its own recorder, and all of them read the
        # tables of one probe: one transform of grad phi, not one per run
        calls, real = [], limits.band_gradient

        def counting(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(limits, "band_gradient", counting)
        cfg = base_config(n=16, horizon=0.25)
        ladder = Ladder((0.1, 0.05, 0.025, 0.0125), cfg, seed=3,
                                 path_ids=(0, 1, 2))
        part = CellPartition(2, 16, 2, 2, 0.0, 0.25)
        res = ladder.run(part, 3.0)
        assert res.tail == [0.025, 0.0125]
        assert sum(len(res.traces[eps]) for eps in res.tail) == 6
        assert len(calls) == 1

    def test_single_rung_family_equals_dirac_embed(self):
        cfg = base_config(n=16, horizon=0.25)
        ladder = Ladder((0.1,), cfg, seed=3)
        part = CellPartition(2, 16, 2, 2, 0.0, 0.25)
        res = ladder.run(part, 3.0)
        traj = _rerun(ladder, part, 0.1, 0)
        Vd = dirac_embed(bin_run(traj, part, 3.0))
        assert np.allclose(res.family.nu_mass, Vd.nu_mass)
        assert np.array_equal(res.family.nu.key, Vd.nu.key)
        assert np.allclose(res.family.nu_first, Vd.nu_first)
        assert np.allclose(res.family.nu_second, Vd.nu_second)
        assert res.family.lam_total() == 0.0

    def test_deterministic_ladder_cauchy_decrease(self):
        grid = TorusGrid(2, 32)
        cfg = SolverConfig(grid=grid, forcing=None, eps=0.1, dt=1.0 / 64,
                           horizon=0.5,
                           initial=InitialCondition("random_spectrum",
                                                    amplitude=0.4, k_max=2))
        ladder = Ladder((0.1, 0.05, 0.025, 0.0125), cfg, seed=5)
        part = CellPartition(2, 32, 2, 4, 0.0, 0.5)
        res = ladder.run(part, 3.0)
        d = res.cauchy_distances
        assert len(d) == 3
        assert d[0] > d[1] > d[2]

    def test_barycenter_consistency(self):
        # one path per rung: each rung's barycenter is the per-slab,
        # per-cell average of that path's samples
        cfg = base_config(n=16, horizon=0.25)
        ladder = Ladder((0.1, 0.05), cfg, seed=7)
        part = CellPartition(2, 16, 2, 2, 0.0, 0.25)
        res = ladder.run(part, 4.0)
        for eps in res.measures:
            traj = _rerun(ladder, part, eps, 0)
            bary = res.measures[eps].nu_first.reshape(part.n_t, part.n_space, -1)
            slabs = np.array([part.slab_of(float(t)) for t in traj.times])
            for s in range(part.n_t):
                avg = part.block_mean(traj.values[slabs == s]).mean(axis=0).T
                assert np.max(np.abs(bary[s] - avg)) < 1e-12

    def test_shared_noise_bit_exact(self):
        cfg = base_config(n=16, horizon=0.25)
        ladder = Ladder((0.1, 0.05), cfg, seed=11, path_ids=(0, 1))
        part = CellPartition(2, 16, 2, 2, 0.0, 0.25)
        res = ladder.run(part, 4.0)
        # identical Ito input trace; stochastic integrals differ through u
        t0, t1 = res.traces[0.1][0][1], res.traces[0.05][0][1]
        assert np.array_equal(t0.ito_input, t1.ito_input)
        assert not np.array_equal(t0.stochastic, t1.stochastic)


class TestStreamingLadder:
    def setup_ladder(self):
        # radius 0.3 splits the samples between oscillation and concentration
        cfg = base_config(n=16, horizon=0.25)
        ladder = Ladder((0.1, 0.05), cfg, seed=17, path_ids=(0, 1))
        part = CellPartition(2, 16, 2, 2, 0.0, 0.25)
        return ladder, part, ladder.run(part, 0.3)

    def test_measures_equal_rerun_families(self):
        ladder, part, res = self.setup_ladder()
        assert res.tail == [0.05]
        assert res.family.lam_total() > 0.0
        for eps in ladder.eps_values:
            want = estimate_from_family(
                bin_run(_rerun(ladder, part, eps, pid), part, 0.3)
                for pid in ladder.path_ids)
            _assert_same_bits(res.measures[eps], want)
        want = estimate_from_family(
            bin_run(_rerun(ladder, part, eps, pid), part, 0.3)
            for eps in res.tail for pid in ladder.path_ids)
        _assert_same_bits(res.family, want)

    def test_result_holds_no_run(self):
        ladder, part, res = self.setup_ladder()
        assert [r for f in fields(res) for r in _held_runs(getattr(res, f.name))] == []
        assert res.finest[:2] == (0.05, 0)
        assert [[pid for pid, _ in res.traces[eps]] for eps in ladder.eps_values] \
            == [[0, 1], [0, 1]]

    def test_tail_is_configured_half_less_blown_rungs(self):
        # the noise grows past sup |u| = 0.4 only at eps = 0.01, on both
        # paths; the tail is the configured last half (2, 0.01) less that
        # rung, where the last half of the surviving rungs would be (4, 2)
        cfg = SolverConfig(grid=TorusGrid(2, 16), forcing=default_forcing(2, sigma=2.0),
                           eps=8.0, dt=1.0 / 64, horizon=0.5,
                           initial=InitialCondition("zero"), blowup_ceiling=0.4)
        ladder = Ladder((8.0, 4.0, 2.0, 0.01), cfg, seed=3, path_ids=(0, 1))
        part = CellPartition(2, 16, 2, 2, 0.0, 0.5)
        res = ladder.run(part, 4.0)
        assert list(res.blowups) == [0.01]
        assert [pid for pid, _ in res.blowups[0.01]] == [0, 1]
        assert list(res.measures) == [8.0, 4.0, 2.0]
        assert res.tail == [2.0]
        assert res.finest[0] == 2.0
        _assert_same_bits(res.family, res.measures[2.0])
        assert len(res.cauchy_distances) == 2


class TestMomentumResidual:
    def setup_run(self, eps=0.0, n=32, dt=1.0 / 64, horizon=0.25,
                  snapshot_times=None):
        """A run observed by a recorder of the first probe field, at the
        steps of ``snapshot_times`` (every step if None), and by a
        ``Snapshots`` observer of the same steps."""
        cfg = base_config(n=n, dt=dt, horizon=horizon)
        cfg = cfg.with_eps(eps) if eps > 0 else SolverConfig(
            grid=cfg.grid, forcing=cfg.forcing, eps=0.0, dt=dt,
            horizon=horizon, initial=cfg.initial)
        snaps = every_step(cfg) if snapshot_times is None \
            else Snapshots(cfg, snapshot_times)
        rec = FunctionalRecorder(Probe(div_free_phi(cfg.grid), snaps.steps), eps)
        path = WienerPath.sample(13, 0, cfg.forcing.rank, dt, cfg.steps)
        lone_run(cfg, 13, 0, path=path, observers=(rec, snaps))
        return cfg, path, rec, snaps.payload()

    @staticmethod
    def residual(cfg, path, rec):
        """``momentum_residual`` of the run ``rec`` recorded."""
        return momentum_residual(rec.payload(), rec.probe.phi, cfg.forcing, path)

    def test_zero_time_window(self):
        cfg, path, rec, _ = self.setup_run(snapshot_times=[0.0])
        assert self.residual(cfg, path, rec) == 0.0

    def test_inviscid_residual_is_machine_zero(self):
        # with eps = 0 and every step sampled, the scheme satisfies the
        # discrete weak form identically
        cfg, path, rec, _ = self.setup_run(eps=0.0)
        assert self.residual(cfg, path, rec) < 1e-12

    def test_viscous_residual_first_order(self):
        residuals = []
        for dt in (1.0 / 64, 1.0 / 128, 1.0 / 256):
            cfg, path, rec, _ = self.setup_run(eps=0.2, dt=dt)
            residuals.append(self.residual(cfg, path, rec))
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
        cfg, path, rec, traj = self.setup_run(eps=0.0,
                                              snapshot_times=snapshot_times)
        phi = rec.probe.phi
        t = 0.25
        residual = self.residual(cfg, path, rec)

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

    def test_rejects_off_slab_time(self, monkeypatch):
        # the residual is read at the last snapshot time of a ladder; a
        # time off the step grid fails before any run
        monkeypatch.setattr(solver, "run_path", _no_run)
        cfg = base_config(n=16, horizon=0.25)
        with pytest.raises(SolverError, match="step grid"):
            Ladder((0.1,), cfg, seed=1).run(CellPartition(2, 16, 2, 2, 0.0, 0.25), 4.0,
                       [0.0, 0.1])

    def test_rejects_run_without_snapshot_at_zero(self, monkeypatch):
        # M starts at u(0): a recorder, and so a ladder, needs step 0
        with pytest.raises(LimitError, match="step 0"):
            Probe(div_free_phi(TorusGrid(2, 16)), steps={8, 16})
        monkeypatch.setattr(solver, "run_path", _no_run)
        cfg = base_config(n=16, horizon=0.25)
        with pytest.raises(LimitError, match="step 0"):
            Ladder((0.1,), cfg, seed=1).run(CellPartition(2, 16, 2, 2, 0.0, 0.25), 4.0,
                       [0.125, 0.25])

    def test_ladder_residual_equals_a_replay(self):
        # the residual run_ladder records live equals, bit for bit, a
        # fresh recorder fed the stored states of the same run afterwards
        cfg = base_config(n=16, horizon=0.25)
        ladder = Ladder((0.1, 0.05, 0.025), cfg, seed=19, path_ids=(0, 1))
        part = CellPartition(2, 16, 2, 2, 0.0, 0.25)
        times = ladder_times(part, cfg.dt)
        res = ladder.run(part, 4.0, times)
        eps, pid, trace, residual = res.finest
        assert (eps, pid) == (0.025, 0)

        class Store:
            steps = Snapshots(cfg, times).steps

            def __init__(self):
                self.states = []

            def on_state(self, n, t, u, phys):
                self.states.append((n, t, u, phys.copy()))

        store = Store()
        path = WienerPath.sample(ladder.seed, pid, cfg.forcing.rank, cfg.dt, cfg.steps)
        lone_run(cfg.with_eps(eps), ladder.seed, pid, path=path, observers=(store,))
        phi = probe_fields(cfg.grid)[0][1]
        rec = FunctionalRecorder(Probe(phi), eps, transport=cfg.transport)
        for state in store.states:
            rec.on_state(*state)
        last = store.states[-1][0]
        beta = path.increments[:last].sum(axis=0)
        replayed = abs(float(rec.payload().martingale_series()[-1])
                       - float(forcing_pairings(phi, cfg.forcing) @ beta))
        assert residual > 0.0
        assert residual.hex() == replayed.hex()


class TestProbeSupport:
    """The recorder pairs the band through its probe's support, to the bits
    of ``inner_product`` on the full layout."""

    @staticmethod
    def want(u, phi):
        lap = SpectralField(phi.grid, -phi.grid.ops.k2 * phi.coeffs)
        return [inner_product(u, phi).hex(), inner_product(u, lap).hex()]

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_pairings_of_band_fields_are_the_inner_products(self, dim, n):
        grid = TorusGrid(dim, n)
        rng = np.random.default_rng(23)
        states = [SpectralField.zero(grid)] + [
            dealias(random_divfree_field(grid, rng, scale)) for scale in (1e-3, 1.0, 1e3)]
        for _, phi in probe_fields(grid):
            support = Probe(phi).support
            assert len(support.index) <= 2
            for u in states:
                got = support.pair(grid.ops.to_band(u.coeffs))
                assert [float(x).hex() for x in got] == self.want(u, phi)

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_recorded_pairings_are_the_inner_products_of_the_run(self, dim, n):
        cfg = SolverConfig(grid=TorusGrid(dim, n), forcing=default_forcing(dim, 0.3),
                           eps=0.05, dt=1.0 / 64, horizon=0.25,
                           initial=InitialCondition("random_spectrum", 0.5))
        states = []

        class Keep:
            steps = None

            def on_state(self, n, t, band, phys):
                states.append(band_field(cfg.grid, band))

        fields = probe_fields(cfg.grid)
        recorders = [FunctionalRecorder(Probe(phi), cfg.eps) for _, phi in fields]
        lone_run(cfg, 9, 2, observers=(Keep(), *recorders))
        assert len(states) == cfg.steps + 1
        for rec, (_, phi) in zip(recorders, fields):
            series = rec.payload()
            got = [[p.hex(), v.hex()] for p, v in zip(series.pairings, series.visc)]
            assert got == [self.want(u, phi) for u in states]


class TestMartingale:
    def test_deterministic_steady_state_all_zero(self):
        # steady Taylor-Green, no forcing: M vanishes identically because
        # div(u x u) is a gradient and phi is divergence-free
        grid = TorusGrid(2, 32)
        cfg = SolverConfig(grid=grid, forcing=None, eps=0.0, dt=1.0 / 32,
                           horizon=0.25, initial=InitialCondition("taylor_green"))
        phi = div_free_phi(grid)
        rec = FunctionalRecorder(Probe(phi), 0.0)
        lone_run(cfg, 1, 0, observers=(rec,))
        m = rec.payload().martingale_series()
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
        with pytest.raises(LimitError, match="need >= 32 paths, got"):
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

    def test_field_tables_built_once_per_field(self, monkeypatch):
        # each path's recorders read the tables of one probe per field,
        # built once for all paths
        calls = []
        real = limits.band_gradient

        def counting(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(limits, "band_gradient", counting)
        cfg = SolverConfig(
            grid=TorusGrid(2, 16), forcing=default_forcing(2, sigma=0.3),
            eps=0.05, dt=1.0 / 32, horizon=0.25,
            initial=InitialCondition("taylor_green", amplitude=0.3))
        fields = [("phi1", div_free_phi(cfg.grid)),
                  ("phi2", div_free_phi(cfg.grid, k=(0, 2), parity="cos"))]
        out = solver_functionals_multi(cfg, fields, 37, range(32), [(0.125, 0.25)])
        assert len(calls) == 2
        assert out["phi1"][0][(0.125, 0.25)].m_t.shape == (32,)

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
        snaps = every_step(cfg)
        run = lone_run(cfg, 1, 0, observers=(snaps,))
        part = CellPartition(2, 16, 4, 2, 0.0, 0.5)
        V = dirac_embed(bin_run(snaps.payload(), part, radius=1.0))
        rows, _ = energy_inequality_limit(V, [run.trace], ForcingOperator(()), tol=1e-12)
        assert all_passed(rows)
        values = {r["audit"]: r["value"] for r in rows}
        assert values == {"energy_inequality_family": 0.0, "no_positive_jumps": 0.0}

    def test_nan_slab_fails_family_row(self):
        # a NaN compensated energy in the last slab follows finite pairwise
        # defects; the largest defect must be NaN, not the finite 0
        grid = TorusGrid(2, 16)
        cfg = SolverConfig(grid=grid, forcing=None, eps=0.1, dt=1.0 / 32,
                           horizon=0.5, initial=InitialCondition("zero"))
        snaps = every_step(cfg)
        run = lone_run(cfg, 1, 0, observers=(snaps,))
        part = CellPartition(2, 16, 4, 2, 0.0, 0.5)
        V = dirac_embed(bin_run(snaps.payload(), part, radius=1.0))
        stochastic = run.trace.stochastic.copy()
        stochastic[-1] = np.nan
        trace = replace(run.trace, stochastic=stochastic)
        rows, _ = energy_inequality_limit(V, [trace], ForcingOperator(()), tol=1e-12)
        values = {r["audit"]: r["value"] for r in rows}
        assert np.isnan(values["energy_inequality_family"])
        assert not all_passed(rows)

    def test_deterministic_ladder_defects_nonpositive(self):
        grid = TorusGrid(2, 32)
        cfg = SolverConfig(grid=grid, forcing=None, eps=0.1, dt=1.0 / 64,
                           horizon=0.5,
                           initial=InitialCondition("random_spectrum",
                                                    amplitude=0.4, k_max=2))
        ladder = Ladder((0.1, 0.05, 0.025), cfg, seed=29)
        part = CellPartition(2, 32, 4, 4, 0.0, 0.5)
        res = ladder.run(part, 3.0)
        traces = [tr for eps in (0.05, 0.025) for _, tr in res.traces[eps]]
        tol = res.traces[0.025][0][1].tolerance(c=1.0)
        rows, _ = energy_inequality_limit(res.family, traces, ForcingOperator(()), tol=tol)
        assert all_passed(rows)
        # dissipative dynamics: the compensated slab process really decreases
        assert rows[0]["audit"] == "energy_inequality_family"
        assert rows[0]["value"] <= 0.0


class TestFamilyEnergyAlongLadder:
    def test_family_slab_energy_bounded_by_pathwise_sup(self):
        cfg = base_config(n=16, horizon=0.25)
        ladder = Ladder((0.1, 0.05), cfg, seed=61, path_ids=(0, 1))
        part = CellPartition(2, 16, 2, 2, 0.0, 0.25)
        res = ladder.run(part, 6.0)
        from dissipeuler.young import slab_energies
        sup_path = max(float(np.max(tr.energy))
                       for eps in (0.1, 0.05) for _, tr in res.traces[eps])
        for e in slab_energies(res.family):
            assert e <= sup_path * (1 + 1e-10)
