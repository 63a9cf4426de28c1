"""Stepper, energy trace, audit defects, and a priori moment monitor."""

import io
import os
import pickle
import time
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

import dissipeuler.solver as solver
from dissipeuler.forcing import (
    ForcingError,
    ForcingMode,
    ForcingOperator,
    WienerPath,
    default_forcing,
)
from dissipeuler.config import ConfigError, parse_config
from dissipeuler.limits import FunctionalRecorder, LimitError, Probe, _by_pair
from dissipeuler.reporting import all_passed, row_passes
from dissipeuler.solver import (
    BlowUpError,
    CflError,
    EnergyBudget,
    InitialCondition,
    SolverConfig,
    SolverError,
    WorkerError,
    apriori_moment_report,
    ensemble_processes,
    initial_state,
    run_ensemble,
    run_path,
    snapshot_steps,
)
from dissipeuler.spectral import (
    SpectralField,
    TorusGrid,
    divergence_defect,
    inner_product,
    l2_norm_sq,
    single_mode,
)

from dissipeuler.weakstrong import WeakStrongError, build_reference
from dissipeuler.young import Binning, CellPartition, YoungBinner

from conftest import (
    Snapshots,
    band_field,
    dealias,
    full_index,
    full_layout_start,
    lone_run,
    parseval_energy,
    random_divfree_field,
    step,
    trace_defect,
    traced_run,
)


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
            u, _ = step(u, np.zeros(0), cfg, dealias(u).to_physical())
        assert np.max(np.abs(u.coeffs)) == 0.0

    def test_single_mode_exact_heat_decay(self):
        # (sin x2, 0) is steady for Euler, so the viscous factor acts alone:
        # the amplitude decays exactly like exp(-eps t)
        eps, dt, steps = 0.3, 1.0 / 32, 48
        cfg = make_config(eps=eps, dt=dt, horizon=steps * dt,
                          initial=InitialCondition("single_mode"))
        u = single_mode(cfg.grid)
        e0 = 0.5 * l2_norm_sq(u)
        for _ in range(steps):
            u, _ = step(u, np.zeros(0), cfg, dealias(u).to_physical())
        t = steps * dt
        expected = e0 * np.exp(-2.0 * eps * t)
        assert 0.5 * l2_norm_sq(u) == pytest.approx(expected, rel=1e-8)

    def test_taylor_green_steady_energy(self):
        cfg = make_config(eps=0.0)
        _, trace = traced_run(cfg, 1, 0)
        drift = np.abs(trace.energy - trace.energy[0])
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
                u, _ = step(u, np.zeros(0), cfg, dealias(u).to_physical())
            errors.append(abs(0.5 * l2_norm_sq(u) - 0.5 * l2_norm_sq(u0)))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 0.9)

    def test_divergence_free_every_step(self):
        cfg = make_config(eps=0.01, forcing=default_forcing(2))
        path = WienerPath.sample(5, 0, cfg.forcing.rank, cfg.dt, cfg.steps)
        u = cfg.initial.sample(cfg.grid, 5, 0)
        for n in range(cfg.steps):
            u, _ = step(u, path.increments[n], cfg,
                        dealias(u).to_physical())
            assert divergence_defect(u) < 1e-12

    def test_blowup_raises(self):
        cfg = make_config(blowup_ceiling=0.5)
        with pytest.raises(BlowUpError) as err:
            lone_run(cfg, 1, 0)
        assert err.value.sup > 0.5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_state_is_a_blowup(self):
        # amplitude 1e308 * |k|^2 overflows: the initial state is NaN, whose
        # sup fails every comparison with the ceiling
        cfg = make_config(grid=TorusGrid(2, 16), initial=InitialCondition(
            "random_spectrum", amplitude=1e308, k_max=2, decay=-2.0))
        with pytest.raises(BlowUpError) as err:
            lone_run(cfg, 1, 0)
        assert np.isnan(err.value.sup)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_state_without_transport_is_a_blowup(self):
        # no transport, so no sup to test: the non-finite state names the
        # blow-up, and the budget's partial trace ends at the state that
        # lost it
        cfg = make_config(grid=TorusGrid(2, 16), transport=False,
                          initial=InitialCondition("random_spectrum",
                                                   amplitude=1e308, k_max=2,
                                                   decay=-2.0))
        path = WienerPath.sample(1, 0, cfg.forcing.rank, cfg.dt, cfg.steps)
        budget = EnergyBudget(cfg, path)
        with pytest.raises(BlowUpError) as err:
            lone_run(cfg, 1, 0, path, (budget,))
        assert err.value.sup is None and err.value.time == 0.0
        assert str(err.value).startswith("non-finite energy")
        partial = budget.payload()
        assert len(partial.times) == 1
        assert not np.isfinite(partial.energy[-1])

    def test_cfl_guard(self):
        cfg = make_config(dt=0.5, horizon=1.0)
        with pytest.raises(CflError):
            lone_run(cfg, 1, 0)


class TestRunPath:
    def test_zero_horizon_single_entry(self):
        cfg = make_config(horizon=0.0)
        _, trace = traced_run(cfg, 1, 0)
        assert len(trace.times) == 1
        u0 = cfg.initial.sample(cfg.grid, 1, 0)
        assert trace.energy[0] == pytest.approx(0.5 * l2_norm_sq(u0), rel=1e-12)

    def test_viscous_unforced_energy_monotone(self):
        cfg = make_config(eps=0.05)
        _, trace = traced_run(cfg, 1, 0)
        diffs = np.diff(trace.energy)
        assert np.all(diffs <= 1e-10)

    def test_deterministic_given_keys(self):
        cfg = make_config(eps=0.02, forcing=default_forcing(2),
                          initial=InitialCondition("random_spectrum", amplitude=0.4))
        a, a_trace = traced_run(cfg, 9, 3)
        b, b_trace = traced_run(cfg, 9, 3)
        assert np.array_equal(a.final.coeffs, b.final.coeffs)
        assert np.array_equal(a_trace.stochastic, b_trace.stochastic)

    def test_shared_path_across_viscosities(self):
        # the noise path is a function of (seed, path_id) only, never of eps
        forcing = default_forcing(2)
        cfg = make_config(forcing=forcing)
        p1 = WienerPath.sample(7, 1, forcing.rank, cfg.dt, cfg.steps)
        p2 = WienerPath.sample(7, 1, forcing.rank, cfg.dt, cfg.steps)
        assert np.array_equal(p1.increments, p2.increments)
        r1 = lone_run(cfg.with_eps(0.1), 7, 1, path=p1)
        r2 = lone_run(cfg.with_eps(0.0125), 7, 1, path=p2)
        assert not np.array_equal(r1.final.coeffs, r2.final.coeffs)

    def test_snapshots_at_requested_times(self):
        cfg = make_config()
        snaps = Snapshots(cfg, [0.0, 0.125, 0.25])
        lone_run(cfg, 1, 0, observers=(snaps,))
        assert list(snaps.payload().times) == [0.0, 0.125, 0.25]
        assert len(snaps.payload().times) == 3

    def test_rejects_off_grid_snapshot(self):
        cfg = make_config()
        with pytest.raises(SolverError):
            Snapshots(cfg, [0.1234])

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_initial_state_is_the_state_at_step_0(self, dim, n):
        cfg = make_config(grid=TorusGrid(dim, n), dt=1.0 / 64, horizon=1.0 / 32,
                          forcing=default_forcing(dim, 0.3),
                          initial=InitialCondition("random_spectrum", 0.5))
        seen = []

        class First:
            steps = {0}

            def on_state(self, n, t, band, phys):
                seen.append(band)

        lone_run(cfg, 4, 2, observers=(First(),))
        assert len(seen) == 1
        assert seen[0].tobytes() == initial_state(cfg, 4, 2).tobytes()

    @pytest.mark.parametrize("forced,n_modes", [(True, 2), (True, 6), (False, 4)])
    def test_rejects_path_of_another_mode_count(self, forced, n_modes):
        # fewer and more modes than rank 4, and a 4-mode path for no forcing
        cfg = make_config(forcing=default_forcing(2) if forced else None)
        path = WienerPath.sample(3, 0, n_modes, cfg.dt, cfg.steps)
        with pytest.raises(SolverError) as err:
            run_path(cfg, path, initial_state(cfg, 3, 0))
        assert f"{n_modes} modes, the forcing has {cfg.forcing.rank}" in str(err.value)


class TestRunEnsemble:
    def test_config_major_runs_on_shared_paths_past_a_blow_up(self):
        base = make_config(grid=TorusGrid(2, 16), dt=1.0 / 64, horizon=0.125,
                           forcing=default_forcing(2, 0.3),
                           initial=InitialCondition("random_spectrum", 0.3))
        cfgs = [base.with_eps(0.1), replace(base, eps=0.05, blowup_ceiling=1e-6),
                base.with_eps(0.025)]
        path_ids = [4, 1]
        yielded, calls = [], []

        class Seen:
            steps = {0}
            hits = 0

            def on_state(self, n, t, u, phys):
                self.hits += 1

            def payload(self):
                return self.hits

        def observers(cfg, path):
            calls.append((cfg, path, len(yielded), Seen()))
            return calls[-1][3], EnergyBudget(cfg, path)

        for item in run_ensemble(cfgs, 5, path_ids, observers):
            yielded.append(item)

        order = [(cfg, pid) for cfg in cfgs for pid in path_ids]
        assert [(cfg, path.path_id) for cfg, path, *_ in yielded] == order
        # observers(cfg, path) is called once just before each run, which
        # reads it, with the path the run yields (at one dt, the one it
        # steps on)
        assert [(cfg, runs_before) for cfg, _, runs_before, _ in calls] == \
            [(cfg, i) for i, (cfg, _) in enumerate(order)]
        assert [path for _, path, _, _ in calls] == [path for _, path, *_ in yielded]
        assert all(seen.hits == 1 for *_, seen in calls)
        for cfg, path, run, err, kept in yielded:
            lone = WienerPath.sample(5, path.path_id, 4, base.dt, base.steps)
            assert path.increments.tobytes() == lone.increments.tobytes()
            assert path is yielded[path_ids.index(path.path_id)][1]
            assert kept[0] == 1   # its own observer's payload, blow-up or not
            if cfg is cfgs[1]:   # what the observers read before the blow-up
                assert run is None and isinstance(err, BlowUpError)
                assert len(kept[1].times) == 1
                continue
            assert err is None and len(kept) == 2
            want, want_trace = traced_run(cfg, 5, path.path_id)
            for name in ("energy", "dissipation", "ito_input", "stochastic"):
                assert getattr(kept[1], name).tobytes() == \
                    getattr(want_trace, name).tobytes()
            assert run.final.coeffs.tobytes() == want.final.coeffs.tobytes()

    def test_initial_states_drawn_once_per_grid(self, monkeypatch):
        # rungs that share a grid and an initial law share each path's draw;
        # a new grid draws again, and every run keeps the bits of a lone run
        base = make_config(grid=TorusGrid(2, 16), dt=1.0 / 64, horizon=0.0625,
                           forcing=default_forcing(2, 0.3),
                           initial=InitialCondition("random_spectrum", 0.3))
        fine = replace(base, grid=TorusGrid(2, 32))
        cfgs = [base.with_eps(0.1), base.with_eps(0.05), fine.with_eps(0.1),
                fine.with_eps(0.05)]
        draws = []
        real_initial_state = solver.initial_state

        def counted(cfg, seed, path_id):
            draws.append((cfg.grid.n, path_id))
            return real_initial_state(cfg, seed, path_id)
        monkeypatch.setattr(solver, "initial_state", counted)
        runs = [(cfg, path.path_id, run, trace)
                for cfg, path, run, _, [trace] in run_ensemble(
                    cfgs, 5, [4, 1], lambda cfg, path: (EnergyBudget(cfg, path),))]
        assert draws == [(16, 4), (16, 1), (32, 4), (32, 1)]
        monkeypatch.setattr(solver, "initial_state", real_initial_state)
        for cfg, pid, run, trace in runs:
            want, want_trace = traced_run(cfg, 5, pid)
            for name in ("energy", "dissipation", "stochastic"):
                assert getattr(trace, name).tobytes() == \
                    getattr(want_trace, name).tobytes()
            assert run.final.coeffs.tobytes() == want.final.coeffs.tobytes()

    def test_a_configuration_at_a_power_of_two_finer_dt_runs_on_the_refined_path(self):
        # the paths are drawn at the dt of ``draw``; a configuration at dt / 4
        # runs on path.refined(4), its observers are built for that path, and
        # it keeps every bit of that run
        base = make_config(grid=TorusGrid(2, 16), dt=1.0 / 32, horizon=0.125,
                           forcing=default_forcing(2, 0.3),
                           initial=InitialCondition("random_spectrum", 0.3))
        fine = replace(base, grid=TorusGrid(2, 32), eps=0.0, dt=base.dt / 4)
        seen = []

        def observers(cfg, path):
            seen.append(path)
            return (EnergyBudget(cfg, path),)
        runs = list(run_ensemble([fine, base], 5, [4, 1], observers, draw=base))
        assert [(cfg, path.path_id) for cfg, path, *_ in runs] == \
            [(fine, 4), (fine, 1), (base, 4), (base, 1)]
        for (cfg, path, run, err, [trace]), on in zip(runs, seen, strict=True):
            assert err is None and (path.dt, path.steps) == (base.dt, base.steps)
            want_on = path.refined(4) if cfg is fine else path
            assert (on.dt, on.steps, on.level) == (cfg.dt, cfg.steps, want_on.level)
            assert on.increments.tobytes() == want_on.increments.tobytes()
            want, want_trace = traced_run(cfg, 5, path.path_id, want_on)
            for name in ("times", "energy", "dissipation", "ito_input", "stochastic"):
                assert getattr(trace, name).tobytes() == \
                    getattr(want_trace, name).tobytes()
            assert run.final.coeffs.tobytes() == want.final.coeffs.tobytes()

    def test_a_configuration_at_another_dt_ratio_raises_before_it_runs(self, monkeypatch):
        base = make_config(grid=TorusGrid(2, 16), dt=1.0 / 32, horizon=0.125)
        real_run_path, runs = solver.run_path, []

        def counted(cfg, *args, **kwargs):
            runs.append(cfg)
            return real_run_path(cfg, *args, **kwargs)
        monkeypatch.setattr(solver, "run_path", counted)
        with pytest.raises(ForcingError, match="power of two"):
            list(run_ensemble([base, replace(base, dt=base.dt / 3)], 5, [4, 1]))
        assert runs == [base, base]   # the dt / 3 configuration integrated nothing

    @pytest.mark.parametrize("processes", [1, 2])
    def test_each_run_hands_back_its_own_observers_payloads(self, two_cores, forks,
                                                            processes):
        # every run gets fresh observers where it runs, and yields their
        # payloads: those of a lone run of its (configuration, path) with
        # fresh observers, bit for bit, on one process or two
        base = make_config(grid=TorusGrid(2, 16), dt=1.0 / 64, horizon=0.125,
                           forcing=default_forcing(2, 0.3),
                           initial=InitialCondition("random_spectrum", 0.3))
        cfgs, path_ids = [base.with_eps(0.1), base.with_eps(0.05)], [4, 1, 7]
        times = [0.0, 0.0625, 0.125]
        part = CellPartition(2, 16, 2, 2, 0.0, 0.125)
        probe = Probe(SpectralField.from_modes(base.grid, {(0, 1): np.array([0.5j, 0.0])}))

        def observers(cfg, path):
            return (Snapshots(cfg, times), FunctionalRecorder(probe, cfg.eps),
                    YoungBinner(Binning(part, 1.0, 4, 8), snapshot_steps(cfg, times)))
        runs = list(run_ensemble(cfgs, 5, path_ids, observers, processes))
        assert len(forks) == processes - 1
        assert [(cfg, path.path_id) for cfg, path, *_ in runs] == \
            [(cfg, pid) for cfg in cfgs for pid in path_ids]
        for cfg, path, run, err, kept in runs:
            assert err is None
            lone = observers(cfg, path)
            lone_run(cfg, 5, path.path_id, observers=lone)
            assert len(kept) == 3
            _assert_same_bits(kept, [obs.payload() for obs in lone])
        _no_child_left()


def _assert_same_bits(a, b):
    """``a`` and ``b`` hold the same values bit for bit: arrays and floats
    by their bytes, dataclasses field by field, containers item by item."""
    assert type(a) is type(b)
    if isinstance(a, (np.ndarray, float)):
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    elif is_dataclass(a):
        for f in fields(a):
            _assert_same_bits(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            _assert_same_bits(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same_bits(x, y)
    else:
        assert a == b


def _no_child_left():
    # every worker the test forked has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestEnsembleProcesses:
    """``run_ensemble`` on forked workers keeps every bit of one process."""

    @staticmethod
    def cfgs():   # the middle configuration blows up on every path
        base = make_config(grid=TorusGrid(2, 16), dt=1.0 / 64, horizon=0.125,
                           forcing=default_forcing(2, 0.3),
                           initial=InitialCondition("random_spectrum", 0.3))
        return [base.with_eps(0.1), replace(base, eps=0.05, blowup_ceiling=1e-6),
                base.with_eps(0.025)]

    def test_processes_are_capped_by_paths_and_cores(self, monkeypatch):
        # --threads 100000 asks for no more processes than paths and cores;
        # the cap is computed, and nothing is started
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert ensemble_processes(100_000, 8) == 8
        assert ensemble_processes(100_000, 100_000) == 64
        assert ensemble_processes(3, 8) == 3
        assert ensemble_processes(100_000, 0) == 1
        for bad in (0, -1):
            with pytest.raises(SolverError, match="must be >= 1"):
                ensemble_processes(bad, 8)

    @pytest.mark.parametrize("cores", [2, 4])
    def test_runs_keep_every_bit_on_forked_workers(self, monkeypatch, forks, cores):
        # path i runs in process i mod P; a run of a worker, blow-ups
        # included, reaches the consumer as the run of one process does,
        # with its observers' payloads, also with more workers than cores
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        cfgs, path_ids = self.cfgs(), [4, 1, 7, 2, 9]

        def collect(processes):
            def observe(cfg, path):
                return Snapshots(cfg, [0.0, 0.0625, 0.125]), EnergyBudget(cfg, path)
            return [(cfg, path.path_id, run, err, kept)
                    for cfg, path, run, err, kept in run_ensemble(
                        cfgs, 5, path_ids, observe, processes)]

        one = collect(1)
        assert forks == []
        many = collect(100_000)   # as many processes as cores
        assert len(forks) == cores - 1
        for (c1, p1, r1, e1, k1), (c2, p2, r2, e2, k2) in zip(one, many, strict=True):
            assert (c1, p1) == (c2, p2)
            if e1 is not None:
                assert type(e2) is type(e1) and str(e2) == str(e1)
                assert (e2.time, e2.sup) == (e1.time, e1.sup) and r2 is None
            else:
                assert e2 is None and r2.config is c2
                assert r2.band.shape == (c2.grid.dim,) + c2.grid.ops.band_shape
                assert r2.band.tobytes() == r1.band.tobytes()
                assert r2.final.coeffs.tobytes() == r1.final.coeffs.tobytes()
            # the payloads, a blown-up run's partial ones included
            (t1, a), (t2, b) = k1, k2
            assert t2.times.tobytes() == t1.times.tobytes()
            assert t2.values.tobytes() == t1.values.tobytes()
            assert a.initial_energy == b.initial_energy
            for name in ("times", "energy", "dissipation", "ito_input", "stochastic"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert sum(err is not None for *_, err, _ in many) == len(path_ids)
        _no_child_left()

    def test_a_consumer_that_stops_early_leaves_no_worker(self, two_cores, forks):
        runs = run_ensemble(self.cfgs(), 5, [4, 1, 7], processes=2)
        next(runs)
        runs.close()
        assert len(forks) == 1
        _no_child_left()

    def test_a_worker_fault_raises_with_its_traceback(self, two_cores, forks,
                                                      monkeypatch):
        real_run_path = solver.run_path

        def faulty(cfg, path, *args, **kwargs):
            if path.path_id == 1:   # the second path: the worker's
                raise RuntimeError("injected worker fault")
            return real_run_path(cfg, path, *args, **kwargs)
        monkeypatch.setattr(solver, "run_path", faulty)
        with pytest.raises(WorkerError) as err:
            list(run_ensemble(self.cfgs(), 5, [4, 1], processes=2))
        assert "Traceback" in str(err.value)
        assert "RuntimeError: injected worker fault" in str(err.value)
        assert len(forks) == 1
        _no_child_left()

    def test_a_worker_runs_no_code_of_its_callers(self, two_cores, forks, tmp_path):
        # a worker leaves through os._exit: the consumer's finally runs in
        # this process only, even while the ensemble waits to be closed
        log = tmp_path / "finally.log"
        runs = run_ensemble(self.cfgs()[:1], 5, [4, 1], processes=2)
        try:
            assert [next(runs)[1].path_id for _ in range(2)] == [4, 1]
            time.sleep(0.5)   # time for a worker that returned to get here
        finally:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
        runs.close()
        assert len(forks) == 1
        assert log.read_text() == f"{os.getpid()}\n"
        _no_child_left()


class TestUnforced:
    """A config without forcing is forced by the rank-0 operator."""

    def test_none_is_stored_as_rank_0(self):
        cfg = make_config()
        assert cfg.forcing == ForcingOperator(())
        assert cfg.forcing.rank == 0 and cfg.forcing.hs_norm_sq() == 0.0
        support = cfg.noise_support
        assert support.index.shape == (0,)
        assert support.values.shape == support.dual.shape == (0, 0)

    def test_ito_input_and_stochastic_integral_are_positive_zero(self):
        cfg = make_config(eps=0.05, initial=InitialCondition("random_spectrum", 0.4))
        _, trace = traced_run(cfg, 2, 1)
        for series in (trace.ito_input, trace.stochastic):
            assert series.shape == (cfg.steps + 1,)
            assert np.all(series == 0.0) and not np.any(np.signbit(series))

    def test_zero_mode_wiener_path(self):
        n = 8
        path = WienerPath.sample(5, 2, 0, 1.0 / 16, n)
        assert path.increments.shape == (n, 0)
        assert path.refined(4).increments.shape == (4 * n, 0)
        assert path.coordinates().shape == (n + 1, 0)


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
            steps = None

            def on_state(self, n, t, band, phys):
                states.append(band_field(cfg.grid, band))

        _, trace = traced_run(cfg, 3, 1, observers=(Keep(),))
        path = WienerPath.sample(3, 1, forcing.rank, cfg.dt, cfg.steps)
        g = [SpectralField(cfg.grid, m.sigma * forcing.mode_field(cfg.grid, k).coeffs)
             for k, m in enumerate(modes)]
        got = np.diff(trace.stochastic)
        want = [sum(inner_product(u, g[k]) * path.increments[i, k]
                    for k in range(forcing.rank))
                for i, u in enumerate(states[:-1])]
        assert np.all(got != 0.0)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def in_band_forcing(dim, n):
    """Default forcing plus one custom mode at the dealias cutoff."""
    cut = TorusGrid(dim, n).dealias_cutoff()
    extra = ForcingMode((cut, 1), (1.0, -cut), 0.2, "sin") if dim == 2 \
        else ForcingMode((cut, 0, 1), (0.0, 1.0, 0.0), 0.2, "sin")
    return ForcingOperator(default_forcing(dim, 0.3).modes + (extra,))


class TestPointValues:
    """run_path transforms each state once and hands the values around."""

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_states_in_band_and_values_exact(self, dim, n):
        grid = TorusGrid(dim, n)
        cfg = make_config(grid=grid, eps=0.02, dt=1.0 / 64, horizon=0.125,
                          forcing=in_band_forcing(dim, n),
                          initial=InitialCondition("random_spectrum", 0.5))
        seen = []

        class Keep:
            steps = None

            def on_state(self, n, t, band, phys):
                assert band.shape == (grid.dim,) + grid.ops.band_shape
                seen.append((band_field(grid, band), phys.copy()))

        times = [0.0, 0.0625, 0.125]
        snaps = Snapshots(cfg, times)
        lone_run(cfg, 5, 2, observers=(Keep(), snaps))
        assert len(seen) == cfg.steps + 1
        outside = ~grid.ops.mask
        for u, phys in seen:
            assert np.all(u.coeffs[:, outside] == 0)
            assert np.array_equal(phys.view(np.uint64),
                                  u.to_physical().view(np.uint64))
        snap_steps = [round(t / cfg.dt) for t in times]
        assert np.array_equal(snaps.payload().values,
                              np.stack([seen[k][1] for k in snap_steps]))
        assert np.array_equal(snaps.payload().times, times)

    # ``observers`` recorders read every step, a ``Snapshots`` observer
    # (none if None) the steps of ``snapshot_times``; each case runs with
    # transport on and off
    @pytest.mark.parametrize("observers,snapshot_times", [
        (0, []), (0, None), (1, [0.0, 0.25]), (3, None), (0, [0.0, 0.25])])
    def test_one_inverse_and_one_forward_transform_per_step(
            self, monkeypatch, observers, snapshot_times):
        grid = TorusGrid(2, 32)
        phi = SpectralField.from_modes(grid, {(0, 1): np.array([0.5j, 0.0])})
        # a forward transform makes one rfft pass, an inverse one irfft pass
        calls = {"rfft": 0, "irfft": 0}
        for name in calls:
            def counted(*args, _fn=getattr(np.fft, name), _name=name, **kw):
                calls[_name] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(np.fft, name, counted)
        for transport in (True, False):
            cfg = make_config(grid=grid, eps=0.02, dt=1.0 / 64, horizon=0.25,
                              forcing=default_forcing(2, 0.3), transport=transport,
                              initial=InitialCondition("random_spectrum", 0.5))
            obs = [FunctionalRecorder(Probe(phi), cfg.eps, transport)
                   for _ in range(observers)]
            if snapshot_times is not None:
                obs.append(Snapshots(cfg, snapshot_times))
            read = set(range(cfg.steps + 1)) if observers \
                else set(obs[0].steps) if obs else set()
            calls.update(rfft=0, irfft=0)   # count the run's transforms only
            lone_run(cfg, 1, 0, observers=obs)
            if transport:   # the transport term transforms every state but the last
                assert calls["rfft"] == cfg.steps
                assert calls["irfft"] == cfg.steps + (cfg.steps in read)
            else:           # only the states an observer reads
                assert calls["rfft"] == 0
                assert calls["irfft"] == len(read)
            if snapshot_times is not None:
                assert list(obs[-1].payload().times) == snapshot_times


BAND_GRIDS = [(2, 8), (2, 32), (2, 128), (3, 8), (3, 16)]


def full_layout_run(cfg, seed, path_id):
    """run_path's budget as a loop of ``step`` on full-layout fields: the
    oracle of the band loop.  Returns (states, point values, trace arrays)."""
    grid = cfg.grid
    path = WienerPath.sample(seed, path_id, cfg.forcing.rank, cfg.dt, cfg.steps)
    support = cfg.forcing.noise_support(grid)
    index = full_index(grid, support.index)
    weight = np.broadcast_to(grid.ops.weight, (grid.dim,) + grid.spectral_shape)
    conj_values = np.conj(support.values) * weight.take(index)
    vol_scale = grid.volume / grid.n ** (2 * grid.dim)
    u = full_layout_start(cfg, seed, path_id)
    states, points = [], []
    energy, dissipation, stochastic = [], [0.0], [0.0]
    for n in range(cfg.steps + 1):
        e, grad_sq = parseval_energy(u)
        energy.append(e)
        states.append(u)
        points.append(u.to_physical())
        if n == cfg.steps:
            break
        dissipation.append(dissipation[-1] + cfg.eps * cfg.dt * grad_sq)
        dw = path.increments[n]
        pair = (conj_values @ u.coeffs.take(index)).real * vol_scale
        stochastic.append(stochastic[-1] + float(pair @ dw))
        u, _ = step(u, dw, cfg, points[-1])
    return states, points, {"energy": energy, "dissipation": dissipation,
                            "stochastic": stochastic}


class TestBandState:
    """The band is the run's only layout from its start to its final state,
    and the one its observers read."""

    def test_a_binned_run_builds_no_field_and_hands_a_read_only_band(self, monkeypatch):
        cfg = make_config(grid=TorusGrid(2, 16), eps=0.05, dt=1.0 / 64, horizon=0.125,
                          forcing=default_forcing(2, 0.3),
                          initial=InitialCondition("random_spectrum", 0.4))
        path = WienerPath.sample(3, 0, cfg.forcing.rank, cfg.dt, cfg.steps)
        initial = initial_state(cfg, 3, 0)
        built = []

        class Counted(SpectralField):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()
        monkeypatch.setattr(solver, "SpectralField", Counted)
        bands = []

        class Binner(YoungBinner):
            def on_state(self, n, t, band, phys):
                bands.append(band)
                super().on_state(n, t, band, phys)

        times = [0.0, 0.0625, 0.125]
        binner = Binner(Binning(CellPartition(2, 16, 2, 2, 0.0, 0.125), 1.0, 4, 8),
                        snapshot_steps(cfg, times))
        run = run_path(cfg, path, initial, (binner,))
        assert built == []
        assert bands[0].base is initial   # a read-only view of the start
        assert len(bands) == len(times)
        for band in bands:
            assert band.shape == (2,) + cfg.grid.ops.band_shape
            assert not band.flags.writeable
        assert bands[-1] is run.band
        assert len(binner.payload().snapshots) == len(times)
        final = run.final   # built where it is read, from the final band
        assert built == [final]
        assert final.coeffs.tobytes() == cfg.grid.ops.from_band(run.band).tobytes()

    @pytest.mark.parametrize("dim,n", [(2, 16), (2, 32), (2, 128), (3, 16)])
    @pytest.mark.parametrize("kind", InitialCondition._KINDS)
    @pytest.mark.parametrize("amplitude", [0.3, 1.0])
    def test_start_is_the_band_of_the_full_layout_start(self, dim, n, kind, amplitude):
        # drawn onto the band and projected there, times 1 + 0j: the bits
        # of the start projected and dealiased on the full layout, the signs
        # of its zeros included
        cfg = make_config(grid=TorusGrid(dim, n),
                          initial=InitialCondition(kind, amplitude, k_max=2))
        for path_id in range(3):
            start = initial_state(cfg, 7, path_id)
            assert start.shape == (dim,) + cfg.grid.ops.band_shape
            assert start.dtype == np.complex128 and not start.flags.writeable
            want = cfg.grid.ops.to_band(full_layout_start(cfg, 7, path_id).coeffs)
            assert start.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()

    def test_a_worker_sends_the_final_band(self):
        # the final state goes up a worker's pipe as its band array, and the
        # run rebuilt from it keeps every bit
        cfg = make_config(grid=TorusGrid(2, 32), eps=0.05, horizon=1.0 / 16,
                          forcing=default_forcing(2, 0.3),
                          initial=InitialCondition("random_spectrum", 0.4))
        run, trace = traced_run(cfg, 2, 0)
        out = io.BytesIO()
        solver._serve(iter([(cfg, None, run, None, [trace])]), out)
        kind, (band, err, kept) = pickle.loads(out.getvalue())
        assert (kind, err) == ("run", None)
        assert band.shape == (2,) + cfg.grid.ops.band_shape
        assert band.tobytes() == run.band.tobytes()
        reader = io.BytesIO(out.getvalue())
        _, _, got, _, [got_trace] = solver._receive(solver._Worker(0, reader), cfg, None)
        assert got_trace.energy.tobytes() == trace.energy.tobytes()
        assert got.final.coeffs.tobytes() == run.final.coeffs.tobytes()

    @pytest.mark.parametrize("dim,n", [(2, 8), (2, 32), (3, 16)])
    def test_viscous_factor_is_the_band_of_the_full_factor(self, dim, n):
        cfg = make_config(grid=TorusGrid(dim, n), eps=0.07, dt=1.0 / 64)
        full = np.exp(-cfg.eps * cfg.grid.ops.k2 * cfg.dt).astype(np.complex128)
        assert cfg.viscous_factor.tobytes() == cfg.grid.ops.to_band(full).tobytes()
        assert not cfg.viscous_factor.flags.writeable

    @pytest.mark.parametrize("dim,n", [(2, 8), (2, 32), (3, 16)])
    def test_initial_energy_is_the_parseval_energy_of_the_start(self, dim, n):
        cfg = make_config(grid=TorusGrid(dim, n), eps=0.05, dt=1.0 / 64,
                          horizon=1.0 / 32, forcing=default_forcing(dim, 0.3),
                          initial=InitialCondition("random_spectrum", 0.5))
        _, trace = traced_run(cfg, 4, 1)
        want = parseval_energy(full_layout_start(cfg, 4, 1))[0]
        assert isinstance(trace.initial_energy, float)
        assert trace.initial_energy.hex() == want.hex() == float(trace.energy[0]).hex()


class TestBandRun:
    """run_path steps on the dealias band and keeps every bit of the
    full-layout step."""

    @pytest.mark.parametrize("transport", [True, False])
    @pytest.mark.parametrize("dim,n", BAND_GRIDS)
    def test_matches_a_loop_of_step_bit_for_bit(self, dim, n, transport):
        grid = TorusGrid(dim, n)
        cfg = make_config(grid=grid, eps=0.02, dt=1.0 / 256, horizon=6.0 / 256,
                          forcing=in_band_forcing(dim, n), transport=transport,
                          initial=InitialCondition("random_spectrum", 0.5))
        seen = []

        class Keep:
            steps = None

            def on_state(self, n, t, band, phys):
                seen.append((band_field(grid, band), phys))

        run, trace = traced_run(cfg, 5, 1, observers=(Keep(),))
        states, points, want_trace = full_layout_run(cfg, 5, 1)
        assert np.array_equal(run.final.coeffs.view(np.uint64),
                              states[-1].coeffs.view(np.uint64))
        for name, want in want_trace.items():
            got = getattr(trace, name)
            assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))
        assert len(seen) == cfg.steps + 1
        outside = ~grid.ops.mask
        for (u, phys), want_u, want_phys in zip(seen, states, points):
            assert np.array_equal(u.coeffs.view(np.uint64), want_u.coeffs.view(np.uint64))
            assert np.array_equal(phys.view(np.uint64), want_phys.view(np.uint64))
            # +0.0 outside the band: every bit zero
            assert not np.any(np.ascontiguousarray(u.coeffs[:, outside]).view(np.uint64))


DT, HORIZON = 1.0 / 64, 0.25   # 16 steps
STEP_TABLE = [   # (time, whether it is a step of DT within HORIZON)
    (0.125, True),
    (0.125 + 2e-8 * DT, False),   # 2e-8 of a step off the grid
    (-DT, False),
    (HORIZON + DT, False),
]


@pytest.mark.parametrize("t,on_grid", STEP_TABLE)
def test_every_reader_maps_a_time_to_a_step_alike(t, on_grid):
    # the loader, SolverConfig, Snapshots, the martingale pairs and the
    # reference build all accept or reject a time by step_index
    def accepts(call, error):
        try:
            call()
        except error:
            return False
        return True

    def loader(**kw):
        raw = {"experiment": "martingale", "grid": {"dim": 2, "n": 16},
               "time": {"dt": DT, "horizon": HORIZON}, "viscosity": {"eps": 0.05},
               "forcing": {"preset": "default"},
               "ensemble": {"paths": 32, "seed": 1}}
        for key, val in kw.items():
            raw[key] = dict(raw.get(key, {}), **val)
        return lambda: parse_config(raw, "martingale")

    pair = (0.0, t) if t > 0 else (t, HORIZON)
    cfg = make_config(grid=TorusGrid(2, 16), dt=DT, horizon=HORIZON,
                      initial=InitialCondition("zero"))
    m, beta = np.zeros((1, cfg.steps + 1)), np.zeros((1, cfg.steps + 1, 1))
    verdicts = {
        "loader pairs": accepts(loader(martingale={"pairs": [list(pair)]}),
                                ConfigError),
        "Snapshots": accepts(lambda: Snapshots(cfg, [t]), SolverError),
        "_by_pair": accepts(lambda: _by_pair(m, m, beta, [pair], DT), LimitError),
        "build_reference": accepts(
            lambda: build_reference(cfg, CellPartition(2, 16, 1, 2, 0.0, HORIZON),
                                    [0.0, t], cfg),
            WeakStrongError),
    }
    if t <= HORIZON:   # a horizon bounds itself
        verdicts["loader horizon"] = accepts(loader(time={"horizon": t}),
                                             ConfigError)
        verdicts["SolverConfig"] = accepts(
            lambda: make_config(grid=cfg.grid, dt=DT, horizon=t), SolverError)
    assert verdicts == dict.fromkeys(verdicts, on_grid)


class TestEnergyAudit:
    def test_zero_solution_zero_defect(self):
        cfg = make_config(initial=InitialCondition("zero"), horizon=0.25)
        _, trace = traced_run(cfg, 1, 0)
        assert trace_defect(trace, 0.0, 0.25) == 0.0
        assert trace.max_positive_defect() == 0.0

    def test_nan_energy_fails_defect_row(self):
        cfg = make_config(eps=0.05, horizon=0.25)
        _, trace = traced_run(cfg, 1, 0)
        energy = trace.energy.copy()
        energy[len(energy) // 2] = np.nan
        trace = replace(trace, energy=energy)
        value = trace.max_positive_defect()
        assert np.isnan(value)
        assert not row_passes(value, trace.tolerance(c=1.0))

    def test_decaying_mode_defect_first_order(self):
        # left-point quadrature of the dissipation leaves an O(dt) defect
        defects = []
        for dt in (1.0 / 32, 1.0 / 64, 1.0 / 128):
            cfg = make_config(eps=0.3, dt=dt, horizon=0.5,
                              initial=InitialCondition("single_mode"))
            _, trace = traced_run(cfg, 1, 0)
            defects.append(abs(trace_defect(trace, 0.0, 0.5)))
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
                _, trace = traced_run(cfg, 21, pid, path=path)
                vals.append(trace.max_positive_defect())
            levels.append(np.mean(vals))
        orders = np.log2(np.array(levels[:-1]) / np.array(levels[1:]))
        assert np.mean(orders) >= 0.5
        # every path honours the sqrt(dt) tolerance at the base level
        cfg = make_config(grid=grid, eps=0.05, dt=base_dt, horizon=0.5,
                          forcing=forcing, initial=initial)
        _, trace = traced_run(cfg, 21, 0)
        assert trace.max_positive_defect() <= trace.tolerance(c=1.0)

    def test_defect_requires_ordered_grid_times(self):
        cfg = make_config(horizon=0.25)
        _, trace = traced_run(cfg, 1, 0)
        with pytest.raises(SolverError):
            trace_defect(trace, 0.25, 0.0)
        with pytest.raises(SolverError):
            trace_defect(trace, 0.0, 0.2499)

    def test_trace_csv_columns(self, tmp_path):
        cfg = make_config(horizon=1.0 / 16, forcing=default_forcing(2))
        _, trace = traced_run(cfg, 3, 0)
        out = tmp_path / "trace.csv"
        trace.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,E,D,I,M,defect"
        assert len(lines) == cfg.steps + 2


class TestAprioriMonitor:
    def test_deterministic_inviscid_moment_is_e0_power(self):
        cfg = make_config(eps=0.0, horizon=0.125)
        _, trace = traced_run(cfg, 1, 0)
        _, rep = apriori_moment_report({0.0: [trace]}, p=3.0)
        e0 = trace.energy[0]
        assert rep["rows"][0]["moment"] == pytest.approx(e0 ** 3, rel=1e-10)

    def test_deterministic_viscous_moment_closed_form(self):
        cfg = make_config(eps=0.05, horizon=0.125)
        _, trace = traced_run(cfg, 1, 0)
        _, rep = apriori_moment_report({0.05: [trace]}, p=2.5)
        expected = (np.max(trace.energy) + trace.dissipation[-1]) ** 2.5
        assert rep["rows"][0]["moment"] == pytest.approx(expected, rel=1e-12)

    def test_uniform_along_ladder(self):
        grid = TorusGrid(2, 16)
        forcing = default_forcing(2, sigma=0.3)
        traces = {}
        for eps in (0.1, 0.05, 0.025):
            cfg = make_config(grid=grid, eps=eps, dt=1.0 / 32, horizon=0.5,
                              forcing=forcing)
            traces[eps] = [traced_run(cfg, 31, pid)[1]
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
            traces = [traced_run(cfg, 37, pid)[1]
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
                _, trace = traced_run(cfg, 71, pid, path=path)
                vals.append(trace.energy[-1])
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
        run, trace = traced_run(cfg, 91, 0)
        assert trace.max_positive_defect() <= trace.tolerance(c=1.0)
        assert divergence_defect(run.final) < 1e-12


class TestInitialArgument:
    """run_path reads ``initial`` through a frozen view and checks it."""

    def test_a_writeable_start_stays_writeable_and_unchanged(self):
        cfg = make_config(grid=TorusGrid(2, 16), eps=0.05, horizon=1.0 / 16,
                          forcing=default_forcing(2, 0.3))
        start = initial_state(cfg, 3, 0).copy()
        before = start.tobytes()
        lone_run(cfg, 3, 0, initial=start)
        assert start.flags.writeable and start.tobytes() == before

    @pytest.mark.parametrize("bad", ["float64", "full layout", "field"])
    def test_a_wrong_start_raises_naming_initial(self, bad):
        cfg = make_config(grid=TorusGrid(2, 16), horizon=1.0 / 16)
        band = initial_state(cfg, 3, 0)
        initial = {"float64": band.real.copy(),
                   "full layout": cfg.grid.ops.from_band(band),
                   "field": band_field(cfg.grid, band)}[bad]
        with pytest.raises(SolverError, match="initial must be a complex128 band array"):
            lone_run(cfg, 3, 0, initial=initial)


class TestEnergyBudget:
    def test_a_run_at_half_the_dt_sums_m_over_the_refined_increments(self):
        base = make_config(grid=TorusGrid(2, 16), eps=0.05, dt=1.0 / 32, horizon=0.125,
                           forcing=default_forcing(2, 0.3),
                           initial=InitialCondition("random_spectrum", 0.3))
        fine = replace(base, dt=base.dt / 2)
        states = []

        class Keep:
            steps = None

            def on_state(self, n, t, band, phys):
                states.append(band_field(fine.grid, band))

            def payload(self):
                return None

        def observers(cfg, path):
            return (EnergyBudget(cfg, path), Keep()) if cfg is fine else ()
        [(_, drawn, _, err, [trace, _])] = [
            item for item in run_ensemble([fine, base], 5, [4], observers, draw=base)
            if item[0] is fine]
        assert err is None and len(trace.times) == fine.steps + 1
        refined = drawn.refined(2).increments
        g = [SpectralField(fine.grid, m.sigma * fine.forcing.mode_field(fine.grid, k).coeffs)
             for k, m in enumerate(fine.forcing.modes)]
        want = [sum(inner_product(u, g[k]) * refined[i, k] for k in range(len(g)))
                for i, u in enumerate(states[:-1])]
        assert np.allclose(np.diff(trace.stochastic), want, rtol=1e-12, atol=0.0)
        drawn_only = [sum(inner_product(u, g[k]) * drawn.increments[i // 2, k] / 2
                          for k in range(len(g))) for i, u in enumerate(states[:-1])]
        assert not np.allclose(np.diff(trace.stochastic), drawn_only, rtol=1e-6)
