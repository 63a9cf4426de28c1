"""Each input rule is stated once: every reader accepts or rejects alike.

A rule lives in the module that owns the decision and takes the error to
raise; the loader passes one that names the field, the library entry
points their own exception types.  Each table below runs one rule's inputs,
NaN among them, through every reader of the rule.
"""

import copy
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import dissipeuler.solver as solver
from dissipeuler.config import ConfigError, load_config, parse_config
from dissipeuler.forcing import (
    ForcingError,
    WienerPath,
    auxiliary_normals,
    check_dt,
    check_seed,
    default_forcing,
)
from dissipeuler.limits import (
    EnsembleFunctionals,
    LimitError,
    MartingaleStat,
    check_alpha,
    check_martingale_paths,
    martingale_test,
    run_ladder,
)
from dissipeuler.solver import InitialCondition, SolverConfig, SolverError
from dissipeuler.spectral import TorusGrid
from dissipeuler.weakstrong import (
    StrongReference,
    WeakStrongError,
    stopping_time,
    weak_strong_ladder,
)
from dissipeuler.young import (
    Binning,
    CellPartition,
    YoungMeasureError,
)

NAN, INF = math.nan, math.inf
DT, HORIZON = 1.0 / 32, 0.25   # 8 steps


class _Ran(Exception):
    """Raised in place of a run: the reader accepted its input."""


@pytest.fixture
def no_runs(monkeypatch):
    def ran(*args, **kwargs):
        raise _Ran
    monkeypatch.setattr(solver, "run_path", ran)


def accepts(call, error, field=None):
    """Whether ``call`` returns (or reaches a run) rather than raise ``error``;
    a ``ConfigError`` must name ``field`` or an entry of it."""
    try:
        call()
    except _Ran:
        return True
    except error as err:
        if field is not None:
            assert err.path.split("[")[0] == field, err.path
        return False
    return True


def raw_config(experiment, **sections):
    raw = {
        "experiment": experiment,
        "grid": {"dim": 2, "n": 16},
        "time": {"dt": DT, "horizon": HORIZON},
        "viscosity": {"ladder": [0.1, 0.05]} if experiment in ("vanish", "weakstrong")
        else {"eps": 0.05},
        "forcing": {"preset": "default", "sigma": 0.1},
        "initial": {"kind": "random_spectrum", "amplitude": 0.3, "k_max": 2},
        "ensemble": {"paths": 32, "seed": 3},
        "young": {"time_cells": 2, "space_cells": 4, "snapshots_per_slab": 2},
    }
    for name, values in sections.items():
        raw[name] = dict(raw.get(name, {}), **values)
    return raw


def loader(experiment, **sections):
    raw = raw_config(experiment, **sections)
    return lambda: parse_config(copy.deepcopy(raw), experiment)


WEAK = SolverConfig(grid=TorusGrid(2, 16), forcing=default_forcing(2, 0.1), eps=0.1,
                    dt=DT, horizon=HORIZON, initial=InitialCondition("zero"))
PARTITION = CellPartition(2, 16, 2, 4, 0.0, HORIZON)
TIMES = [0.0, 0.0625, 0.1875, 0.25]
BINNING = Binning(PARTITION, 4.0, 16, 32)


def weak_ladder(eps_values=(0.1, 0.05), ref_n=32, dt_factor=2,
                partition=PARTITION, times=TIMES):
    return lambda: weak_strong_ladder(eps_values, WEAK, ref_n, dt_factor, seed=1,
                                      path_ids=[0], binning=Binning(partition, 4.0, 16, 32),
                                      snapshot_times=times)


LADDERS = [   # (rungs, strictly decreasing and finite, and every rung > 0)
    ((0.1, 0.05), True, True),
    ((0.1, 0.05, 0.025), True, True),
    ((0.1, 0.0), True, False),
    ((0.1, 0.1), False, False),
    ((0.05, 0.1), False, False),
    ((0.1, 0.05, 0.05), False, False),
    ((), False, False),
    ((0.1, NAN), False, False),
    ((NAN, 0.1), False, False),
    ((INF, 0.1), False, False),
]


@pytest.mark.parametrize("rungs,decreasing,positive", LADDERS)
def test_every_reader_checks_a_ladder_alike(no_runs, rungs, decreasing, positive):
    # the vanishing-viscosity ladder (the loader, run_ladder) also needs
    # positive rungs; the weak-strong ladder allows an eps = 0 rung
    ladder = {"ladder": list(rungs)}
    verdicts = {
        "loader vanish": accepts(loader("vanish", viscosity=ladder),
                                 ConfigError, "viscosity.ladder"),
        "loader weakstrong": accepts(loader("weakstrong", viscosity=ladder),
                                     ConfigError, "viscosity.ladder"),
        "run_ladder": accepts(lambda: run_ladder(rungs, WEAK, 1, [0], BINNING, TIMES),
                              LimitError),
    }
    assert verdicts == dict.fromkeys(verdicts, decreasing and positive)
    assert accepts(weak_ladder(rungs), WeakStrongError) == decreasing


@pytest.mark.parametrize("factor,power_of_two", [
    (1, True), (2, True), (4, True), (0, False), (3, False), (6, False),
    (-2, False), (NAN, False)])
def test_every_reader_checks_a_dt_refinement_alike(no_runs, factor, power_of_two):
    path = WienerPath.sample(5, 0, 2, DT, 4)
    verdicts = {
        "loader": accepts(loader("weakstrong", reference={"dt_factor": factor}),
                          ConfigError, "reference.dt_factor"),
        "weak_strong_ladder": accepts(weak_ladder(dt_factor=factor), WeakStrongError),
        "WienerPath.refined": accepts(lambda: path.refined(factor), ForcingError),
    }
    assert verdicts == dict.fromkeys(verdicts, power_of_two)


@pytest.mark.parametrize("ref_n,refines", [
    (16, True), (32, True), (64, True), (8, False), (NAN, False)])
def test_every_reader_checks_a_reference_grid_alike(no_runs, ref_n, refines):
    verdicts = {
        "loader": accepts(loader("weakstrong", reference={"n": ref_n}),
                          ConfigError, "reference.n"),
        "weak_strong_ladder": accepts(weak_ladder(ref_n=ref_n), WeakStrongError),
    }
    assert verdicts == dict.fromkeys(verdicts, refines)


@pytest.mark.parametrize("cells,per_slab,covered", [
    (2, 1, True), (8, 2, True), (9, 1, True), (8, 1, False), (10, 2, False)])
def test_every_reader_checks_slab_coverage_alike(no_runs, cells, per_slab,
                                                 covered):
    # the snapshot times are those the loader forms for the cells, on the
    # 8 steps of the run
    young = {"time_cells": cells, "snapshots_per_slab": per_slab}
    cfg = parse_config(raw_config("ym"), "ym")
    cfg = replace(cfg, young=replace(cfg.young, **young))
    part, times = cfg.binning.partition, list(cfg.snapshot_times)
    verdicts = {
        experiment: accepts(loader(experiment, young=young), ConfigError,
                            "young.time_cells")
        for experiment in ("vanish", "ym", "weakstrong")}
    verdicts["CellPartition"] = accepts(lambda: part.check_slabs(times),
                                        YoungMeasureError)
    verdicts["weak_strong_ladder"] = accepts(
        weak_ladder(partition=part, times=times), WeakStrongError)
    assert verdicts == dict.fromkeys(verdicts, covered)


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_slab_check_rejects_a_non_finite_time(bad):
    # the slab of a NaN or infinite time would be int() of it, which raises
    # a bare ValueError or OverflowError in place of the rule's error
    part = CellPartition(2, 16, 2, 4, 0.0, 0.25)
    for error in (YoungMeasureError, WeakStrongError):
        with pytest.raises(error, match="not finite"):
            part.check_slabs([0.0, bad, 0.25], error)


@pytest.mark.parametrize("rungs,named", [
    ((0.1, -0.05), "-0.05"), ((0.0, -0.1), "-0.1"), ((-0.05, -0.1), "-0.05")])
def test_weak_strong_ladder_rejects_a_negative_rung(no_runs, rungs, named):
    # up front, as the ladder's own error, not as SolverError from a rung config
    with pytest.raises(WeakStrongError, match=f"must be >= 0 and finite, got {named}"):
        weak_ladder(rungs)()


@pytest.mark.parametrize("dt,valid", [
    (DT, True), (DT / 2, True), (0.0, False), (-DT, False), (NAN, False), (INF, False)])
def test_every_reader_checks_a_time_step_alike(dt, valid):
    # a NaN or infinite dt fails where it enters, not as a blow-up later
    verdicts = {
        "loader": accepts(loader("simulate", time={"dt": dt}), ConfigError, "time.dt"),
        "SolverConfig": accepts(lambda: replace(WEAK, dt=dt), SolverError),
        "WienerPath.sample": accepts(lambda: WienerPath.sample(1, 0, 4, dt, 8), ForcingError),
        "check_dt": accepts(lambda: check_dt(dt), ForcingError),
    }
    assert verdicts == dict.fromkeys(verdicts, valid)


def test_run_path_rejects_a_path_at_a_nan_dt():
    # the path's dt must match the configuration's, which a NaN does not
    path = WienerPath(1, 0, NAN, np.zeros((8, 4)))
    with pytest.raises(SolverError, match="does not match config dt"):
        solver.run_path(WEAK, path, solver.initial_state(WEAK, 1, 0))


@pytest.mark.parametrize("eps,valid", [
    (0.05, True), (0.0, True), (-0.05, False), (-INF, False), (INF, False), (NAN, False)])
def test_every_reader_checks_a_viscosity_alike(no_runs, eps, valid):
    viscosity = {"eps": eps}
    verdicts = {
        experiment: accepts(loader(experiment, viscosity=viscosity), ConfigError,
                            "viscosity.eps")
        for experiment in ("simulate", "ym", "martingale")}
    verdicts["SolverConfig"] = accepts(lambda: replace(WEAK, eps=eps), SolverError)
    verdicts["weak_strong_ladder"] = accepts(weak_ladder((eps,)), WeakStrongError)
    assert verdicts == dict.fromkeys(verdicts, valid)


@pytest.mark.parametrize("level,valid", [
    (2.5, True), (1e-300, True), (0.0, False), (-1.0, False), (NAN, False),
    (INF, False)])
def test_every_reader_checks_a_gronwall_level_alike(no_runs, level, valid):
    # the weak-strong ladder checks a given level before any run
    ref = StrongReference(np.array(TIMES), np.array([1.0, 2.0, 3.0, 4.0]),
                          HORIZON, np.zeros((2, 16, 2)), np.zeros(2), 0.0)
    verdicts = {
        "loader": accepts(loader("weakstrong", reference={"level": level}),
                          ConfigError, "reference.level"),
        "weak_strong_ladder": accepts(
            lambda: weak_strong_ladder((0.1, 0.05), WEAK, 32, 2, seed=1, path_ids=[0],
                                       binning=BINNING, snapshot_times=TIMES,
                                       level=level), WeakStrongError),
        "stopping_time": accepts(lambda: stopping_time(ref, level), WeakStrongError),
    }
    assert verdicts == dict.fromkeys(verdicts, valid)


@pytest.mark.parametrize("paths,enough", [(32, True), (33, True), (31, False), (8, False)])
def test_every_reader_checks_a_martingale_ensemble_alike(paths, enough):
    linear = {"solver": {"transport": False}, "viscosity": {"eps": 0.0},
              "initial": {"kind": "zero"}, "martingale": {"linear_paths": paths}}
    ens = EnsembleFunctionals(np.zeros(paths), np.zeros(paths), np.zeros((paths, 4)),
                              np.zeros((paths, 4)), np.zeros(paths))
    verdicts = {
        "loader": accepts(loader("martingale", ensemble={"paths": paths}),
                          ConfigError, "ensemble.paths"),
        "loader linear": accepts(loader("martingale", **linear), ConfigError,
                                 "martingale.linear_paths"),
        "martingale_test": accepts(
            lambda: martingale_test(MartingaleStat("phi", 0.0, 0.125), ens, np.zeros(4)),
            LimitError),
        "check_martingale_paths": accepts(lambda: check_martingale_paths(paths), LimitError),
    }
    assert verdicts == dict.fromkeys(verdicts, enough)


@pytest.mark.parametrize("s,t,ordered", [
    (0.0, 0.125, True), (0.0625, 0.125, True), (0.125, 0.25, True),
    (0.125, 0.125, False), (0.125, 0.0625, False), (-0.03125, 0.125, False),
    (NAN, 0.125, False), (0.0625, NAN, False)])
def test_every_reader_checks_a_martingale_pair_alike(s, t, ordered):
    verdicts = {
        "loader": accepts(loader("martingale", martingale={"pairs": [[s, t]]}),
                          ConfigError, "martingale.pairs"),
        "MartingaleStat": accepts(lambda: MartingaleStat("phi", s, t), LimitError),
    }
    assert verdicts == dict.fromkeys(verdicts, ordered)


@pytest.mark.parametrize("radius,valid", [
    (4.0, True), (1e-300, True), (0.0, False), (-1.0, False), (NAN, False),
    (INF, False)])
def test_every_reader_checks_a_radius_alike(radius, valid):
    verdicts = {
        experiment: accepts(loader(experiment, young={"radius": radius}),
                            ConfigError, "young.radius")
        for experiment in ("vanish", "ym", "weakstrong")}
    verdicts["Binning"] = accepts(lambda: Binning(PARTITION, radius, 16, 32),
                                  YoungMeasureError)
    assert verdicts == dict.fromkeys(verdicts, valid)


@pytest.mark.parametrize("field", ["bins_per_axis", "sphere_bins"])
@pytest.mark.parametrize("count,valid", [
    (1, True), (8, True), (0, False), (-2, False), (NAN, False)])
def test_every_reader_checks_a_bin_count_alike(field, count, valid):
    bins = {"bins_per_axis": 16, "sphere_bins": 32, field: count}
    verdicts = {
        experiment: accepts(loader(experiment, young={field: count}),
                            ConfigError, f"young.{field}")
        for experiment in ("vanish", "ym", "weakstrong")}
    verdicts["Binning"] = accepts(lambda: Binning(PARTITION, 4.0, **bins),
                                  YoungMeasureError)
    assert verdicts == dict.fromkeys(verdicts, valid)


@pytest.mark.parametrize("history,known", [
    ("one", True), ("clamp_pair", True), ("clamp_beta", True), ("two", False),
    ("One", False), ("", False), (NAN, False)])
def test_every_reader_checks_a_history_alike(history, known):
    verdicts = {
        "loader": accepts(loader("martingale", martingale={"histories": [history]}),
                          ConfigError, "martingale.histories"),
        "MartingaleStat": accepts(lambda: MartingaleStat("phi", 0.0, 0.125, history),
                                  LimitError),
    }
    assert verdicts == dict.fromkeys(verdicts, known)


@pytest.mark.parametrize("alpha,valid", [
    (0.05, True), (0.5, True), (1e-300, True), (0.0, False), (1.0, False),
    (1.5, False), (5.0, False), (-0.05, False), (NAN, False), (INF, False)])
def test_every_reader_checks_a_martingale_level_alike(alpha, valid):
    # alpha = 0 would give z = inf, so every row would pass; alpha > 1 a
    # negative or NaN tolerance
    rng = np.random.default_rng(4)
    ens = EnsembleFunctionals(rng.standard_normal(40), rng.standard_normal(40),
                              np.zeros((40, 1)), rng.standard_normal((40, 1)),
                              np.zeros(40))
    verdicts = {
        "loader": accepts(loader("martingale", tolerances={"martingale_alpha": alpha}),
                          ConfigError, "tolerances.martingale_alpha"),
        "martingale_test": accepts(lambda: martingale_test(
            MartingaleStat("phi", 0.1, 0.2), ens, np.array([0.1]), alpha=alpha), LimitError),
        "check_alpha": accepts(lambda: check_alpha(alpha), LimitError),
    }
    assert verdicts == dict.fromkeys(verdicts, valid)


@pytest.mark.parametrize("seed,valid", [
    (0, True), (3, True), (2 ** 64 - 1, True), (-1, False), (2 ** 64, False),
    (NAN, False)])
def test_every_reader_checks_a_seed_alike(tmp_path, seed, valid):
    # numpy would raise its own OverflowError for a seed outside uint64
    raw = raw_config("simulate")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    verdicts = {
        "loader": accepts(loader("simulate", ensemble={"seed": seed}), ConfigError,
                          "ensemble.seed"),
        "--seed": accepts(lambda: load_config(path, "simulate", seed=seed), ConfigError,
                          "ensemble.seed"),
        "WienerPath.sample_many": accepts(
            lambda: WienerPath.sample_many(seed, [0], 4, 0.1, 3), ForcingError),
        "WienerPath.sample": accepts(lambda: WienerPath.sample(seed, 0, 4, 0.1, 3),
                                     ForcingError),
        "auxiliary_normals": accepts(lambda: auxiliary_normals(seed, 0, 0, 4), ForcingError),
        "check_seed": accepts(lambda: check_seed(seed), ForcingError),
    }
    assert verdicts == dict.fromkeys(verdicts, valid)


@pytest.mark.parametrize("field", ["blowup_ceiling", "cfl_number"])
@pytest.mark.parametrize("value,valid", [
    (1e3, True), (0.5, True), (1e-300, True), (0.0, False), (-1.0, False),
    (NAN, False), (INF, False)])
def test_every_reader_checks_a_blow_up_guard_alike(field, value, valid):
    # a ceiling of -1 or NaN would fail every run at its first step, a CFL
    # number of 0 or -1 would report every run as a CFL violation
    verdicts = {
        "loader": accepts(loader("simulate", solver={field: value}), ConfigError,
                          f"solver.{field}"),
        "SolverConfig": accepts(lambda: replace(WEAK, **{field: value}), SolverError),
    }
    assert verdicts == dict.fromkeys(verdicts, valid)


@pytest.mark.parametrize("field", ["time_cells", "space_cells"])
@pytest.mark.parametrize("count,valid", [
    (1, True), (2, True), (0, False), (-2, False), (NAN, False)])
def test_every_reader_checks_a_cell_count_alike(field, count, valid):
    cells = {"time_cells": 2, "space_cells": 4, field: count}
    verdicts = {
        experiment: accepts(loader(experiment, young={field: count}), ConfigError,
                            f"young.{field}")
        for experiment in ("vanish", "ym", "weakstrong")}
    verdicts["CellPartition"] = accepts(
        lambda: CellPartition(2, 16, cells["time_cells"], cells["space_cells"], 0.0,
                              HORIZON), YoungMeasureError)
    assert verdicts == dict.fromkeys(verdicts, valid)


@pytest.mark.parametrize("space_cells,divides", [
    (4, True), (16, True), (3, False), (6, False), (32, False)])
def test_every_reader_checks_space_cells_divide_the_grid_alike(space_cells, divides):
    verdicts = {
        experiment: accepts(loader(experiment, young={"space_cells": space_cells}),
                            ConfigError, "young.space_cells")
        for experiment in ("vanish", "ym", "weakstrong")}

    def partition():
        return CellPartition(2, 16, 2, space_cells, 0.0, HORIZON)
    verdicts["CellPartition"] = accepts(partition, YoungMeasureError)
    assert verdicts == dict.fromkeys(verdicts, divides)
    if not divides:   # the one rule's message, from every reader
        message = rf"space cells \({space_cells}\) must divide the grid n=16"
        for call, error in ((loader("ym", young={"space_cells": space_cells}), ConfigError),
                            (partition, YoungMeasureError)):
            with pytest.raises(error, match=message):
                call()


class TestNanFails:
    def test_solver_config_rejects_nan_viscosity(self):
        # a NaN eps would skip the viscous factor and run as eps = 0
        with pytest.raises(SolverError, match="viscosity"):
            replace(WEAK, eps=NAN)

    def test_binning_rejects_nan_radius(self):
        # a NaN radius would send every sample to the concentration part
        with pytest.raises(YoungMeasureError, match="radius"):
            Binning(PARTITION, NAN, 16, 32)

    def test_martingale_ensemble_rule_rejects_nan(self):
        with pytest.raises(LimitError, match="need >= 32 paths, got nan"):
            check_martingale_paths(NAN)

    def test_stopping_time_rejects_nan_level(self):
        # a NaN level would never stop
        ref = StrongReference(np.array(TIMES), np.array([1.0, 2.0, 3.0, 4.0]),
                              HORIZON, np.zeros((2, 16, 2)), np.zeros(2), 0.0)
        assert stopping_time(ref, 2.5) == 0.1875
        with pytest.raises(WeakStrongError, match="threshold"):
            stopping_time(ref, NAN)
