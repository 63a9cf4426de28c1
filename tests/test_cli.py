"""Config schema, artifact determinism, reporting, CLI exit codes."""

import builtins
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dissipeuler.cli as cli
import dissipeuler.config as config
from dissipeuler.cli import main
from dissipeuler.config import (
    ConfigError,
    MartingaleSpec,
    ReferenceSpec,
    RunConfig,
    ToleranceSet,
    YoungSpec,
    parse_config,
)
from dissipeuler.manifest import RunDirectory, read_manifest, verify_manifest
from dissipeuler.reporting import all_passed, audit_row
from dissipeuler.solver import InitialCondition, SolverConfig
from dissipeuler.young import estimate_from_family, read_measure, write_measure

from conftest import Snapshots, bin_run, lone_run

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
WORKLOADS = json.loads((ROOT / "perfbench" / "workloads.json").read_text())


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def zero_config():
    return {
        "experiment": "simulate",
        "grid": {"dim": 2, "n": 16},
        "time": {"dt": 0.0625, "horizon": 0.25},
        "viscosity": {"eps": 0.0},
        "initial": {"kind": "zero"},
        "ensemble": {"paths": 1, "seed": 1},
    }


def forced_config(paths=2, seed=77):
    return {
        "experiment": "simulate",
        "grid": {"dim": 2, "n": 16},
        "time": {"dt": 0.03125, "horizon": 0.25},
        "viscosity": {"eps": 0.05},
        "forcing": {"preset": "default", "sigma": 0.1},
        "initial": {"kind": "random_spectrum", "amplitude": 0.3, "k_max": 2},
        "ensemble": {"paths": paths, "seed": seed},
    }


def ym_config():
    raw = forced_config(paths=1)
    raw["experiment"] = "ym"
    raw["young"] = {"time_cells": 2, "space_cells": 4, "radius": 4.0}
    return raw


class TestSchema:
    def test_unknown_key_reports_path(self):
        raw = zero_config()
        raw["young"] = {"space_cells": 4, "bogus_knob": 1}
        with pytest.raises(ConfigError) as err:
            parse_config(raw, "simulate")
        assert "young.bogus_knob" in str(err.value)

    def test_missing_required_reports_path(self):
        raw = zero_config()
        del raw["ensemble"]
        with pytest.raises(ConfigError) as err:
            parse_config(raw, "simulate")
        assert "ensemble" in str(err.value)

    def test_missing_seed_rejected(self):
        raw = zero_config()
        del raw["ensemble"]["seed"]
        with pytest.raises(ConfigError) as err:
            parse_config(raw, "simulate")
        assert "ensemble.seed" in str(err.value)

    def test_type_error_reports_path(self):
        raw = zero_config()
        raw["time"]["dt"] = "fast"
        with pytest.raises(ConfigError) as err:
            parse_config(raw, "simulate")
        assert "time.dt" in str(err.value)

    def test_experiment_mismatch(self):
        raw = zero_config()
        with pytest.raises(ConfigError) as err:
            parse_config(raw, "vanish")
        assert "experiment" in str(err.value)

    def test_ladder_validation(self):
        raw = zero_config()
        raw["experiment"] = "vanish"
        raw["viscosity"] = {"ladder": [0.05, 0.1]}
        with pytest.raises(ConfigError) as err:
            parse_config(raw, "vanish")
        assert "viscosity.ladder" in str(err.value)

    def test_forcing_beyond_nyquist(self):
        raw = zero_config()
        raw["forcing"] = {"modes": [
            {"k": [9, 0], "direction": [0, 1], "sigma": 0.1}]}
        with pytest.raises(ConfigError) as err:
            parse_config(raw, "simulate")
        assert "forcing" in str(err.value)

    def test_negative_seed_rejected(self):
        raw = zero_config()
        raw["ensemble"]["seed"] = -1
        with pytest.raises(ConfigError) as err:
            parse_config(raw, "simulate")
        assert "ensemble.seed" in str(err.value)

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, where):
        raw = zero_config()
        argv = []
        if where == "config":
            raw["ensemble"]["seed"] = -1
        else:
            argv = ["--seed", "-1"]
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]
                    + argv) == 2
        assert "ensemble.seed" in capsys.readouterr().err
        assert not out.exists()

    def test_horizon_not_multiple_of_dt_rejected(self):
        raw = zero_config()
        raw["time"] = {"dt": 0.03, "horizon": 0.25}
        with pytest.raises(ConfigError) as err:
            parse_config(raw, "simulate")
        assert err.value.path == "time.horizon"

    def test_horizon_not_multiple_of_dt_exits_2(self, tmp_path, capsys):
        raw = zero_config()
        raw["time"] = {"dt": 0.03, "horizon": 0.25}
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "time.horizon" in capsys.readouterr().err
        assert not out.exists()

    def test_one_step_without_pairs_blames_horizon(self, tmp_path, capsys):
        # one step leaves no default martingale pair (it would be (0, 0));
        # the error names the horizon the user wrote, not martingale.pairs
        raw = zero_config()
        raw["time"] = {"dt": 0.25, "horizon": 0.25}
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "time.horizon" in err and "martingale.pairs" not in err
        assert not out.exists()
        raw["martingale"] = {"pairs": [[0.0, 0.25]]}
        assert parse_config(raw, "simulate").martingale.pairs == ((0.0, 0.25),)

    def test_forcing_outside_dealias_band_exits_2(self, tmp_path, capsys):
        # (6, 0) is below the Nyquist limit 7 of n = 16 but above its
        # dealias cutoff 5; the second mode is the one named
        raw = zero_config()
        raw["forcing"] = {"modes": [
            {"k": [1, 0], "direction": [0, 1], "sigma": 0.1},
            {"k": [6, 0], "direction": [0, 1], "sigma": 0.1}]}
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "forcing.modes[1]" in capsys.readouterr().err
        assert not out.exists()
        raw["forcing"]["modes"][1]["k"] = [5, 0]
        assert parse_config(raw, "simulate").solver.forcing.rank == 2

    def test_martingale_without_forcing_exits_2(self, tmp_path, capsys):
        raw = zero_config()
        raw["experiment"] = "martingale"
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        assert main(["martingale", "--config", str(cfg), "--out", str(out)]) == 2
        assert "forcing" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment,section,key,value,field", [
        ("simulate", "grid", "n", 7, "grid.n"),
        ("simulate", "grid", "dim", 4, "grid.dim"),
        ("ym", "young", "space_cells", 0, "young.space_cells"),
        ("martingale", "martingale", "pairs", [5], "martingale.pairs[0]"),
        ("ym", "young", "bins_per_axis", 0, "young.bins_per_axis"),
        ("ym", "young", "time_cells", 0, "young.time_cells"),
        ("ym", "young", "snapshots_per_slab", 0, "young.snapshots_per_slab"),
        ("ym", "young", "snapshots_per_slab", 2 ** 16 + 1,
         "young.snapshots_per_slab"),
        ("ym", "young", "time_cells", 64, "young.time_cells"),
        ("simulate", "initial", "k_max", 6, "initial.k_max"),
        ("simulate", "initial", "k_max", 0, "initial.k_max"),
        ("simulate", "time", "horizon", 0.0, "time.horizon"),
        ("simulate", "initial", "decay", -1000.0, "initial.decay"),
        ("martingale", "martingale", "pairs", [[0.1, 0.2]], "martingale.pairs[0]"),
        ("simulate", "solver", "cfl_number", -1.0, "solver.cfl_number"),
        ("simulate", "solver", "cfl_number", 0.0, "solver.cfl_number"),
        ("simulate", "solver", "blowup_ceiling", -1.0, "solver.blowup_ceiling"),
        ("simulate", "solver", "blowup_ceiling", 0.0, "solver.blowup_ceiling"),
        ("simulate", "reference", "tail_tol", -1.0, "reference.tail_tol"),
        ("simulate", "tolerances", "martingale_alpha", 1.0,
         "tolerances.martingale_alpha"),
        ("simulate", "tolerances", "martingale_alpha", 1000.0,
         "tolerances.martingale_alpha"),
        ("simulate", "forcing", "modes", [], "forcing.modes"),
        ("simulate", "forcing", "modes",
         [{"k": [1, 0], "direction": [0.0, 1.0], "sigma": 0.3}], "forcing"),
        ("vanish", "viscosity", "ladder", [0.1, 0.1], "viscosity.ladder"),
        ("vanish", "viscosity", "ladder", [0.1, 0.0], "viscosity.ladder"),
        ("weakstrong", "reference", "n", 8, "reference.n"),
        ("weakstrong", "reference", "dt_factor", 3, "reference.dt_factor"),
        ("weakstrong", "reference", "dt_factor", 0, "reference.dt_factor"),
        ("weakstrong", "reference", "level", 0.0, "reference.level"),
    ])
    def test_malformed_field_exits_2(self, tmp_path, capsys, experiment,
                                     section, key, value, field):
        raw = forced_config(paths=1)
        raw["experiment"] = experiment
        if experiment in ("vanish", "weakstrong"):
            raw["viscosity"] = {"ladder": [0.1, 0.05]}
        raw.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError) as err:
            parse_config(raw, experiment)
        assert err.value.path == field
        out = tmp_path / "run"
        assert main([experiment, "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 2
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("transport,field", [
        (True, "ensemble.paths"), (False, "martingale.linear_paths")])
    def test_small_martingale_ensemble_exits_2(self, tmp_path, capsys,
                                               transport, field):
        # the ensemble the statistics would run on has 8 paths; the other
        # count is large enough, so only the one in use is checked
        raw = forced_config(paths=8 if transport else 64)
        raw["experiment"] = "martingale"
        raw["martingale"] = {"linear_paths": 64 if transport else 8}
        raw["solver"] = {"transport": transport}
        with pytest.raises(ConfigError) as err:
            parse_config(raw, "martingale")
        assert err.value.path == field
        out = tmp_path / "run"
        assert main(["martingale", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 2
        assert f"config error: {field}: need >= 32 paths, got 8" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("viscosity,initial,field", [
        ({"eps": 0.05}, {"kind": "zero"}, "viscosity.eps"),
        ({"eps": 0.0}, {"kind": "single_mode", "amplitude": 0.3}, "initial.kind"),
        ({"eps": 0.0}, None, "initial.kind"),   # the default start is taylor_green
    ], ids=["viscous", "single_mode", "default_start"])
    def test_transport_off_martingale_outside_linear_model_exits_2(
            self, tmp_path, capsys, viscosity, initial, field):
        # the transport-off martingale reads the linear model, which holds
        # for eps = 0 from u(0) = 0 only
        raw = forced_config(paths=64)
        raw["experiment"] = "martingale"
        raw["martingale"] = {"linear_paths": 64}
        raw["solver"] = {"transport": False}
        raw["viscosity"] = viscosity
        if initial is None:
            del raw["initial"]
        else:
            raw["initial"] = initial
        with pytest.raises(ConfigError) as err:
            parse_config(raw, "martingale")
        assert err.value.path == field
        out = tmp_path / "run"
        assert main(["martingale", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 2
        assert f"config error: {field}: the transport-off martingale reads the " \
            "linear model" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_above_memory_ceiling_exits_2(self, tmp_path, capsys):
        # one field of a 3D 2048^3 grid is 206 GB; the loader rejects the
        # config before anything is built or integrated
        raw = zero_config()
        raw["grid"] = {"dim": 3, "n": 2048}
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 2
        assert "config error: grid.n: a run at n=2048 in 3D" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_reference_above_memory_ceiling_names_reference_n(self):
        # weakstrong holds one run on the reference grid, which bins no
        # snapshots: its working fields are above the ceiling at 8192^2,
        # below it at 2048^2
        raw = forced_config(paths=1)
        raw["experiment"] = "weakstrong"
        raw["viscosity"] = {"ladder": [0.1, 0.05]}
        raw["young"] = {"time_cells": 2, "space_cells": 4}
        raw["reference"] = {"n": 8192}
        with pytest.raises(ConfigError) as err:
            parse_config(raw, "weakstrong")
        assert err.value.path == "reference.n"
        assert "GiB ceiling" in str(err.value)
        raw["reference"] = {"n": 2048}
        assert parse_config(raw, "weakstrong").reference.n == 2048

    def test_reference_run_charged_its_working_fields_only(self, tmp_path,
                                                          capsys):
        # the reference run keeps no snapshots: its 16 working fields are
        # about 6.05 GiB at 256^3, under the ceiling, and 48 GiB at 512^3
        raw = forced_config(paths=1)
        raw.update(experiment="weakstrong", grid={"dim": 3, "n": 32},
                   viscosity={"ladder": [0.1, 0.05]},
                   young={"time_cells": 2, "space_cells": 4},
                   reference={"n": 256})
        assert parse_config(raw, "weakstrong").reference.n == 256
        raw["reference"] = {"n": 512}
        out = tmp_path / "run"
        assert main(["weakstrong", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 2
        assert "config error: reference.n: a run at n=512 in 3D" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name,section,key,value,field", [
        ("simulate_demo.json", "ensemble", "paths", 2 ** 24, "ensemble.paths"),
        ("martingale_linear_demo.json", "martingale", "linear_paths", 2 ** 30,
         "martingale.linear_paths"),
        ("martingale_linear_demo.json", "martingale", "linear_paths", 10 ** 400,
         "martingale.linear_paths")])
    def test_wiener_paths_above_memory_ceiling_exit_2(self, tmp_path, capsys, name,
                                                      section, key, value, field):
        # every path is drawn up front: 2^24 simulate paths of 32 steps by 4
        # modes, or 2^30 linear paths, at 24 bytes per (path, step, mode) are
        # far above the ceiling; the loader rejects them before any draw, and
        # a byte count past a float's range still makes a message
        raw = json.loads((CONFIGS / name).read_text())
        raw[section][key] = value
        with pytest.raises(ConfigError) as err:
            parse_config(raw, raw["experiment"])
        assert err.value.path == field
        assert "Wiener paths drawn up front" in str(err.value)
        out = tmp_path / "run"
        assert main([raw["experiment"], "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 2
        assert f"config error: {field}: the Wiener paths" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [("bins_per_axis", 2 ** 16),
                                           ("sphere_bins", 2 ** 30)])
    def test_young_slot_tables_above_memory_ceiling_exit_2(self, tmp_path,
                                                           capsys, key, value):
        # each of the 4 slabs of the ym demo holds a dense int64 count per
        # (space cell, bin) and an int32 slot per (space cell, sphere bin):
        # 2^16 bins per axis are 2^32 bins in 2D, and the larger of the two
        # tables is named
        raw = json.loads((CONFIGS / "ym_demo.json").read_text())
        raw["young"][key] = value
        with pytest.raises(ConfigError) as err:
            parse_config(raw, "ym")
        assert err.value.path == f"young.{key}"
        out = tmp_path / "run"
        assert main(["ym", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 2
        assert f"config error: young.{key}: the " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name,accumulators", [("ym_demo.json", 1),
                                                   ("vanish_demo.json", 2)])
    def test_memory_ceiling_charges_what_a_binner_holds(self, monkeypatch, name,
                                                         accumulators):
        # a measured run's binner holds, per snapshot, up to 24 bytes per
        # grid point and dim + 2 dim^2 f64 sums per space cell, beside its
        # 16 half-spectrum working fields; an accumulator holds its tables
        # and dim + 2 dim^2 f64 sums per cell, and vanish keeps five f64
        # series of steps + 1 entries per (rung, path): the demo loads at a
        # ceiling of exactly its charge and fails one byte below it
        raw = json.loads((CONFIGS / name).read_text())
        cfg = parse_config(raw, raw["experiment"])
        grid, young, dim = cfg.solver.grid, cfg.young, cfg.solver.grid.dim
        n, n_space, n_cells = grid.n, young.space_cells ** dim, cfg.binning.partition.n_cells
        half = 16 * dim * n ** (dim - 1) * (n // 2 + 1)
        binned = 24 * n ** dim + 8 * (dim + 2 * dim * dim) * n_space
        run = len(cfg.snapshot_times) * binned + 16 * half
        paths = 24 * cfg.paths * cfg.solver.steps * cfg.solver.forcing.rank
        tables = accumulators * n_cells * (8 * young.bins_per_axis ** dim
                                           + 8 * young.sphere_bins
                                           + 8 * (dim + 2 * dim * dim))
        traces = 0
        if cfg.experiment == "vanish":
            traces = 40 * (cfg.solver.steps + 1) * cfg.paths * len(cfg.eps_values)
        need = run + paths + tables + traces
        monkeypatch.setattr(config, "MAX_RUN_BYTES", need)
        assert isinstance(parse_config(raw, raw["experiment"]), RunConfig)
        monkeypatch.setattr(config, "MAX_RUN_BYTES", need - 1)
        with pytest.raises(ConfigError, match="ceiling"):
            parse_config(raw, raw["experiment"])

    def test_memory_ceiling_charges_the_energy_traces_vanish_keeps(self):
        # 8 rungs x 64 paths x 2^20 steps on an unforced 8^2 grid: the
        # runs, the paths and the accumulators are small, but every
        # survivor's five f64 energy series hold 20 GiB
        raw = json.loads((CONFIGS / "vanish_demo.json").read_text())
        del raw["forcing"]
        raw["grid"]["n"] = 8
        raw["time"]["dt"] = 2.0 ** -21
        raw["ensemble"]["paths"] = 64
        raw["viscosity"]["ladder"] = [0.1 / 2 ** k for k in range(8)]
        with pytest.raises(ConfigError, match="energy traces") as err:
            parse_config(raw, "vanish")
        assert err.value.path == "ensemble.paths"
        assert "about 20.0 GiB" in str(err.value)

    @pytest.mark.parametrize("name", sorted(
        [p.name for p in CONFIGS.glob("*.json")] + list(WORKLOADS)))
    def test_demos_and_workloads_load_under_the_ceiling(self, name):
        if name in WORKLOADS:
            raw, experiment = WORKLOADS[name]["config"], WORKLOADS[name]["experiment"]
        else:
            raw = json.loads((CONFIGS / name).read_text())
            experiment = raw["experiment"]
        assert isinstance(parse_config(raw, experiment), RunConfig)

    def test_default_pairs_lie_on_the_step_grid(self):
        # 6 steps: the default pair is (1, 3) steps, not (1.5, 3) steps
        raw = forced_config(paths=32)
        raw["experiment"] = "martingale"
        raw["time"] = {"dt": 1.0 / 12, "horizon": 0.5}
        assert parse_config(raw, "martingale").martingale.pairs == \
            ((1.0 / 12, 3.0 / 12),)

    def test_off_grid_pairs_checked_only_for_martingale(self):
        # 0.1 is 3.2 steps of dt = 1/32; experiments that never read the
        # pairs accept them
        raw = forced_config(paths=32)
        raw["martingale"] = {"pairs": [[0.0625, 0.125], [0.1, 0.2]]}
        assert parse_config(raw, "simulate").martingale.pairs[1] == (0.1, 0.2)
        raw["experiment"] = "martingale"
        with pytest.raises(ConfigError) as err:
            parse_config(raw, "martingale")
        assert err.value.path == "martingale.pairs[1]"
        assert "whole numbers of steps" in str(err.value)

    @pytest.mark.parametrize("experiment", ["vanish", "ym", "weakstrong"])
    def test_time_cell_without_snapshot_exits_2(self, tmp_path, capsys,
                                                experiment):
        # 8 steps and one snapshot per slab of 8: rounded to the step grid,
        # three slabs get none, which the measure build would fail on
        raw = forced_config(paths=1)
        raw["experiment"] = experiment
        if experiment != "ym":
            raw["viscosity"] = {"ladder": [0.1, 0.05]}
        raw["young"] = {"time_cells": 8, "space_cells": 4,
                        "snapshots_per_slab": 1}
        with pytest.raises(ConfigError) as err:
            parse_config(raw, experiment)
        assert err.value.path == "young.time_cells"
        assert "3 of 8 time cells" in str(err.value)
        out = tmp_path / "run"
        assert main([experiment, "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 2
        assert "config error: young.time_cells:" in capsys.readouterr().err
        assert not out.exists()
        raw["young"]["snapshots_per_slab"] = 2
        assert parse_config(raw, experiment).binning.partition.n_t == 8

    def test_k_max_bounds_only_the_random_spectrum(self):
        # the cutoff of n = 8 is 2, below the default k_max 3
        raw = zero_config()
        raw["grid"]["n"] = 8
        for kind in ("zero", "taylor_green", "single_mode"):
            raw["initial"] = {"kind": kind}
            assert parse_config(raw, "simulate").solver.initial.k_max == 3
        raw["initial"] = {"kind": "random_spectrum"}
        with pytest.raises(ConfigError) as err:
            parse_config(raw, "simulate")
        assert err.value.path == "initial.k_max"
        raw["initial"]["k_max"] = 2
        assert parse_config(raw, "simulate").solver.initial.k_max == 2

    def test_cauchy_strict_is_not_a_field(self):
        raw = zero_config()
        raw["tolerances"] = {"cauchy_strict": False}
        with pytest.raises(ConfigError) as err:
            parse_config(raw, "simulate")
        assert err.value.path == "tolerances.cauchy_strict"

    def test_valid_config_parses(self):
        cfg = parse_config(forced_config(), "simulate")
        assert cfg.paths == 2
        assert cfg.eps_values == (0.05,)
        assert cfg.solver.forcing.rank == 4

    @pytest.mark.parametrize("text", [
        b"5", b"null", b'"x"', b"[1]", b"[]", b"\xff\xfe{}",
        pytest.param(b"[" * 10 ** 5 + b"]" * 10 ** 5, id="deep")])
    def test_config_not_a_json_object_exits_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: <file>: " in capsys.readouterr().err
        assert not out.exists()

    def test_absent_sections_take_the_dataclass_defaults(self):
        raw = {"grid": {"dim": 2, "n": 16},
               "time": {"dt": 0.0625, "horizon": 0.25},
               "viscosity": {"eps": 0.0},
               "ensemble": {"paths": 1, "seed": 1}}
        cfg = parse_config(raw, "simulate")
        assert cfg.young == YoungSpec()
        assert cfg.tolerances == ToleranceSet()
        assert cfg.reference == ReferenceSpec(4 * 16, 4, None)
        assert cfg.solver.initial == InitialCondition()
        assert cfg.solver.forcing.rank == 0
        defaults = {f.name: f.default for cls in (MartingaleSpec, SolverConfig)
                    for f in dataclasses.fields(cls)}
        for key in ("histories", "linear_paths"):
            assert getattr(cfg.martingale, key) == defaults[key]
        for key in ("blowup_ceiling", "cfl_number", "transport"):
            assert getattr(cfg.solver, key) == defaults[key]

    @pytest.mark.parametrize("key,value", [
        ("eps", 0.1), ("grid", {"dim": 2, "n": 16}), ("dt", 0.0625),
        ("horizon", 0.25), ("forcing", None), ("initial", {"kind": "zero"})])
    def test_supplied_solver_fields_are_not_keys(self, key, value):
        raw = zero_config()
        raw["solver"] = {key: value}
        with pytest.raises(ConfigError) as err:
            parse_config(raw, "simulate")
        assert str(err.value) == f"solver.{key}: unknown key"

    def test_run_config_holds_one_solver_config(self):
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            "experiment", "solver", "eps_values", "paths", "seed", "young",
            "tolerances", "martingale", "reference"]
        raw = forced_config()
        raw.update(experiment="vanish", viscosity={"ladder": [0.1, 0.05]},
                   young={"time_cells": 2, "space_cells": 4})
        assert parse_config(raw, "vanish").solver.eps == 0.1


class TestSimulateCli:
    def test_zero_run_all_zero_trace(self, tmp_path):
        cfg = write_config(tmp_path, zero_config())
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        trace = (out / "traces" / "eps0_path0000.csv").read_text().splitlines()
        assert trace[0] == "t,E,D,I,M,defect"
        for line in trace[1:]:
            cells = [float(x) for x in line.split(",")]
            assert all(x == 0.0 for x in cells[1:])

    def test_rerun_bit_identical_manifest(self, tmp_path):
        cfg = write_config(tmp_path, forced_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        m1 = (out1 / "manifest.json").read_bytes()
        m2 = (out2 / "manifest.json").read_bytes()
        assert m1 == m2
        assert verify_manifest(out1) == []

    def test_thread_count_invariance(self, tmp_path):
        cfg = write_config(tmp_path, forced_config(paths=4))
        out1, out8 = tmp_path / "t1", tmp_path / "t8"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1),
                     "--threads", "1"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out8),
                     "--threads", "8"]) == 0
        assert (out1 / "manifest.json").read_bytes() == \
            (out8 / "manifest.json").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, forced_config())
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--out", str(out2),
              "--seed", "123456"])
        assert (out1 / "manifest.json").read_bytes() != \
            (out2 / "manifest.json").read_bytes()
        echoed = json.loads((out2 / "config.echo.json").read_text())
        assert echoed["ensemble"]["seed"] == 123456

    def test_config_file_read_once(self, tmp_path, monkeypatch):
        # one load_config call, looked up through the cli module, reads the
        # file for the run and for its echo, and applies the seed override
        cfg = write_config(tmp_path, forced_config(paths=1))
        opened, loads = [], []
        real_open, real_load = io.open, cli.load_config

        def spy_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file) == cfg:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        def spy_load(*args, **kwargs):
            loads.append(args)
            return real_load(*args, **kwargs)
        monkeypatch.setattr(builtins, "open", spy_open)
        monkeypatch.setattr(io, "open", spy_open)
        monkeypatch.setattr(cli, "load_config", spy_load)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--seed", "5"]) == 0
        assert len(opened) == 1
        assert len(loads) == 1
        echoed = json.loads((out / "config.echo.json").read_text())
        assert echoed == dict(forced_config(paths=1),
                              ensemble={"paths": 1, "seed": 5})
        report = json.loads((out / "reports" / "simulate.json").read_text())
        assert report["seed"] == 5

    def test_bad_config_exit_2(self, tmp_path):
        raw = zero_config()
        raw["surprise"] = 1
        cfg = write_config(tmp_path, raw)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2

    def test_refusing_existing_run_dir(self, tmp_path):
        cfg = write_config(tmp_path, zero_config())
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2

    @pytest.mark.parametrize("stray", ["traces/eps0.1_path0099.csv", "notes.txt"])
    def test_out_holding_files_exits_2_and_writes_nothing(self, tmp_path, capsys, stray):
        # a file already in --out would be sealed into the new run's manifest
        out = tmp_path / "run"
        (out / stray).parent.mkdir(parents=True, exist_ok=True)
        (out / stray).write_text("t,E\n")
        before = sorted(p.relative_to(out) for p in out.rglob("*"))
        assert main(["simulate", "--config", str(CONFIGS / "simulate_demo.json"),
                     "--out", str(out)]) == 2
        assert f"--out {out} must be absent or empty" in capsys.readouterr().err
        assert sorted(p.relative_to(out) for p in out.rglob("*")) == before
        assert (out / stray).read_text() == "t,E\n"
        # emptied, the directory takes the run, and the manifest seals only it
        for p in sorted(out.rglob("*"), reverse=True):
            p.rmdir() if p.is_dir() else p.unlink()
        assert main(["simulate", "--config", str(write_config(tmp_path, zero_config())),
                     "--out", str(out)]) == 0
        assert verify_manifest(out) == []
        assert stray not in read_manifest(out)["artifacts"]

    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.write_text("")
        assert main(["simulate", "--config", str(write_config(tmp_path, zero_config())),
                     "--out", str(out)]) == 2
        assert "--out" in capsys.readouterr().err
        assert out.read_text() == ""

    def test_blowup_preserves_partial_results(self, tmp_path):
        raw = forced_config(paths=1)
        raw["initial"] = {"kind": "taylor_green", "amplitude": 1.0}
        raw["solver"] = {"blowup_ceiling": 0.5}
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        trace = out / "traces" / "eps0.05_path0000.csv"
        assert trace.exists()
        report = json.loads((out / "reports" / "simulate.json").read_text())
        assert not report["rows"][0]["pass"]
        assert "blow-up" in report["rows"][0]["detail"]


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_state_without_transport_is_a_blowup(self, tmp_path):
        raw = zero_config()
        raw["viscosity"] = {"eps": 0.05}
        raw["initial"] = {"kind": "random_spectrum", "amplitude": 1e308,
                          "k_max": 2, "decay": -2.0}
        raw["solver"] = {"transport": False}
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert verify_manifest(out) == []
        rows = json.loads((out / "reports" / "simulate.json").read_text())["rows"]
        assert [r["audit"] for r in rows] == ["energy_defect_eps0.05_path0000"]
        assert rows[0]["value"] == float("inf") and not rows[0]["pass"]
        assert rows[0]["detail"] == "blow-up: non-finite energy nan at t = 0.0000"
        assert (out / "traces" / "eps0.05_path0000.csv").exists()

    def test_cfl_violation_is_failing_row_with_sealed_manifest(self, tmp_path):
        raw = zero_config()
        raw["time"] = {"dt": 0.25, "horizon": 0.5}
        raw["initial"] = {"kind": "taylor_green", "amplitude": 1.0}
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert (out / "manifest.json").exists()
        assert verify_manifest(out) == []
        report = json.loads((out / "reports" / "simulate.json").read_text())
        assert not report["rows"][0]["pass"]
        assert "CFL violated" in report["rows"][0]["detail"]


class TestFaultInjection:
    def test_tiny_tolerance_fails_audit(self, tmp_path):
        raw = forced_config(paths=1)
        raw["tolerances"] = {"energy_defect_c": 1e-12}
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        rows = json.loads((out / "reports" / "simulate.json").read_text())["rows"]
        assert any(not r["pass"] for r in rows)


class TestReportCommand:
    def test_missing_dir_errors(self, tmp_path):
        assert main(["report", "--dir", str(tmp_path / "nope")]) == 2

    def test_failing_run_renders_nonzero(self, tmp_path):
        raw = forced_config(paths=1)
        raw["tolerances"] = {"energy_defect_c": 1e-12}
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert main(["report", "--dir", str(out)]) == 1

    def test_renders_pass_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, forced_config(paths=1))
        out = tmp_path / "run"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        assert main(["report", "--dir", str(out)]) == 0
        text = capsys.readouterr().out
        assert "overall: PASS" in text
        assert "ns_solver.energy_audit" in text

    def test_missing_artifact_listed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, forced_config(paths=1))
        out = tmp_path / "run"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        (out / "reports" / "simulate.json").unlink()
        capsys.readouterr()
        main(["report", "--dir", str(out)])
        text = capsys.readouterr().out
        assert "MISSING" in text
        assert "reports/simulate.json" in text

    def test_long_names_print_in_full(self, tmp_path, capsys):
        # two audits that differ only after character 44, and a module name
        # longer than 34 characters, each print whole
        out = RunDirectory(tmp_path / "run")
        stem = "martingale_phi1_s0.125_t0.25_clamp_pair_cross_variation_k"
        module = "limit_verifier.energy_inequality_limit"
        rows = [audit_row(stem + "0", module, 0.0, 1.0),
                audit_row(stem + "1", module, 0.0, 1.0)]
        out.write_json("reports/martingale.json", {"rows": rows})
        out.finalize()
        assert main(["report", "--dir", str(out.root)]) == 0
        text = capsys.readouterr().out
        for k in (0, 1):
            assert f"  {stem}{k} {module} " in text

    def test_edited_report_fails(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["ym", "--config", str(write_config(tmp_path, ym_config())),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--dir", str(out)]) == 0
        assert capsys.readouterr().out.endswith("overall: PASS\n")

        path = out / "reports" / "ym.json"
        report = json.loads(path.read_text())
        report["rows"][0].update({"pass": True, "value": 999})
        path.write_text(json.dumps(report))
        assert main(["report", "--dir", str(out)]) == 1
        text = capsys.readouterr().out
        assert "reports/ym.json: hash mismatch" in text
        assert text.endswith("overall: FAIL\n")

    def test_resealed_edit_fails_on_value_against_tolerance(self, tmp_path,
                                                             capsys):
        # the manifest vouches for the edited report, so only the
        # recomputed value <= tolerance rule can catch the forged pass
        out = tmp_path / "run"
        assert main(["ym", "--config", str(write_config(tmp_path, ym_config())),
                     "--out", str(out)]) == 0
        path = out / "reports" / "ym.json"
        report = json.loads(path.read_text())
        row = report["rows"][0]
        row.update({"pass": True, "value": 2.0 * row["tolerance"] + 1.0})
        path.write_text(json.dumps(report))
        (out / "manifest.json").unlink()
        RunDirectory(out).finalize()
        assert verify_manifest(out) == []
        capsys.readouterr()
        assert main(["report", "--dir", str(out)]) == 1
        text = capsys.readouterr().out
        assert text.endswith("overall: FAIL\n")
        assert sum(" FAIL" in line for line in text.splitlines()[:-1]) == 1

    def test_verify_manifest_detects_tamper(self, tmp_path):
        cfg = write_config(tmp_path, forced_config(paths=1))
        out = tmp_path / "run"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        trace = next((out / "traces").iterdir())
        trace.write_text("tampered")
        issues = verify_manifest(out)
        assert issues and issues[0][1] == "hash mismatch"


SMALL_WEAKSTRONG = {
    "experiment": "weakstrong",
    "grid": {"dim": 2, "n": 16},
    "time": {"dt": 0.03125, "horizon": 0.25},
    "viscosity": {"ladder": [0.1, 0.025]},
    "forcing": {"preset": "default", "sigma": 0.1},
    "initial": {"kind": "random_spectrum", "amplitude": 0.2,
                "k_max": 2, "decay": 3.0},
    "ensemble": {"paths": 3, "seed": 606},
    "young": {"time_cells": 2, "space_cells": 16, "radius": 4.0,
              "bins_per_axis": 8, "snapshots_per_slab": 2},
    "reference": {"n": 32, "dt_factor": 2},
    "tolerances": {"gronwall_slack": 0.05},
}


class TestWeakStrongCli:
    def test_weakstrong_small_run(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_WEAKSTRONG)
        out = tmp_path / "run"
        assert main(["weakstrong", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "reports" / "weakstrong.json").read_text())
        assert payload["seed"] == 606
        assert len(payload["stopping_times"]) == 3
        assert "0.1" in payload["relative_energy"]
        env = payload["relative_energy"]["0.1"]
        assert len(env["mean_stopped_F"]) == 2
        assert "passed" not in env
        by_name = {r["audit"]: r for r in payload["rows"]}
        assert all_passed([by_name["gronwall_envelope_eps0.1"]])

    def test_weakstrong_embeds_with_configured_sphere_bins(self, tmp_path,
                                                           monkeypatch):
        from dissipeuler.young import YoungAccumulator

        seen = []
        real = YoungAccumulator.measure

        def spy(self):
            V = real(self)
            seen.append(V.binning.sphere_bins)
            return V
        monkeypatch.setattr(YoungAccumulator, "measure", spy)
        raw = {
            "experiment": "weakstrong",
            "grid": {"dim": 2, "n": 16},
            "time": {"dt": 0.03125, "horizon": 0.25},
            "viscosity": {"ladder": [0.1, 0.025]},
            "initial": {"kind": "taylor_green", "amplitude": 0.2},
            "ensemble": {"paths": 1, "seed": 606},
            "young": {"time_cells": 2, "space_cells": 16, "radius": 4.0,
                      "bins_per_axis": 8, "sphere_bins": 12,
                      "snapshots_per_slab": 2},
            "reference": {"n": 32, "dt_factor": 2},
        }
        out = tmp_path / "run"
        assert main(["weakstrong", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) in (0, 1)
        assert seen == [12, 12]


    def test_weakstrong_blowup_seals_manifest(self, tmp_path):
        raw = {
            "experiment": "weakstrong",
            "grid": {"dim": 2, "n": 16},
            "time": {"dt": 0.03125, "horizon": 0.25},
            "viscosity": {"ladder": [0.1, 0.025]},
            "forcing": {"preset": "default", "sigma": 0.1},
            "initial": {"kind": "random_spectrum", "amplitude": 0.2,
                        "k_max": 2, "decay": 3.0},
            "ensemble": {"paths": 2, "seed": 606},
            "young": {"time_cells": 2, "space_cells": 16, "radius": 4.0,
                      "bins_per_axis": 8, "snapshots_per_slab": 2},
            "reference": {"n": 32, "dt_factor": 2},
            "solver": {"blowup_ceiling": 1e-3},
        }
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        assert main(["weakstrong", "--config", str(cfg), "--out", str(out)]) == 1
        assert (out / "manifest.json").exists()
        assert verify_manifest(out) == []
        rows = json.loads((out / "reports" / "weakstrong.json").read_text())["rows"]
        assert len(rows) == 1
        assert not rows[0]["pass"] and "blow-up" in rows[0]["detail"]

    @pytest.mark.parametrize("forcing", [None, {"preset": "default", "sigma": 0.0}],
                             ids=["unforced", "sigma0"])
    def test_zero_reference_stops_no_path(self, tmp_path, forcing):
        # every reference is 0, so the default level 1.05 max ||grad v||_inf
        # is 0: no path stops and the envelope is flat, L = 0
        raw = {k: v for k, v in SMALL_WEAKSTRONG.items() if k != "forcing"}
        raw["initial"] = {"kind": "zero"}
        if forcing is not None:
            raw["forcing"] = forcing
        out = tmp_path / "run"
        assert main(["weakstrong", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 0
        assert verify_manifest(out) == []
        payload = json.loads((out / "reports" / "weakstrong.json").read_text())
        assert payload["stopping_times"] == [0.25] * 3
        gronwall = [r for r in payload["rows"]
                    if r["audit"].startswith("gronwall_envelope")]
        assert len(gronwall) == 2 and all_passed(gronwall)
        assert payload["relative_energy"]["0.1"]["level"] == 0.0


class TestMartingaleCli:
    def test_martingale_blowup_seals_manifest(self, tmp_path):
        raw = forced_config(paths=32, seed=777)
        raw["experiment"] = "martingale"
        raw["solver"] = {"blowup_ceiling": 1e-3}
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        assert main(["martingale", "--config", str(cfg), "--out", str(out)]) == 1
        assert verify_manifest(out) == []
        rows = json.loads((out / "reports" / "martingale.json").read_text())["rows"]
        assert [r["audit"] for r in rows] == ["blowup_martingale"]
        assert not rows[0]["pass"] and "blow-up" in rows[0]["detail"]


    def test_one_run_per_path_for_every_field(self, tmp_path, monkeypatch):
        # both test fields are recorded from one integration of each path
        import dissipeuler.solver as solver
        real_run_path, calls = solver.run_path, []

        def spy(cfg, path, *args, **kw):
            calls.append(path.path_id)
            return real_run_path(cfg, path, *args, **kw)
        monkeypatch.setattr(solver, "run_path", spy)
        raw = forced_config(paths=32, seed=777)
        raw["experiment"] = "martingale"
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        assert main(["martingale", "--config", str(cfg), "--out", str(out)]) in (0, 1)
        assert calls == list(range(32))
        rows = json.loads((out / "reports" / "martingale.json").read_text())["rows"]
        assert {r["audit"].split("_")[1] for r in rows} == {"phi1", "phi2"}


def _tree(root):
    """Every file under ``root`` by its relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def _no_child_left():
    # every worker an experiment forked has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestThreads:
    """``--threads`` runs the paths on forked workers, every bit kept."""

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_below_one_exits_2_naming_threads(self, tmp_path, capsys, threads):
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(write_config(tmp_path, forced_config())),
                     "--out", str(out), "--threads", threads]) == 2
        assert f"config error: --threads: must be >= 1, got {threads}" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_memory_ceiling_charges_a_run_per_process(self, monkeypatch):
        # a 256^3 run holds about 6.05 GiB: one process fits under the
        # ceiling and two do not, from --threads and the paths alone,
        # whatever cores the host has
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        raw = forced_config(paths=2)
        raw["grid"] = {"dim": 3, "n": 256}
        assert isinstance(parse_config(raw, "simulate", threads=1), RunConfig)
        with pytest.raises(ConfigError) as err:
            parse_config(raw, "simulate", threads=8)
        assert err.value.path == "grid.n"
        assert "a run at n=256 in 3D and a run in each of 1 more processes" \
            in str(err.value)
        raw["ensemble"]["paths"] = 1   # one path runs in one process
        assert isinstance(parse_config(raw, "simulate", threads=8), RunConfig)

    def test_memory_ceiling_charges_the_largest_run_per_process(self, monkeypatch):
        # the weakstrong references run on every process: two 256^3
        # reference runs do not fit under the ceiling, one does
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        raw = json.loads((CONFIGS / "weakstrong_demo.json").read_text())
        raw["grid"] = {"dim": 3, "n": 32}
        raw["reference"]["n"] = 256
        raw["ensemble"]["paths"] = 2
        raw["young"]["space_cells"] = 8
        assert isinstance(parse_config(raw, "weakstrong", threads=1), RunConfig)
        with pytest.raises(ConfigError) as err:
            parse_config(raw, "weakstrong", threads=2)
        assert err.value.path == "reference.n"
        assert "a run at n=256 in 3D and a run in each of 1 more processes" \
            in str(err.value)

    @pytest.mark.parametrize("name", ["ladder", "weakstrong",
                                      "martingale_nonlinear_demo.json",
                                      "small-radius vanish"])
    def test_trees_identical_at_one_and_two_processes(self, tmp_path, two_cores,
                                                      forks, name):
        # the ladder and weakstrong workloads, the martingale demo and a
        # small vanish config whose radius 0.3 sends samples to the
        # concentration part write the same files, byte for byte, on one
        # process and on two
        if name in WORKLOADS:
            raw, experiment = WORKLOADS[name]["config"], WORKLOADS[name]["experiment"]
        elif name == "small-radius vanish":
            raw = dict(SMALL_VANISH, young=dict(SMALL_VANISH["young"], radius=0.3))
            experiment = "vanish"
        else:
            raw = json.loads((CONFIGS / name).read_text())
            experiment = raw["experiment"]
        cfg = write_config(tmp_path, raw)
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            assert main([experiment, "--config", str(cfg), "--out", str(out),
                         "--threads", threads]) == 0
            trees.append(_tree(out))
            if name == "small-radius vanish":   # the family holds nu_inf entries
                assert len(read_measure(out / "measures/family.ym").nu_inf.key) > 0
        assert len(forks) == 1
        assert trees[0] == trees[1]
        _no_child_left()

    def test_worker_fault_exits_3_with_its_traceback(self, tmp_path, capsys,
                                                     two_cores, forks, monkeypatch):
        import dissipeuler.solver as solver
        real_run_path = solver.run_path

        def faulty(cfg, path, *args, **kwargs):
            if path.path_id == 1:   # the second path: the worker's
                raise RuntimeError("injected worker fault")
            return real_run_path(cfg, path, *args, **kwargs)
        monkeypatch.setattr(solver, "run_path", faulty)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(write_config(tmp_path, forced_config())),
                     "--out", str(out), "--threads", "2"]) == 3
        err = capsys.readouterr().err
        assert "crash: WorkerError: ensemble worker" in err
        assert "Traceback" in err and "RuntimeError: injected worker fault" in err
        assert not (out / "manifest.json").exists()
        assert len(forks) == 1
        _no_child_left()

    @pytest.mark.parametrize("experiment", ["martingale", "weakstrong"])
    def test_a_raised_blow_up_leaves_no_worker(self, tmp_path, two_cores, forks,
                                               experiment):
        # both experiments raise the first blow-up out of the ensemble
        raw = forced_config(paths=32, seed=777)
        raw.update(experiment=experiment, solver={"blowup_ceiling": 1e-3})
        if experiment == "weakstrong":
            raw.update(viscosity={"ladder": [0.1, 0.025]},
                       young={"time_cells": 2, "space_cells": 16},
                       reference={"n": 32, "dt_factor": 2})
            raw["ensemble"]["paths"] = 2
        out = tmp_path / "run"
        assert main([experiment, "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out), "--threads", "2"]) == 1
        rows = json.loads((out / "reports" / f"{experiment}.json").read_text())["rows"]
        assert [r["audit"] for r in rows] == [f"blowup_{experiment}"]
        assert len(forks) == 1
        _no_child_left()


class TestCrash:
    def test_crash_exits_3_without_manifest(self, tmp_path, capsys, monkeypatch):
        import dissipeuler.cli as cli

        def boom(cfg, out, threads):
            raise RuntimeError("injected fault")
        monkeypatch.setattr(cli, "_run_ym", boom)
        out = tmp_path / "run"
        assert main(["ym", "--config", str(write_config(tmp_path, ym_config())),
                     "--out", str(out)]) == 3
        assert "crash: RuntimeError: injected fault" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


class TestYmCli:
    def test_ym_cfl_violation_seals_manifest(self, tmp_path):
        raw = zero_config()
        raw["experiment"] = "ym"
        raw["time"] = {"dt": 0.25, "horizon": 0.5}
        raw["initial"] = {"kind": "taylor_green", "amplitude": 1.0}
        raw["young"] = {"time_cells": 2, "space_cells": 4, "radius": 4.0}
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        assert main(["ym", "--config", str(cfg), "--out", str(out)]) == 1
        assert (out / "manifest.json").exists()
        assert verify_manifest(out) == []
        rows = json.loads((out / "reports" / "ym.json").read_text())["rows"]
        assert len(rows) == 1
        assert not rows[0]["pass"] and "CFL violated" in rows[0]["detail"]
        assert (out / "traces" / "eps0_path0000.csv").exists()

    def test_field_beyond_radius_fails_concentration_mass(self, tmp_path):
        raw = ym_config()
        raw["young"]["radius"] = 0.05
        out = tmp_path / "run"
        assert main(["ym", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 1
        assert verify_manifest(out) == []
        rows = json.loads((out / "reports" / "ym.json").read_text())["rows"]
        failed = {r["audit"]: r for r in rows if not r["pass"]}
        assert list(failed) == ["concentration_mass"]
        assert failed["concentration_mass"]["value"] > 0.0

    @pytest.mark.parametrize("radius", [3.0, 0.5])
    def test_measure_file_is_the_oracle_build(self, tmp_path, radius):
        # the measure ym bins as its run runs writes the bytes of the one
        # built from the run's kept snapshots, binned one by one, at the
        # demo's radius and at one that samples exceed
        raw = json.loads((CONFIGS / "ym_demo.json").read_text())
        raw["young"]["radius"] = radius
        out = tmp_path / "run"
        assert main(["ym", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) in (0, 1)
        cfg = parse_config(raw, "ym")
        snaps = Snapshots(cfg.solver, cfg.snapshot_times)
        lone_run(cfg.solver, cfg.seed, 0, observers=(snaps,))
        b = cfg.binning
        V = estimate_from_family([bin_run(snaps.payload(), b.partition, b.radius,
                                          b.bins_per_axis, b.sphere_bins)])
        assert (V.lam_total() > 0) == (radius == 0.5)
        write_measure(tmp_path / "oracle.ym", V)
        assert (out / "measures" / "run.ym").read_bytes() == \
            (tmp_path / "oracle.ym").read_bytes()


SMALL_VANISH = {
    "experiment": "vanish",
    "grid": {"dim": 2, "n": 16},
    "time": {"dt": 0.03125, "horizon": 0.25},
    "viscosity": {"ladder": [0.1, 0.05, 0.025]},
    "forcing": {"preset": "default", "sigma": 0.1},
    "initial": {"kind": "random_spectrum", "amplitude": 0.3, "k_max": 2},
    "ensemble": {"paths": 2, "seed": 4242},
    "young": {"time_cells": 2, "space_cells": 4, "radius": 4.0},
}


@pytest.fixture(scope="class")
def small_vanish(tmp_path_factory):
    """Two runs of the small vanish config into separate directories."""
    tmp = tmp_path_factory.mktemp("vanish")
    cfg = write_config(tmp, SMALL_VANISH)
    outs = [tmp / "a", tmp / "b"]
    for out in outs:
        assert main(["vanish", "--config", str(cfg), "--out", str(out)]) == 0
    return outs


class TestVanishCli:
    def test_vanish_small_run(self, small_vanish):
        out = small_vanish[0]
        manifest = read_manifest(out)
        names = set(manifest["artifacts"])
        assert "measures/family.ym" in names
        assert "details/energy_limit.json" in names
        assert any(n.startswith("traces/eps0.1_") for n in names)

    def test_measure_files_reproduce_cauchy_distances(self, small_vanish):
        # the exported rung measures give back the distances the audit saw
        from dissipeuler.young import weakstar_distance
        out = small_vanish[0]
        rungs = [read_measure(out / "measures" / f"eps{eps:g}.ym")
                 for eps in SMALL_VANISH["viscosity"]["ladder"]]
        d = [weakstar_distance(a, b) for a, b in zip(rungs, rungs[1:])]
        rows = json.loads((out / "reports" / "vanish.json").read_text())["rows"]
        row = {r["audit"]: r for r in rows}["cauchy_distance_decreasing"]
        assert row["detail"] == f"distances={['%.5g' % x for x in d]}"

    def test_rerun_writes_identical_measures(self, small_vanish):
        a, b = small_vanish
        names = sorted(p.name for p in (a / "measures").iterdir())
        assert names == ["eps0.025.ym", "eps0.05.ym", "eps0.1.ym", "family.ym"]
        for name in names:
            assert (a / "measures" / name).read_bytes() == \
                (b / "measures" / name).read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_vanish_cfl_violation_seals_manifest(self, tmp_path):
        raw = {
            "experiment": "vanish",
            "grid": {"dim": 2, "n": 16},
            "time": {"dt": 0.25, "horizon": 0.5},
            "viscosity": {"ladder": [0.1, 0.05]},
            "initial": {"kind": "taylor_green", "amplitude": 1.0},
            "ensemble": {"paths": 1, "seed": 5},
            "young": {"time_cells": 2, "space_cells": 4, "radius": 4.0},
        }
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        assert main(["vanish", "--config", str(cfg), "--out", str(out)]) == 1
        assert verify_manifest(out) == []
        rows = json.loads((out / "reports" / "vanish.json").read_text())["rows"]
        assert len(rows) == 2
        assert all(not r["pass"] and "CFL violated" in r["detail"] for r in rows)

    def test_vanish_thread_invariance(self, tmp_path):
        raw = {
            "experiment": "vanish",
            "grid": {"dim": 2, "n": 16},
            "time": {"dt": 0.03125, "horizon": 0.25},
            "viscosity": {"ladder": [0.1, 0.05]},
            "forcing": {"preset": "default", "sigma": 0.1},
            "initial": {"kind": "random_spectrum", "amplitude": 0.3, "k_max": 2},
            "ensemble": {"paths": 3, "seed": 11},
            "young": {"time_cells": 2, "space_cells": 4, "radius": 4.0},
        }
        cfg = write_config(tmp_path, raw)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["vanish", "--config", str(cfg), "--out", str(a),
                     "--threads", "1"]) == 0
        assert main(["vanish", "--config", str(cfg), "--out", str(b),
                     "--threads", "8"]) == 0
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_vanish_names_survivors_by_path_id(self, tmp_path, monkeypatch):
        # paths 0-2 blow up at every rung; only path 3 survives
        import dissipeuler.limits as limits
        from dissipeuler.forcing import WienerPath
        raw = {
            "experiment": "vanish",
            "grid": {"dim": 2, "n": 16},
            "time": {"dt": 0.03125, "horizon": 0.25},
            "viscosity": {"ladder": [0.1, 0.05, 0.025]},
            "forcing": {"preset": "default", "sigma": 0.1},
            "initial": {"kind": "random_spectrum", "amplitude": 1.0, "k_max": 2},
            "ensemble": {"paths": 4, "seed": 7},
            "young": {"time_cells": 2, "space_cells": 4, "radius": 4.0},
            "solver": {"blowup_ceiling": 3},
        }
        seen = []
        residual = limits.momentum_residual

        def spy(series, phi, forcing, path):
            value = residual(series, phi, forcing, path)
            seen.append((path, value))
            return value
        monkeypatch.setattr(limits, "momentum_residual", spy)
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        assert main(["vanish", "--config", str(cfg), "--out", str(out)]) == 1
        assert verify_manifest(out) == []
        traces = sorted(p.name for p in (out / "traces").iterdir())
        assert traces == [f"eps{e}_path0003.csv" for e in ("0.025", "0.05", "0.1")]
        assert len(seen) == 1
        path, value = seen[0]
        expect = WienerPath.sample(7, 3, 4, 0.03125, 8)
        assert path.path_id == 3
        assert np.array_equal(path.increments, expect.increments)
        rows = json.loads((out / "reports" / "vanish.json").read_text())["rows"]
        by_name = {r["audit"]: r for r in rows}
        assert by_name["momentum_residual_finest"]["value"] == value
        assert {f"blowup_eps0.1_path{p}" for p in range(3)} <= set(by_name)

    def test_vanish_nan_distance_fails_cauchy_row(self, tmp_path,
                                                  monkeypatch):
        # a NaN after two finite distances must reach the row: a maximum
        # that skips it reads -0.1 and passes
        import dissipeuler.cli as cli
        raw = {
            "experiment": "vanish",
            "grid": {"dim": 2, "n": 16},
            "time": {"dt": 0.03125, "horizon": 0.25},
            "viscosity": {"ladder": [0.1, 0.05, 0.025]},
            "forcing": {"preset": "default", "sigma": 0.1},
            "initial": {"kind": "random_spectrum", "amplitude": 0.3, "k_max": 2},
            "ensemble": {"paths": 2, "seed": 4242},
            "young": {"time_cells": 2, "space_cells": 4, "radius": 4.0},
        }
        ladder = cli.run_ladder

        def nan_distances(*args, **kw):
            res = ladder(*args, **kw)
            res.cauchy_distances = [0.2, 0.1, float("nan")]
            return res
        monkeypatch.setattr(cli, "run_ladder", nan_distances)
        out = tmp_path / "run"
        assert main(["vanish", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 1
        rows = json.loads((out / "reports" / "vanish.json").read_text())["rows"]
        row = {r["audit"]: r for r in rows}["cauchy_distance_decreasing"]
        assert np.isnan(row["value"]) and not row["pass"]


class TestUnforcedCli:
    """A config without ``forcing`` runs forced by Phi = 0, of rank 0."""

    @pytest.mark.parametrize("raw", [forced_config(paths=1), SMALL_VANISH,
                                     ym_config(), SMALL_WEAKSTRONG],
                             ids=lambda raw: raw["experiment"])
    def test_run_seals_manifest(self, tmp_path, raw):
        raw = {k: v for k, v in raw.items() if k != "forcing"}
        name = raw["experiment"]
        out = tmp_path / "run"
        assert main([name, "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 0
        assert verify_manifest(out) == []
        assert (out / f"reports/{name}.json").exists()


def test_no_command_imports_scipy(tmp_path):
    # numpy is the one runtime dependency: importing scipy would add about
    # 0.3 s and 20 MB to every command's setup
    martingale = forced_config(paths=32)
    martingale["experiment"] = "martingale"
    commands = []
    for raw in (forced_config(), SMALL_VANISH, ym_config(), martingale,
                SMALL_WEAKSTRONG):
        name = raw["experiment"]
        cfg = write_config(tmp_path, raw, f"{name}.json")
        commands.append([name, "--config", str(cfg), "--out", str(tmp_path / name)])
    commands.append(["report", "--dir", str(tmp_path / "simulate")])
    script = (
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import dissipeuler.cli as cli\n"
        "on_import = scipy_modules()\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([on_import, codes, scipy_modules()]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          capture_output=True, text=True, env=env, check=True)
    on_import, codes, after_runs = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(commands)
    assert on_import == [] and after_runs == []
