"""Config schema, artifact determinism, reporting, CLI exit codes."""

import json

import numpy as np
import pytest

from dissipeuler.cli import main
from dissipeuler.config import ConfigError, parse_config
from dissipeuler.manifest import RunDirectory, read_manifest, verify_manifest
from dissipeuler.reporting import all_passed


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
    ])
    def test_malformed_field_exits_2(self, tmp_path, capsys, experiment,
                                     section, key, value, field):
        raw = forced_config(paths=1)
        raw["experiment"] = experiment
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
        assert parse_config(raw, experiment).partition.n_t == 8

    def test_k_max_bounds_only_the_random_spectrum(self):
        # the cutoff of n = 8 is 2, below the default k_max 3
        raw = zero_config()
        raw["grid"]["n"] = 8
        for kind in ("zero", "taylor_green", "single_mode"):
            raw["initial"] = {"kind": kind}
            assert parse_config(raw, "simulate").initial.k_max == 3
        raw["initial"] = {"kind": "random_spectrum"}
        with pytest.raises(ConfigError) as err:
            parse_config(raw, "simulate")
        assert err.value.path == "initial.k_max"
        raw["initial"]["k_max"] = 2
        assert parse_config(raw, "simulate").initial.k_max == 2

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
        assert cfg.forcing.rank == 4


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


class TestWeakStrongCli:
    def test_weakstrong_small_run(self, tmp_path):
        raw = {
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
        cfg = write_config(tmp_path, raw)
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
        import dissipeuler.limits as limits
        real_run_path, calls = limits.run_path, []

        def spy(cfg, seed, path_id, **kw):
            calls.append(path_id)
            return real_run_path(cfg, seed, path_id, **kw)
        monkeypatch.setattr(limits, "run_path", spy)
        raw = forced_config(paths=32, seed=777)
        raw["experiment"] = "martingale"
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        assert main(["martingale", "--config", str(cfg), "--out", str(out)]) in (0, 1)
        assert calls == list(range(32))
        rows = json.loads((out / "reports" / "martingale.json").read_text())["rows"]
        assert {r["audit"].split("_")[1] for r in rows} == {"phi1", "phi2"}


class TestCrash:
    def test_crash_exits_3_without_manifest(self, tmp_path, capsys, monkeypatch):
        import dissipeuler.cli as cli

        def boom(cfg, out):
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


class TestVanishCli:
    def test_vanish_small_run(self, tmp_path):
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
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        assert main(["vanish", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = read_manifest(out)
        names = set(manifest["artifacts"])
        assert "measures/family.json" in names
        assert "details/energy_limit.json" in names
        assert any(n.startswith("traces/eps0.1_") for n in names)

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
        import dissipeuler.cli as cli
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
        residual = cli.momentum_residual

        def spy(run, forcing, path, phi, **kw):
            value = residual(run, forcing, path, phi, **kw)
            seen.append((path, value))
            return value
        monkeypatch.setattr(cli, "momentum_residual", spy)
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
