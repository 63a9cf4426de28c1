"""Acceptance suite: one test per criterion, stated tolerances and budgets.

Each test prints one PASS/FAIL line (visible even under pytest capture) and
asserts both the criterion and its runtime budget.
"""

import json
import time

import numpy as np
import pytest

from dissipeuler.cli import main
from dissipeuler.forcing import (
    WienerPath,
    default_forcing,
    sample_increments,
)
from dissipeuler.limits import (
    MartingaleStat,
    linear_model_functionals_multi,
    martingale_test,
    probe_fields,
    run_ladder,
    solver_functionals_multi,
)
from dissipeuler.reporting import all_passed
from dissipeuler.solver import InitialCondition, SolverConfig, initial_state, run_path
from dissipeuler.spectral import (
    TorusGrid,
    convective_term,
    inner_product,
    l2_norm_sq,
    leray_project,
    taylor_green,
)
from dissipeuler.weakstrong import weak_strong_ladder
from dissipeuler.young import (
    Binning,
    CellPartition,
    TestIntegrand,
    dirac_embed,
    estimate_from_family,
    pairing,
)

from conftest import (
    Trajectory,
    bin_run,
    coeff_at,
    full_wavenumbers,
    random_divfree_field,
    random_field,
)

TWO_PI = 2.0 * np.pi


@pytest.fixture
def announce(capsys):
    def _p(idx, name, ok, elapsed, budget):
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {idx} [{name}]: {status} "
                  f"({elapsed:.1f}s / budget {budget:.0f}s)", flush=True)
    return _p


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


def test_criterion_1_spectral_correctness(announce):
    budget = 10.0
    t0 = time.time()
    failures = []

    specs = [(TorusGrid(2, 32), 150), (TorusGrid(3, 16), 50)]
    for grid, count in specs:
        rng = np.random.default_rng(1000 + grid.dim)
        for i in range(count):
            f = random_field(grid, rng)
            g = random_field(grid, rng)
            pf = leray_project(f)
            scale = float(np.max(np.abs(pf.coeffs))) + 1e-300
            idem = float(np.max(np.abs(leray_project(pf).coeffs - pf.coeffs))) / scale
            _check(failures, idem <= 1e-10, f"idempotency {idem:.2e} (field {i})")
            lhs = inner_product(pf, g)
            rhs = inner_product(f, leray_project(g))
            sym = abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)
            _check(failures, sym <= 1e-10, f"self-adjointness {sym:.2e}")

            u = random_divfree_field(grid, rng)
            c = convective_term(u)
            den = np.sqrt(l2_norm_sq(c) * l2_norm_sq(u)) + 1e-300
            ortho = abs(inner_product(c, u)) / den
            _check(failures, ortho <= 1e-10, f"transport neutrality {ortho:.2e}")

    # Taylor-Green against an independently coded refined-grid pipeline
    coarse, fine = TorusGrid(2, 32), TorusGrid(2, 128)
    xf = fine.points()
    vals = np.zeros((2,) + fine.shape)
    vals[0] = np.sin(xf[0]) * np.cos(xf[1])
    vals[1] = -np.cos(xf[0]) * np.sin(xf[1])
    k = full_wavenumbers(fine)
    div_hat = np.zeros((2,) + fine.shape, dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            div_hat[i] += 1j * k[j] * np.fft.fftn(vals[i] * vals[j])
    k2 = k[0] ** 2 + k[1] ** 2
    k2safe = np.where(k2 == 0, 1.0, k2)
    kdot = k[0] * div_hat[0] + k[1] * div_hat[1]
    ours = convective_term(taylor_green(coarse))
    worst = 0.0
    for kx in range(-10, 11):
        for ky in range(-10, 11):
            ref = np.array([-(div_hat[i][kx % 128, ky % 128]
                              - np.array([k[0][kx % 128, 0], k[1][0, ky % 128]])[i]
                              * kdot[kx % 128, ky % 128] / k2safe[kx % 128, ky % 128])
                            / 128 ** 2 for i in range(2)])
            got = coeff_at(ours, (kx, ky)) / 32 ** 2
            worst = max(worst, float(np.max(np.abs(ref - got))))
    _check(failures, worst <= 1e-8, f"Taylor-Green oracle {worst:.2e}")

    elapsed = time.time() - t0
    ok = not failures and elapsed < budget
    announce(1, "spectral correctness", ok, elapsed, budget)
    assert not failures, failures
    assert elapsed < budget


def test_criterion_2_stochastic_calculus(announce):
    budget = 60.0
    t0 = time.time()
    failures = []

    # Ito isometry through the full apply_noise route at 1e4 paths
    from dissipeuler.forcing import ForcingMode, ForcingOperator, apply_noise
    grid = TorusGrid(2, 16)
    op = ForcingOperator((
        ForcingMode((1, 0), (0.0, 1.0), 1.0, "cos"),
        ForcingMode((0, 1), (1.0, 0.0), 0.5, "sin"),
    ))
    dt, steps = 0.01, 20
    totals = np.empty(10_000)
    for pid in range(totals.size):
        inc = sample_increments(2025, pid, op.rank, dt, 0, steps)
        totals[pid] = l2_norm_sq(apply_noise(op, inc.sum(axis=0), grid))
    expected = dt * steps * op.hs_norm_sq()
    iso_err = abs(totals.mean() - expected) / expected
    _check(failures, iso_err <= 0.05, f"Ito isometry rel err {iso_err:.3f}")

    # normality and independence at 1e5 samples, 4-sigma bands
    n = 100_000
    draws = sample_increments(2026, 0, 3, 1.0, 0, n)
    z = draws[:, 0]
    zc = (z - z.mean()) / z.std()
    skew = abs(np.mean(zc ** 3))
    kurt = abs(np.mean(zc ** 4) - 3.0)
    _check(failures, skew <= 4 * np.sqrt(6 / n), f"skewness {skew:.4f}")
    _check(failures, kurt <= 4 * np.sqrt(24 / n), f"excess kurtosis {kurt:.4f}")
    var_err = abs(z.var() - 1.0)
    _check(failures, var_err <= 0.02, f"variance err {var_err:.4f}")
    band = 4.0 / np.sqrt(n)
    for a in range(3):
        for b in range(a + 1, 3):
            corr = abs(np.mean(draws[:, a] * draws[:, b]))
            _check(failures, corr <= band, f"cross-mode corr {corr:.5f}")
    serial = abs(np.mean(z[:-1] * z[1:]))
    _check(failures, serial <= band, f"serial corr {serial:.5f}")

    elapsed = time.time() - t0
    ok = not failures and elapsed < budget
    announce(2, "stochastic calculus", ok, elapsed, budget)
    assert not failures, failures
    assert elapsed < budget


def test_criterion_3_energy_inequality(announce):
    budget = 300.0
    t0 = time.time()
    failures = []

    grid = TorusGrid(2, 64)
    forcing = default_forcing(2, sigma=0.1)
    initial = InitialCondition("random_spectrum", amplitude=0.35, k_max=3)
    n_paths, base_dt, horizon, c_tol = 32, 1.0 / 64, 0.5, 1.0
    base_steps = int(round(horizon / base_dt))

    levels = []
    for lev in range(3):
        dt = base_dt / 2 ** lev
        cfg = SolverConfig(grid=grid, forcing=forcing, eps=0.05, dt=dt,
                           horizon=horizon, initial=initial)
        vals = []
        for pid in range(n_paths):
            path = WienerPath.sample(3030, pid, forcing.rank, base_dt,
                                     base_steps).refined(2 ** lev)
            run = run_path(cfg, path, initial_state(cfg, 3030, pid))
            defect = run.trace.max_positive_defect()
            tol = run.trace.tolerance(c=c_tol)
            _check(failures, defect <= tol,
                   f"defect {defect:.4f} > tol {tol:.4f} (lev {lev}, path {pid})")
            vals.append(defect)
        levels.append(float(np.mean(vals)))

    slope = float(np.polyfit(np.arange(3), -np.log2(levels), 1)[0])
    _check(failures, slope >= 0.5,
           f"dt-halving slope {slope:.3f} < 0.5 (levels {levels})")

    elapsed = time.time() - t0
    ok = not failures and elapsed < budget
    announce(3, "discrete energy inequality", ok, elapsed, budget)
    assert not failures, failures
    assert elapsed < budget


def test_criterion_4_young_measure_oracles(announce):
    budget = 60.0
    t0 = time.time()
    failures = []

    # oscillation family: half/half two-point measure on bins
    grid = TorusGrid(2, 256)
    part = CellPartition(2, 256, 1, 4, 0.0, 1.0)
    a, radius, bins, m = 1.0, 2.0, 16, 64
    xo = (np.arange(grid.n) + 0.5) * TWO_PI / grid.n
    col = a * np.sign(np.sin(m * xo))
    vals = np.zeros((2,) + grid.shape)
    vals[1] = col[:, None]
    traj = Trajectory(np.array([0.0, 1.0]), np.stack([vals] * 2))
    V = estimate_from_family([bin_run(traj, part, radius, bins_per_axis=bins)])
    w = 2 * radius / bins
    ref = np.zeros_like(V.nu_mass)
    ref[:, int(radius / w) * bins + int((a + radius) / w)] = 0.5
    ref[:, int(radius / w) * bins + int((-a + radius) / w)] = 0.5
    tv = 0.5 * float(np.abs(V.nu_mass - ref).sum(axis=1).max())
    _check(failures, tv < 0.05, f"oscillation TV {tv:.4f}")

    # concentration family: per-slab mass (2 pi)^2, angle at e1
    grid_c = TorusGrid(2, 128)
    part_c = CellPartition(2, 128, 2, 4, 0.0, 1.0)
    mc = 8
    width = grid_c.n // mc
    vc = np.zeros((2,) + grid_c.shape)
    vc[0, :width, :width] = mc
    traj_c = Trajectory(np.array([0.0, 0.5, 1.0]), np.stack([vc] * 3))
    Vc = estimate_from_family([bin_run(traj_c, part_c, radius=2.0)])
    expected_mass = TWO_PI ** 2
    for slab in range(part_c.n_t):
        got = Vc.lam_t(slab)
        err = abs(got - expected_mass) / expected_mass
        _check(failures, err <= 0.05, f"lambda mass rel err {err:.4f} (slab {slab})")
    total_inf = (Vc.inf_mass * Vc.lam_mass[:, None]).sum(axis=0)
    e1_bin = int(Vc.binning.direction_bin(np.array([[1.0, 0.0]]))[0])
    frac = float(total_inf[e1_bin] / total_inf.sum())
    _check(failures, frac >= 0.999, f"angle mass in e1 bin only {frac:.4f}")

    # dirac embedding pairing against direct spectral quadrature
    grid_d = TorusGrid(2, 32)
    part_d = CellPartition(2, 32, 2, 4, 0.0, 1.0)
    u = taylor_green(grid_d)
    traj_d = Trajectory(np.array([0.0, 0.5, 1.0]),
                        np.stack([u.to_physical()] * 3))
    Vd = dirac_embed(bin_run(traj_d, part_d, radius=2.0))
    energy_f = TestIntegrand("speed2", quad=(np.eye(2), np.zeros(2), 0.0))
    got = pairing(Vd, energy_f)
    want = l2_norm_sq(u)  # time-integrated over [0, 1]
    rel = abs(got - want) / want
    _check(failures, rel <= 0.02, f"pairing vs quadrature rel err {rel:.4f}")

    elapsed = time.time() - t0
    ok = not failures and elapsed < budget
    announce(4, "young measure oracles", ok, elapsed, budget)
    assert not failures, failures
    assert elapsed < budget


def test_criterion_5_martingale_identification(announce):
    budget = 600.0
    t0 = time.time()
    failures = []

    # linear (transport-off) model: exact Ito oracles at 1e4 paths
    grid = TorusGrid(2, 16)
    forcing = default_forcing(2, sigma=0.5)
    phi_name, phi = probe_fields(grid)[0]
    dt, steps = 1.0 / 64, 64
    by_pair, c = linear_model_functionals_multi(
        forcing, [(phi_name, phi)], seed=5050, path_ids=range(10_000), dt=dt,
        steps=steps, pairs=[(0.25, 0.75)])[phi_name]
    ens = by_pair[(0.25, 0.75)]
    _check(failures, float(np.sum(c ** 2)) > 0.1, "test field decoupled from noise")
    for history in ("one", "clamp_beta"):
        stat = MartingaleStat("phi1", 0.25, 0.75, history=history)
        rows, _ = martingale_test(stat, ens, c, n_tests=12)
        _check(failures, all_passed(rows), f"linear model stats ({history})")
    qv_err = abs(np.mean((ens.m_t - ens.m_s) ** 2) - float(np.sum(c ** 2)) * 0.5) \
        / (float(np.sum(c ** 2)) * 0.5)
    _check(failures, qv_err <= 0.05, f"quadratic variation rel err {qv_err:.4f}")

    # full nonlinear model: 256 paths, Bonferroni over a 24-test grid
    grid_n = TorusGrid(2, 32)
    forcing_n = default_forcing(2, sigma=0.3)
    cfg = SolverConfig(grid=grid_n, forcing=forcing_n, eps=0.05, dt=1.0 / 64,
                       horizon=0.5,
                       initial=InitialCondition("taylor_green", amplitude=0.3))
    pairs = [(0.125, 0.25), (0.25, 0.375)]
    fields = probe_fields(grid_n)
    n_tests = len(fields) * len(pairs) * (2 + forcing_n.rank)
    _check(failures, n_tests <= 24, f"test grid too large: {n_tests}")
    functionals = solver_functionals_multi(cfg, fields, 777, range(256), pairs)
    for name, (by_pair, c_n) in functionals.items():
        for (s, t) in pairs:
            stat = MartingaleStat(name, s, t, history="clamp_pair")
            rows, _ = martingale_test(stat, by_pair[(s, t)], c_n, n_tests=n_tests)
            _check(failures, all_passed(rows),
                   f"nonlinear stats {name} ({s},{t}): "
                   + str([r for r in rows if not r["pass"]]))

    elapsed = time.time() - t0
    ok = not failures and elapsed < budget
    announce(5, "martingale identification", ok, elapsed, budget)
    assert not failures, failures
    assert elapsed < budget


def test_criterion_6_vanishing_viscosity_cauchy(announce):
    budget = 600.0
    t0 = time.time()
    failures = []

    grid = TorusGrid(2, 64)
    horizon, dt = 0.5, 1.0 / 128
    eps_ladder = (0.1, 0.05, 0.025, 0.0125)
    part = CellPartition(2, 64, 4, 8, 0.0, horizon)
    # four mid-slab samples per slab plus both endpoints, as the CLI takes
    times = sorted({0.0, horizon, *part.sample_times(dt, 4)})
    ic = InitialCondition("random_spectrum", amplitude=0.3, k_max=2)

    cfg_det = SolverConfig(grid=grid, forcing=None, eps=0.1, dt=dt,
                           horizon=horizon, initial=ic)
    binning = Binning(part, 4.0, 16, 32)
    res_det = run_ladder(eps_ladder, cfg_det, 2024, (0,), binning, times)
    d = res_det.cauchy_distances
    _check(failures, all(a > b for a, b in zip(d, d[1:])),
           f"deterministic distances not strictly decreasing: {d}")

    cfg_sto = SolverConfig(grid=grid, forcing=default_forcing(2, sigma=0.1),
                           eps=0.1, dt=dt, horizon=horizon, initial=ic)
    res_sto = run_ladder(eps_ladder, cfg_sto, 2024, range(8), binning, times)
    d = res_sto.cauchy_distances
    _check(failures, all(a > b for a, b in zip(d, d[1:])),
           f"stochastic distances not strictly decreasing: {d}")
    _check(failures, not res_det.blowups and not res_sto.blowups, "blow-ups")

    elapsed = time.time() - t0
    ok = not failures and elapsed < budget
    announce(6, "vanishing viscosity cauchy", ok, elapsed, budget)
    assert not failures, failures
    assert elapsed < budget


def test_criterion_7_weak_strong_uniqueness(announce):
    budget = 1200.0
    t0 = time.time()
    failures = []

    weak_grid = TorusGrid(2, 32)
    horizon, dt = 0.5, 1.0 / 64
    eps_ladder = (0.1, 0.05, 0.025, 0.0125)
    forcing = default_forcing(2, sigma=0.1)
    ic = InitialCondition("random_spectrum", amplitude=0.2, k_max=2, decay=3.0)
    weak = SolverConfig(grid=weak_grid, forcing=forcing, eps=0.1, dt=dt,
                        horizon=horizon, initial=ic)
    n_t = 4
    times = sorted({0.0, horizon} | {
        round((s * horizon / n_t + f * horizon / n_t) / dt) * dt
        for s in range(n_t) for f in (0.25, 0.75)})
    part = CellPartition(2, 32, n_t, 32, 0.0, horizon)
    slack = 0.02

    rows, rep = weak_strong_ladder(eps_ladder, weak, 128, 4, seed=909,
                                   path_ids=range(64),
                                   binning=Binning(part, 4.0, 8, 32),
                                   snapshot_times=times, slack=slack)
    by_name = {r["audit"]: r for r in rows}

    for eps in eps_ladder:
        pe = rep["per_eps"][eps]
        f0 = float(np.max(np.abs(pe["f0"])))
        _check(failures, f0 <= 1e-12, f"F(0) = {f0:.2e} at eps {eps}")
        fmin = float(np.min(pe["f_matrix"]))
        _check(failures, fmin >= -1e-12, f"F < 0 ({fmin:.2e}) at eps {eps}")
        _check(failures, pe["max_forms_gap_rel"] <= 0.02,
               f"forms gap {pe['max_forms_gap_rel']:.4f} at eps {eps}")
        _check(failures, all_passed([by_name[f"gronwall_envelope_eps{eps:g}"]]),
               f"Gronwall envelope violated at eps {eps} "
               f"(margin {pe['gronwall']['min_margin']:.4f}, slack {slack})")
    _check(failures, all_passed([by_name["sup_F_monotone_along_ladder"]]),
           f"sup F not monotone within CI: {rep['monotone']['rows']}")

    elapsed = time.time() - t0
    ok = not failures and elapsed < budget
    announce(7, "weak-strong uniqueness", ok, elapsed, budget)
    assert not failures, failures
    assert elapsed < budget


def test_criterion_8_determinism(announce, tmp_path):
    budget = 300.0
    t0 = time.time()
    failures = []

    sim = {
        "experiment": "simulate",
        "grid": {"dim": 2, "n": 32},
        "time": {"dt": 0.03125, "horizon": 0.5},
        "viscosity": {"eps": 0.05},
        "forcing": {"preset": "default", "sigma": 0.1},
        "initial": {"kind": "random_spectrum", "amplitude": 0.3, "k_max": 2},
        "ensemble": {"paths": 4, "seed": 8080},
    }
    van = {
        "experiment": "vanish",
        "grid": {"dim": 2, "n": 32},
        "time": {"dt": 0.015625, "horizon": 0.25},
        "viscosity": {"ladder": [0.1, 0.05, 0.025]},
        "forcing": {"preset": "default", "sigma": 0.1},
        "initial": {"kind": "random_spectrum", "amplitude": 0.3, "k_max": 2},
        "ensemble": {"paths": 3, "seed": 8081},
        "young": {"time_cells": 2, "space_cells": 4, "radius": 4.0},
    }
    for label, payload in (("simulate", sim), ("vanish", van)):
        cfg = tmp_path / f"{label}.json"
        cfg.write_text(json.dumps(payload))
        manifests = {}
        for threads in (1, 8):
            out = tmp_path / f"{label}_t{threads}"
            rc = main([label, "--config", str(cfg), "--out", str(out),
                       "--threads", str(threads)])
            _check(failures, rc == 0, f"{label} at {threads} threads exited {rc}")
            manifests[threads] = (out / "manifest.json").read_bytes()
        _check(failures, manifests[1] == manifests[8],
               f"{label}: manifests differ between 1 and 8 threads")

    # rerun with the same seed reproduces the manifest byte for byte
    cfg = tmp_path / "simulate.json"
    out2 = tmp_path / "simulate_rerun"
    main(["simulate", "--config", str(cfg), "--out", str(out2), "--threads", "1"])
    _check(failures,
           (out2 / "manifest.json").read_bytes()
           == (tmp_path / "simulate_t1" / "manifest.json").read_bytes(),
           "rerun manifest differs")

    elapsed = time.time() - t0
    ok = not failures and elapsed < budget
    announce(8, "determinism", ok, elapsed, budget)
    assert not failures, failures
    assert elapsed < budget
