"""Vanishing-viscosity harness and martingale-identification statistics.

A viscosity ladder runs the solver at a strictly decreasing sequence of
positive viscosities with one bit-identical Wiener path per ensemble
member.  The ladder rule is ``decreasing_rungs``, which ``run_ladder``,
the loader and the weak-strong ladder call (the weak-strong ladder
without the positivity, so it takes an eps = 0 rung); a NaN or infinite
rung fails it.  The rung configurations are built one at a time as the
rungs run, and each is released when its rung ends.  The family of
trajectories feeds the Young-measure estimator; weak* Cauchy
distances between successive rungs stand in for subsequence extraction,
since no finite computation can exhibit the limit object itself.

The martingale side checks that the path functional

    M_t = <u(t) - u(0), phi> - eps int <u, lap phi> - int <nu, xi x xi> : grad phi
          (- concentration term)

behaves like the stochastic integral it must equal: zero conditional
increments, quadratic variation N_t = sum_k <Phi e_k, phi>^2 t, and cross
variation N^k_t = <Phi e_k, phi> t against the k-th Wiener coordinate, all
tested against history weights h evaluated at the earlier time.  One
``FunctionalRecorder`` computes M_t for both these statistics (observing
every step of a run) and the momentum residual |M_t - <Phi W(t), phi>|
(observing a ladder run at its snapshot steps), from each state's band
coefficients and point values.  A martingale ensemble integrates each
path once, one recorder per test field, into arrays over paths at each
(s, t); a pair needs 0 <= s < t (``check_pair``), a history weight is one
of ``HISTORY_KINDS`` (``check_history``), a level alpha lies in (0, 1)
(``check_alpha``) and an ensemble holds at least 32 paths
(``check_martingale_paths``), rules the loader calls too.  The
ladder and the martingale ensemble run through ``solver.run_ensemble``.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .forcing import ForcingOperator, WienerPath, ndtri
from .reporting import audit_row
from .solver import EnergyBudget, SolverConfig, run_ensemble, snapshot_steps, step_index
from .spectral import SpectralField, band_gradient, inner_product, tensor_pairing
from .young import (
    Binning,
    GeneralizedYoungMeasure,
    YoungAccumulator,
    YoungBinner,
    slab_energies,
    weakstar_distance,
)


class LimitError(ValueError):
    pass


MIN_MARTINGALE_PATHS = 32   # smallest ensemble the martingale test accepts


def check_martingale_paths(paths, error=LimitError) -> None:
    """An ensemble holds ``MIN_MARTINGALE_PATHS`` paths or more (a NaN does not), or ``error``."""
    if not paths >= MIN_MARTINGALE_PATHS:
        raise error(f"need >= {MIN_MARTINGALE_PATHS} paths, got {paths}")


# -- ladder ----------------------------------------------------------------


def decreasing_rungs(eps_values, error=LimitError, above=-math.inf) -> tuple:
    """The rungs as floats, or ``error``: non-empty and strictly decreasing
    from below +inf to ``above``.

    A vanishing-viscosity ladder passes ``above`` 0, so every rung is
    positive; an infinite or NaN rung fails every ladder.
    """
    eps = tuple(float(e) for e in eps_values)
    bounded = (math.inf, *eps, above)
    if not eps or not all(a > b for a, b in zip(bounded, bounded[1:])):
        raise error(f"ladder must be non-empty, strictly decreasing and above {above:g}, got {eps}")
    return eps


@dataclass
class LadderResult:
    traces: dict                   # eps -> list of (path_id, EnergyTrace) of its survivors
    measures: dict                 # eps -> pooled GeneralizedYoungMeasure
    family: GeneralizedYoungMeasure | None   # None if no tail run survived
    cauchy_distances: list         # successive weak* distances
    blowups: dict                  # eps -> list of (path_id, message)
    tail: list                     # rungs the family pools, coarse to fine
    finest: tuple | None           # (eps, path_id, trace, momentum residual)


def run_ladder(eps_values, base: SolverConfig, seed: int, path_ids,
               binning: Binning, snapshot_times, processes: int = 1) -> LadderResult:
    """Run every rung on shared noise and estimate the family measure.

    The rungs ``eps_values`` are checked before any run, by
    ``decreasing_rungs`` with every rung positive, and raise
    ``LimitError``.  ``solver.run_ensemble`` runs the rungs of ``base``
    config-major (every path of ``path_ids`` at one rung, then the next
    rung) on the Wiener paths of ``seed`` and initial states drawn once, on
    up to ``processes`` processes.  It reads each rung's configuration
    when the rung before starts, and ``run_rung`` takes one rung's runs and
    keeps no run, so a finished rung's configuration (with its cached
    viscous factor) is free while the next rung runs.  Every run is binned
    as it runs, in the process that runs it, by its own ``YoungBinner`` of
    ``binning`` observing the steps at ``snapshot_times``; its ``RunBins``
    are applied to its rung's ``YoungAccumulator`` and, for a tail rung,
    to the family's, so no trajectory is kept.  The tail is the last half
    of the configured rungs, ``eps_values[len // 2:]``, less any rung
    without a surviving run; per-rung measures pool the ensemble at that
    viscosity.  Blow-ups abort a single (eps, path) run and the ladder
    continues without it.  Every run also feeds an ``EnergyBudget``, and
    the result keeps every survivor's energy trace with its path id and
    the measures.  Every tail run also feeds a
    ``FunctionalRecorder`` of the first ``probe_fields`` field (whose
    ``Probe`` is built once) at the snapshot steps, which must hold step 0;
    ``finest`` holds the first survivor of the finest tail rung with its
    residual at the last snapshot.
    """
    eps_values = decreasing_rungs(eps_values, above=0)
    steps = snapshot_steps(base, snapshot_times)
    probe = Probe(probe_fields(base.grid)[0][1], steps)
    tail_rungs = eps_values[len(eps_values) // 2:]

    def watch(cfg, path):
        binner, budget = YoungBinner(binning, steps), EnergyBudget(cfg, path)
        if cfg.eps not in tail_rungs:
            return binner, budget
        return binner, budget, FunctionalRecorder(probe, cfg.eps, base.transport)

    pooled = YoungAccumulator(binning)
    traces, measures, blowups, paths, first = {}, {}, {}, {}, {}

    def run_rung(eps, rung_runs):   # a function: its last run goes when it returns
        rung = YoungAccumulator(binning)
        traces[eps] = []
        for _, path, _, err, kept in rung_runs:
            paths[path.path_id] = path
            if err is not None:
                blowups.setdefault(eps, []).append((path.path_id, str(err)))
                continue
            rung.apply(kept[0])
            if eps in tail_rungs:   # binned once, applied twice
                pooled.apply(kept[0])
                first.setdefault(eps, kept[2])
            traces[eps].append((path.path_id, kept[1]))
        if traces[eps]:
            measures[eps] = rung.measure()

    with closing(run_ensemble((base.with_eps(eps) for eps in eps_values),
                              seed, path_ids, watch, processes)) as runs:
        for eps in eps_values:
            run_rung(eps, islice(runs, len(path_ids)))

    tail = [eps for eps in measures if eps in tail_rungs]
    family, finest = None, None
    if tail:   # the finest tail rung's first survivor
        family = pooled.measure()
        pid, trace = traces[tail[-1]][0]
        finest = (tail[-1], pid, trace,
                  momentum_residual(first[tail[-1]], probe.phi, base.forcing, paths[pid]))
    usable = list(measures)
    distances = [weakstar_distance(measures[a], measures[b])
                 for a, b in zip(usable, usable[1:])]
    return LadderResult(traces, measures, family, distances, blowups, tail,
                        finest)


# -- momentum residual ------------------------------------------------------


def probe_fields(grid) -> list:
    """Two fixed divergence-free low-mode test functions, as (name, phi).

    Parities are chosen to overlap the default forcing modes so the
    stochastic pairings <Phi e_k, phi> are nontrivial.
    """
    d1 = np.zeros(grid.dim, dtype=complex)
    d1[0] = 0.5 / 1j          # sin(k1 . x) e_1
    d2 = np.zeros(grid.dim, dtype=complex)
    d2[1] = 0.5               # cos(k2 . x) e_2
    k1 = (0, 1) if grid.dim == 2 else (0, 1, 0)
    k2 = (1, 0) if grid.dim == 2 else (1, 0, 0)
    return [("phi1", SpectralField.from_modes(grid, {k1: d1})),
            ("phi2", SpectralField.from_modes(grid, {k2: d2}))]


def forcing_pairings(phi: SpectralField, forcing: ForcingOperator) -> np.ndarray:
    """<sigma_k g_k, phi> for every forcing mode."""
    grid = phi.grid
    return np.array([
        forcing.modes[k].sigma * inner_product(forcing.mode_field(grid, k), phi)
        for k in range(forcing.rank)])


def momentum_residual(series: Functionals, phi: SpectralField,
                      forcing: ForcingOperator, path: WienerPath) -> float:
    """|M_t - <Phi W(t), phi>| of one run's ``series`` of the test field
    ``phi``, at its last observed time t.

    M_t is the series' left-point functional, the one the martingale
    statistics use; the stochastic integral is the exact pairings of the
    forcing modes with ``phi`` times the Wiener coordinates of ``path`` at
    t.
    """
    m_t = float(series.martingale_series()[-1])
    last = step_index(series.times[-1], path.dt)
    beta = path.increments[:last].sum(axis=0)
    return abs(m_t - float(forcing_pairings(phi, forcing) @ beta))


# -- martingale statistics ---------------------------------------------------


class Probe:
    """A test field phi in the dealias band and what every
    ``FunctionalRecorder`` of an experiment reads of it, built once from its
    band: grad phi at the grid points, the ``support`` of phi and lap phi,
    and the ``steps`` a recorder observes (every step if None), with step 0."""

    def __init__(self, phi: SpectralField, steps=None):
        if steps is not None and 0 not in steps:
            raise LimitError("a recorder must observe step 0, where M starts")
        grid, ops = phi.grid, phi.grid.ops
        self.phi, self.steps = phi, steps
        band = ops.to_band(phi.coeffs)
        self.grad = band_gradient(grid, band).reshape(grid.dim, grid.dim, -1)
        self.support = ops.support(np.stack([band, -ops.band_k2 * band]))


@dataclass(frozen=True)
class Functionals:
    """What a ``FunctionalRecorder`` keeps of one run at viscosity ``eps``:
    per observed state its time, <u, phi>, <u, lap phi> and
    <u x u, grad phi>."""

    eps: float
    times: list
    pairings: list
    visc: list
    conv: list

    def martingale_series(self) -> np.ndarray:
        """M at every observed time; the last state only closes the window."""
        p = np.asarray(self.pairings)
        gaps = np.diff(self.times)
        visc = np.concatenate(([0.0], np.cumsum(gaps * self.visc[:-1])))
        conv = np.concatenate(([0.0], np.cumsum(gaps * self.conv[:-1])))
        return p - p[0] - self.eps * visc - conv


class FunctionalRecorder:
    """Observer accumulating the ingredients of M_t along one run; its
    ``payload()`` is the run's ``Functionals``.

    It observes the ``probe``'s steps.  Each observed state is weighted by
    the gap to the next observed time (left-point quadrature), which
    matches the explicit scheme when every step is observed.  <u, phi> and
    <u, lap phi> pair the band coefficients through the probe's support,
    and <u x u, grad phi> is read pointwise on the grid from the point
    values that come with each state, so the recorder makes no transform.
    """

    def __init__(self, probe: Probe, eps: float, transport: bool = True):
        self.probe, self.steps, self.transport = probe, probe.steps, transport
        self.series = Functionals(eps, [], [], [], [])

    def on_state(self, n, t, band, phys):
        """Record the state at step ``n``, time ``t``: ``band``, ``phys``."""
        probe, series = self.probe, self.series
        grid = probe.phi.grid
        pairing, visc = probe.support.pair(band)
        series.times.append(float(t))
        series.pairings.append(float(pairing))
        series.visc.append(float(visc))
        if self.transport:
            pts = phys.reshape(grid.dim, -1)
            series.conv.append(tensor_pairing(pts, probe.grad)
                               * (grid.volume / grid.n ** grid.dim))
        else:
            series.conv.append(0.0)

    def payload(self) -> Functionals:
        return self.series


def check_pair(s: float, t: float, error=LimitError, horizon=math.inf) -> None:
    """A martingale increment from s to t needs 0 <= s < t <= ``horizon``,
    or ``error``; a NaN time fails."""
    if not 0 <= s < t <= horizon:
        raise error(f"need 0 <= s < t <= {horizon:g}, got s={s:g}, t={t:g}")


def check_alpha(alpha, error=LimitError) -> None:
    """A significance level alpha lies in (0, 1), so that each z is finite
    and positive (a NaN does not), or ``error``."""
    if not 0 < alpha < 1:
        raise error(f"alpha must lie in (0, 1), got {alpha}")


HISTORY_KINDS = ("one", "clamp_pair", "clamp_beta")


def check_history(kind, error=LimitError) -> None:
    """A history functional is one of ``HISTORY_KINDS``, or ``error``."""
    if kind not in HISTORY_KINDS:
        raise error(f"unknown history functional {kind!r}")


@dataclass(frozen=True)
class MartingaleStat:
    """One (phi, s, t) martingale test specification."""

    phi_name: str
    s: float
    t: float
    history: str = "one"   # one of HISTORY_KINDS

    def __post_init__(self):
        check_pair(self.s, self.t)
        check_history(self.history)


@dataclass(frozen=True)
class EnsembleFunctionals:
    """Values entering the martingale statistics at one (s, t), over P paths."""

    m_s: np.ndarray        # (P,) M at s
    m_t: np.ndarray        # (P,) M at t
    beta_s: np.ndarray     # (P, K) Wiener coordinates at s
    beta_t: np.ndarray     # (P, K) Wiener coordinates at t
    pair_s: np.ndarray     # (P,) <u(s), phi>, for the clamped history weight


def martingale_test(stat: MartingaleStat, ens: EnsembleFunctionals,
                    c: np.ndarray, n_tests: int = 1, alpha: float = 0.05):
    """Monte Carlo check of the three martingale identities at (s, t).

    ``ens`` holds the functionals of at least ``MIN_MARTINGALE_PATHS``
    independent paths, ``c`` the forcing pairings <Phi e_k, phi>.  Returns
    one audit row per identity, each holding |mean| to the
    Bonferroni-corrected confidence half-width, and the diagnostics {"z"}.
    """
    check_alpha(alpha)
    paths = len(ens.m_t)
    check_martingale_paths(paths)
    z = float(ndtri(1.0 - alpha / (2.0 * max(1, n_tests))))
    dt_span = stat.t - stat.s
    n_qv = float(np.sum(c ** 2)) * dt_span

    h = np.clip({"one": np.ones(paths), "clamp_pair": ens.pair_s,
                 "clamp_beta": ens.beta_s[:, 0]}[stat.history], -1.0, 1.0)

    prefix = f"martingale_{stat.phi_name}_s{stat.s:g}_t{stat.t:g}_{stat.history}_"
    rows = [_ci_row(prefix + "increment", h * (ens.m_t - ens.m_s), z),
            _ci_row(prefix + "quadratic_variation",
                    h * (ens.m_t ** 2 - ens.m_s ** 2 - n_qv), z)]
    for k in range(len(c)):
        cross = h * (ens.m_t * ens.beta_t[:, k] - ens.m_s * ens.beta_s[:, k] - c[k] * dt_span)
        rows.append(_ci_row(prefix + f"cross_variation_k{k}", cross, z))
    return rows, {"z": z}


def _ci_row(name: str, samples: np.ndarray, z: float,
            atol: float = 1e-10) -> dict:
    """|mean| held to the confidence half-width z * se (plus atol)."""
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(len(samples)))
    return audit_row(name, "limit_verifier.martingale_test", abs(mean),
                     z * se + atol, f"se={se:.3e}")


def _by_pair(m, pairings, beta, pairs, dt: float) -> dict:
    """{(s, t): EnsembleFunctionals} from per-path series over the steps."""
    out = {}
    for s, t in pairs:
        si, ti = (step_index(x, dt, m.shape[1] - 1, LimitError) for x in (s, t))
        out[(s, t)] = EnsembleFunctionals(m[:, si], m[:, ti], beta[:, si],
                                          beta[:, ti], pairings[:, si])
    return out


def linear_model_functionals_multi(forcing: ForcingOperator, fields, seed: int,
                                   path_ids, dt: float, steps: int, pairs) -> dict:
    """Exact transport-off functionals: M_t = sum_k c_k beta_k(t).

    With transport disabled and eps = 0 the stepper reduces to
    u(t) = u(0) + Phi W(t), so M from the trajectory side equals the
    stochastic integral identically; this fast path evaluates it from the
    increments, with <u(0), phi> = 0.  Returns {name: (by_pair, c)}.
    """
    beta = np.stack([path.coordinates() for path in
                     WienerPath.sample_many(seed, path_ids, forcing.rank, dt, steps)])
    out = {}
    for name, phi in fields:
        c = forcing_pairings(phi, forcing)
        m = np.vecdot(beta, c)   # row-wise dots: the bits of c @ beta[n], unlike beta @ c
        out[name] = (_by_pair(m, m, beta, pairs, dt), c)
    return out


def solver_functionals_multi(cfg: SolverConfig, fields, seed: int, path_ids,
                             pairs, processes: int = 1) -> dict:
    """Full-model functionals: each path is integrated once, on up to
    ``processes`` processes, with one ``FunctionalRecorder`` per ``(name,
    phi)`` of ``fields``, observing every step, of a ``Probe`` built once
    for all paths.  Returns {name: (by_pair, c)}; the first blow-up is
    raised, and the ensemble stops there.
    """
    probes = [Probe(phi) for _, phi in fields]

    def record(*_):
        return [FunctionalRecorder(probe, cfg.eps, cfg.transport) for probe in probes]
    runs = []
    with closing(run_ensemble([cfg], seed, path_ids, record, processes)) as ensemble:
        for _, path, _, err, kept in ensemble:
            if err is not None:
                raise err
            runs.append((path.coordinates(),
                         [(f.martingale_series(), f.pairings) for f in kept]))
    beta = np.stack([b for b, _ in runs])
    out = {}
    for f, (name, phi) in enumerate(fields):
        m = np.stack([series[f][0] for _, series in runs])
        pairings = np.array([series[f][1] for _, series in runs])
        out[name] = (_by_pair(m, pairings, beta, pairs, cfg.dt),
                     forcing_pairings(phi, cfg.forcing))
    return out


# -- limit energy inequality -------------------------------------------------


def energy_inequality_limit(family: GeneralizedYoungMeasure, traces,
                            forcing: ForcingOperator, tol: float):
    """Slab-averaged energy inequality audit for the family measure.

    Implements the mollified form: compare slab energies of the measure
    against the Ito input and the tail-averaged stochastic integral, then
    require the compensated slab process to be non-increasing within tol
    (energetic sinks allowed, no positive jumps).  Returns the rows
    ``energy_inequality_family`` (largest pairwise defect) and
    ``no_positive_jumps`` (largest signed jump, 0 for a single slab), and
    the slab energies, compensated process and pairwise defects.
    """
    part = family.partition
    e_slab = slab_energies(family)
    hs2 = forcing.hs_norm_sq()

    i_slab = np.zeros(part.n_t)
    m_slab = np.zeros(part.n_t)
    if traces:
        stacked_m = np.mean([tr.stochastic for tr in traces], axis=0)
        times = traces[0].times
        slabs = np.array([part.slab_of(float(x)) for x in times])
        for s in range(part.n_t):
            sel = slabs == s
            m_slab[s] = stacked_m[sel].mean()
            i_slab[s] = 0.5 * hs2 * times[sel].mean()

    g = e_slab - i_slab - m_slab
    defects = []
    for si in range(part.n_t):
        for ti in range(si + 1, part.n_t):
            defects.append({"s_slab": si, "t_slab": ti,
                            "defect": float(g[ti] - g[si])})
    max_defect = float(np.max([d["defect"] for d in defects])) \
        if defects else 0.0
    max_jump = float(np.max(np.diff(g))) if part.n_t > 1 else 0.0
    module = "limit_verifier.energy_inequality_limit"
    rows = [audit_row("energy_inequality_family", module, max_defect, tol),
            audit_row("no_positive_jumps", module, max_jump, tol)]
    return rows, {"slab_energy": [float(x) for x in e_slab],
                  "compensated": [float(x) for x in g],
                  "defects": defects}
