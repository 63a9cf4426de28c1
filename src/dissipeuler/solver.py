"""Time integration of projected stochastic Navier-Stokes at viscosity eps.

The stepper is semi-implicit: the Stokes part uses the exact Fourier
integrating factor exp(-eps |k|^2 dt), transport and noise are explicit
Euler-Maruyama, and the state stays divergence-free because every additive
term is projected.  The observer ``EnergyBudget`` sums, per step, every
quantity entering the pathwise energy budget of a run:

    E_n   kinetic energy 0.5 ||u||^2
    D_n   cumulative eps * int ||grad u||^2 (left-point quadrature)
    I_n   cumulative Ito input rate 0.5 ||Phi||_HS^2 * t
    M_n   cumulative discrete stochastic integral sum_k <u, Phi e_k> dW_k

The energy-inequality defect over [s, t] is G(t) - G(s) for the compensated
process G = E + D - I - M, which an admissible path keeps non-increasing up
to discretization noise.  Only the experiments that read the budget
attach it.

No forcing is Phi = 0: ``SolverConfig`` stores ``forcing=None`` as the
rank-0 ``ForcingOperator(())``, so every run samples its Wiener path (of 0
modes then) and adds its noise one way, and I and M stay +0.0.

A run (``run_path``) starts from a band array (``initial_state``), steps on
the dealias band, guards against blow-up and keeps only its configuration
and its final band; its states are read by observers, such as the energy
budget, the binner and the functional recorders, each of which reduces the
states it reads and keeps none of them.  An observer serves one run: it
has ``steps``, ``on_state(n, t, band, phys)``, which reads a state's band
coefficients and point values, and ``payload()``, what it kept of the run,
also of a run that stopped early.  Every experiment runs its
(configuration, path) runs through ``run_ensemble``, which draws the
Wiener paths once, shares them across configurations (refined by Brownian
bridge for one at a finer dt), builds each run's observers for the path
it steps on, hands back their payloads with the run, reports a blow-up as
that run's failure with the payloads it left and, for ``--threads``, runs
the paths on forked workers.
"""

from __future__ import annotations

import csv
import fcntl
import functools
import math
import os
import pickle
import signal
import traceback
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .forcing import ForcingOperator, WienerPath, auxiliary_normals, check_dt
from .reporting import audit_row
from .spectral import (
    SpectralField,
    TorusGrid,
    _band_convective,
    _band_energy_and_grad_norm_sq,
    _band_to_physical,
    _project,
    _Scratch,
    leray_project,
    single_mode,
    taylor_green,
)


# the pipe a worker of ``run_ensemble`` sends its runs through, in bytes
PIPE_BYTES = 2 ** 20


class SolverError(RuntimeError):
    pass


class BlowUpError(SolverError):
    """Trajectory lost resolution at ``time``, with sup |u| = ``sup`` (None
    for a run without transport)."""

    def __init__(self, message, time=None, sup=None):
        super().__init__(message)
        self.time = time
        self.sup = sup


class CflError(BlowUpError):
    """Step size exceeded the CFL bound; a blow-up of the discretization."""


@dataclass(frozen=True)
class InitialCondition:
    """Initial law: a named deterministic field or a random-phase spectrum.

    The random spectrum populates wavevectors with 0 < |k|_inf <= k_max
    with amplitudes amplitude * |k|^-decay and counter-based phases, so
    every p-th moment of the initial energy is finite and the draw is a
    pure function of (seed, path_id).
    """

    kind: str = "taylor_green"
    amplitude: float = 1.0
    k_max: int = 3
    decay: float = 2.0

    _KINDS = ("zero", "taylor_green", "single_mode", "random_spectrum")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise SolverError(f"unknown initial condition kind {self.kind!r}")
        check_amplitude(self.amplitude)
        if self.kind == "random_spectrum":
            check_k_max(self.k_max)

    def sample(self, grid: TorusGrid, seed: int, path_id: int) -> SpectralField:
        if self.kind == "zero":
            return SpectralField.zero(grid)
        if self.kind == "taylor_green":
            return taylor_green(grid, self.amplitude)
        if self.kind == "single_mode":
            return single_mode(grid, self.amplitude)
        return self._random_spectrum(grid, seed, path_id)

    def _random_spectrum(self, grid: TorusGrid, seed: int, path_id: int) -> SpectralField:
        span = range(-self.k_max, self.k_max + 1)
        if grid.dim == 2:
            wavevectors = [(a, b) for a in span for b in span]
        else:
            wavevectors = [(a, b, c) for a in span for b in span for c in span]
        wavevectors = [k for k in wavevectors if any(k)]
        limit = min(grid.dealias_cutoff(), grid.n // 2 - 1)
        draws = auxiliary_normals(seed, path_id, 0,
                                  len(wavevectors) * 2 * (grid.dim + 1))
        draws = draws.reshape(len(wavevectors), 2, grid.dim + 1)
        modes = {}
        for i, k in enumerate(wavevectors):
            if any(abs(q) > limit for q in k):
                continue
            kvec = np.asarray(k, dtype=float)
            knorm = float(np.linalg.norm(kvec))
            re, im = draws[i, 0], draws[i, 1]
            vec = (re[: grid.dim] + 1j * im[: grid.dim])
            # force the direction transverse to k; fall back to a fixed
            # rotation if the draw is (numerically) parallel
            vec = vec - kvec * (kvec @ vec) / (knorm ** 2)
            if np.linalg.norm(vec) < 1e-12:
                alt = np.zeros(grid.dim)
                alt[int(np.argmin(np.abs(kvec)))] = 1.0
                vec = alt - kvec * (kvec @ alt) / knorm ** 2
            vec = vec / np.linalg.norm(vec)
            amp = self.amplitude * knorm ** (-self.decay)
            phase = np.exp(1j * np.arctan2(im[grid.dim], re[grid.dim]))
            modes[k] = 0.5 * amp * phase * vec
        return leray_project(SpectralField.from_modes(grid, modes))


@dataclass(frozen=True)
class SolverConfig:
    grid: TorusGrid
    forcing: ForcingOperator | None   # None is stored as ForcingOperator(())
    eps: float
    dt: float
    horizon: float
    initial: InitialCondition = field(default_factory=InitialCondition)
    blowup_ceiling: float = 1e3
    cfl_number: float = 0.5
    transport: bool = True

    def __post_init__(self):
        check_dt(self.dt, SolverError)
        check_viscosity(self.eps)
        check_guard(self.blowup_ceiling, "blowup_ceiling")
        check_guard(self.cfl_number, "cfl_number")
        self.steps   # the horizon must be a step >= 0, by ``step_index``
        if self.forcing is None:
            object.__setattr__(self, "forcing", ForcingOperator(()))
        self.forcing.check_resolved(self.grid)

    @functools.cached_property
    def steps(self) -> int:
        return step_index(self.horizon, self.dt)

    def with_eps(self, eps: float) -> "SolverConfig":
        return replace(self, eps=eps)

    @functools.cached_property
    def viscous_factor(self) -> np.ndarray:
        """exp(-eps |k|^2 dt) on the dealias band as complex numbers, built
        once per configuration."""
        out = np.exp(-self.eps * self.grid.ops.band_k2 * self.dt).astype(np.complex128)
        out.setflags(write=False)
        return out

    @functools.cached_property
    def noise_support(self):
        """The noise's ``BandSupport``, built once per configuration."""
        return self.forcing.noise_support(self.grid)


def check_amplitude(amplitude: float, error: type = SolverError) -> None:
    """An initial amplitude is finite (not NaN), or ``error``."""
    if not -math.inf < amplitude < math.inf:
        raise error(f"amplitude must be finite, got {amplitude!r}")


def check_k_max(k_max: int, error: type = SolverError, grid: TorusGrid | None = None) -> None:
    """A random spectrum's k_max is >= 1 and, given its ``grid``, at most
    the grid's dealias cutoff (a NaN is neither), or ``error``."""
    cut = math.inf if grid is None else grid.dealias_cutoff()
    if not 1 <= k_max <= cut:
        bound = ">= 1," if grid is None else \
            f"in [1, {cut}], the dealias cutoff of n={grid.n},"
        raise error(f"k_max must be {bound} got {k_max!r}")


def check_viscosity(eps: float, error: type = SolverError) -> None:
    """A viscosity is >= 0 and finite (so not NaN), or ``error``."""
    if not 0 <= eps < math.inf:
        raise error(f"viscosity must be >= 0 and finite, got {eps!r}")


def check_guard(value: float, name: str, error: type = SolverError) -> None:
    """A blow-up ceiling or CFL number ``name`` is positive and finite (not NaN), or ``error``."""
    if not 0 < value < math.inf:
        raise error(f"{name} must be positive and finite, got {value!r}")


@dataclass
class EnergyTrace:
    """Pathwise energy budget sampled at every grid time."""

    times: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    ito_input: np.ndarray
    stochastic: np.ndarray

    @property
    def initial_energy(self) -> float:
        return float(self.energy[0])

    def compensated(self) -> np.ndarray:
        """G = E + D - I - M; non-increasing for admissible paths."""
        return self.energy + self.dissipation - self.ito_input - self.stochastic

    def defect_series(self) -> np.ndarray:
        """defect(0, t_n) for every grid time."""
        g = self.compensated()
        return g - g[0]

    def max_positive_defect(self) -> float:
        """max over all grid pairs s < t of defect(s, t), floored at 0."""
        g = self.compensated()
        running_min = np.minimum.accumulate(g[:-1])
        return float(np.max(g[1:] - running_min, initial=0.0))

    def tolerance(self, c: float = 1.0) -> float:
        dt = float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0
        return c * np.sqrt(dt) * (1.0 + self.initial_energy)

    def write_csv(self, path) -> None:
        defects = self.defect_series()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "E", "D", "I", "M", "defect"])
            for i in range(len(self.times)):
                w.writerow([repr(float(self.times[i])),
                            repr(float(self.energy[i])),
                            repr(float(self.dissipation[i])),
                            repr(float(self.ito_input[i])),
                            repr(float(self.stochastic[i])),
                            repr(float(defects[i]))])


class EnergyBudget:
    """Observer summing the energy budget of one run of ``cfg`` on ``path``,
    the path the run steps on; its ``payload()`` is the ``EnergyTrace`` of
    the states it read, so a run that stopped early gives its partial trace.

    It reads every step.  At state n it takes E_n and ||grad u_n||^2 by
    Parseval, in its own power array, and the increments of step n from
    u_n: eps dt ||grad u_n||^2 for D (for eps > 0) and <u_n, Phi dW_n>,
    paired through ``cfg.noise_support``, for M.
    """

    steps = None

    def __init__(self, cfg: SolverConfig, path: WienerPath):
        self.cfg, self.path, self.read = cfg, path, 0
        self.times = np.arange(cfg.steps + 1) * cfg.dt
        self.energy = np.empty(cfg.steps + 1)
        self.dissipation = np.zeros(cfg.steps + 1)
        self.ito_input = 0.5 * cfg.forcing.hs_norm_sq() * self.times
        self.stochastic = np.zeros(cfg.steps + 1)
        self.power = np.empty(cfg.grid.spectral_shape)

    def on_state(self, n, t, band, phys):
        cfg = self.cfg
        self.energy[n], grad_sq = _band_energy_and_grad_norm_sq(cfg.grid, band, self.power)
        self.read = n + 1
        if n == cfg.steps:
            return
        if cfg.eps > 0:
            self.dissipation[n + 1] = self.dissipation[n] + cfg.eps * cfg.dt * grad_sq
        self.stochastic[n + 1] = self.stochastic[n] + \
            float(cfg.noise_support.pair(band) @ self.path.increments[n])

    def payload(self) -> EnergyTrace:
        n = self.read
        return EnergyTrace(self.times[:n], self.energy[:n], self.dissipation[:n],
                           self.ito_input[:n], self.stochastic[:n])


@dataclass(frozen=True)
class SolverRun:
    config: SolverConfig
    band: np.ndarray   # the final state's band array

    @property
    def final(self) -> SpectralField:
        """The final state on the full layout, built on each read."""
        return SpectralField(self.config.grid, self.config.grid.ops.from_band(self.band))

    @property
    def trace(self) -> SimpleNamespace:
        """The run's step times as ``trace.times``, read only by the
        benchmark tracer (the energy trace is ``EnergyBudget``'s)."""
        return SimpleNamespace(times=np.arange(self.config.steps + 1) * self.config.dt)


def snapshot_steps(cfg: SolverConfig, times, error: type = SolverError) -> frozenset:
    """The steps of ``cfg`` at ``times``, each by ``step_index``."""
    return frozenset(step_index(t, cfg.dt, cfg.steps, error) for t in times)


def step_index(t: float, dt: float, steps: int | None = None,
               error: type = SolverError) -> int:
    """The step n whose time n dt lies within 1e-9 of a step of time t.

    The one rule that maps a time to a step of a run: a time off the step
    grid, before step 0 or (given ``steps``) after step ``steps`` raises
    ``error``.
    """
    x = t / dt
    n = round(x) if math.isfinite(x) else -1
    if n < 0 or abs(x - n) > 1e-9 or (steps is not None and n > steps):
        bound = f"0..{steps}" if steps is not None else ">= 0"
        raise error(f"time {t!r} is not on the step grid of dt={dt:g} (steps {bound})")
    return n


def _band_step(u: np.ndarray, dw: np.ndarray, cfg: SolverConfig,
               phys: np.ndarray | None, scratch: _Scratch) -> tuple:
    """One Euler-Maruyama step with exact viscous integrating factor, on
    band coefficients: returns (new band coefficients, max_x |u|).

    ``phys`` holds the point values of u; the transport term reads them
    and makes no inverse transform, and without transport they are not
    read and the sup is 0.  ``dw`` holds the increments of the
    ``cfg.forcing.rank`` modes, added on the noise's band support only.
    The transport kernel works in ``scratch``; the new state is a new
    array.
    """
    if cfg.transport:
        conv, sup = _band_convective(cfg.grid, phys, scratch)
        drift = u + cfg.dt * conv
    else:
        sup = 0.0
        drift = u.copy()
    support = cfg.noise_support
    drift.flat[support.index] += np.asarray(dw, dtype=np.float64) @ support.values
    if cfg.eps > 0:
        drift *= cfg.viscous_factor
    return drift, sup


def initial_state(cfg: SolverConfig, seed: int, path_id: int) -> np.ndarray:
    """The read-only band array ``run_path`` starts from: the band of the
    draw, projected there and times 1 + 0j, as the dealias mask multiplies
    it (which sets the signs of its zeros)."""
    ops = cfg.grid.ops
    draw = ops.to_band(cfg.initial.sample(cfg.grid, seed, path_id).coeffs)
    band = _project(ops.band_ks_c, ops.band_inv_k2_c, draw) * (1 + 0j)
    band.setflags(write=False)
    return band


def run_path(cfg: SolverConfig, path: WienerPath, initial: np.ndarray,
             observers=()) -> SolverRun:
    """Integrate one trajectory of ``cfg`` on the Wiener ``path`` (at cfg's
    dt, reaching the horizon, one mode per forcing mode: ``run_ensemble``
    refines the drawn path by Brownian bridge for a finer dt) from
    ``initial``, a complex128 band array of ``cfg.grid`` (else
    ``SolverError``), which is ``initial_state(cfg, path.seed,
    path.path_id)``; the run reads it through a read-only view and leaves
    the caller's array as it was.

    Every state lies in the dealias band (the start is a band array and
    the forcing modes lie inside it), so from its start to its final state
    the run holds only its band coefficients: it steps on them and adds
    the noise through ``cfg.noise_support``.  Each observer's ``on_state``
    receives (step n, time, the run's read-only band array, point values)
    at its ``steps`` (every step if None), before the run guards that
    state.  The point values come from one band inverse transform, made
    only where the transport term or an observer reads them; the run
    builds no full-layout field (``SolverRun.final`` does, where it is
    read).  A sup |u| above ``cfg.blowup_ceiling``, or NaN, raises
    ``BlowUpError`` and a step past the CFL bound ``CflError``; a run
    without transport has no sup, and raises ``BlowUpError`` at a state
    that is not finite.  The run reuses its transform-sized scratch arrays
    from step to step, and lets them go while a snapshot observer (one
    with ``steps``) reads a state, so its peak memory stays that of the
    observers.
    """
    grid = cfg.grid
    steps = cfg.steps
    if not abs(path.dt - cfg.dt) <= 1e-12 * cfg.dt:   # a NaN dt fails
        raise SolverError(f"path dt {path.dt} does not match config dt {cfg.dt}")
    if path.steps < steps:
        raise SolverError("Wiener path shorter than the run horizon")
    if path.n_modes != cfg.forcing.rank:
        raise SolverError(f"Wiener path has {path.n_modes} modes, the forcing "
                          f"has {cfg.forcing.rank}")
    shape = (grid.dim,) + grid.ops.band_shape
    got = (initial.dtype, initial.shape) if isinstance(initial, np.ndarray) \
        else type(initial).__name__
    if got != (np.complex128, shape):
        raise SolverError(f"initial must be a complex128 band array of shape {shape}, "
                          f"got {got}")
    u = initial.view()

    times = np.arange(steps + 1) * cfg.dt
    scratch = _Scratch(grid)
    for n in range(steps + 1):
        u.setflags(write=False)
        readers = [obs for obs in observers if obs.steps is None or n in obs.steps]
        phys = _band_to_physical(grid, u, scratch.half[: grid.dim]) \
            if readers or (cfg.transport and n < steps) else None
        snapshot = any(obs.steps is not None for obs in readers)
        if snapshot:
            scratch = None   # the observer's own arrays may take its memory
        for obs in readers:
            obs.on_state(n, times[n], u, phys)
        if snapshot:
            scratch = _Scratch(grid)
        if not cfg.transport:   # no sup to test: the energy is finite iff this is
            norm_sq = np.vdot(u, u).real
            if not np.isfinite(norm_sq):
                raise BlowUpError(f"non-finite energy {norm_sq:.3e} at t = {times[n]:.4f}",
                                  time=times[n])
        if n == steps:
            break
        u, sup = _band_step(u, path.increments[n], cfg, phys, scratch)
        if cfg.transport:
            if not sup <= cfg.blowup_ceiling:   # a NaN sup is a blow-up
                raise BlowUpError(
                    f"sup |u| = {sup:.3e} exceeded ceiling at t = {times[n + 1]:.4f}",
                    time=times[n + 1], sup=sup)
            if sup > 0 and cfg.dt > cfg.cfl_number * grid.dx / sup:
                raise CflError(
                    f"CFL violated at t = {times[n + 1]:.4f}: "
                    f"dt = {cfg.dt:.3e} > {cfg.cfl_number} dx / {sup:.3e}",
                    time=times[n + 1], sup=sup)

    return SolverRun(cfg, u)


def check_threads(threads: int, error: type = SolverError) -> None:
    """``--threads`` is a whole number >= 1, or ``error``."""
    if not threads >= 1:
        raise error(f"must be >= 1, got {threads}")


def ensemble_processes(threads: int, paths: int) -> int:
    """P, the processes an ensemble of ``paths`` paths runs on at
    ``threads``: min(threads, paths, the cores this process may use)."""
    check_threads(threads)
    return max(1, min(threads, paths, len(os.sched_getaffinity(0))))


def run_ensemble(cfgs, seed: int, path_ids, observers=lambda cfg, path: (),
                 processes: int = 1, draw: SolverConfig | None = None):
    """Run every path of ``path_ids`` at every configuration of ``cfgs``.

    The one loop over an experiment's (configuration, path) runs.  Every
    path is drawn once, by one ``WienerPath.sample_many`` call at the
    (rank, dt, steps) of ``draw`` (the first configuration if None), and
    shared bit for bit by the runs of all configurations.  A configuration
    whose dt is the draw's divided by 2^k runs on ``path.refined(2^k)``,
    the Brownian-bridge refinement, made in the process that runs it; any
    other ratio raises before that configuration integrates, at the
    refinement or at ``run_path``'s dt check.  Runs are yielded
    config-major: every path of one configuration, in ``path_ids`` order,
    then the next configuration.  ``cfgs`` is read one configuration
    ahead, the next one when this one's runs start, and the loop holds
    neither a configuration nor a run past its last yield, so a caller
    that keeps neither lets a finished configuration go (with its cached
    tables) while the next one runs.  Each path's initial state is drawn
    once by its first run, as a band array, and kept for the next
    configuration only when that one has the same grid and initial law.

    ``observers(cfg, path)`` builds fresh observers for the run at ``cfg``
    on ``path``, the path that run steps on (refined for a finer dt), just
    before that run, in the process that runs it.  Yields (cfg, path, run,
    err, kept) after each run, with ``path`` as drawn and ``kept`` the
    list of its observers' ``payload()``, taken when the run ends.  A run
    that blows up yields run None, its ``BlowUpError`` as err and the
    payloads of what its observers read before it stopped, and the
    remaining runs go ahead.

    The runs go on P = ``ensemble_processes(processes, paths)`` processes:
    this one and P - 1 workers forked when the paths are drawn, each with
    its own copy of ``cfgs``.  Path i runs in process i mod P, which draws
    and keeps that path's initial states.  A worker runs its runs in order
    and sends each one's final band, error and kept payloads through a
    pipe; here, in its turn, the run is yielded as if it had
    been made here, so the yields keep every bit at any P.  A worker
    leaves only through ``os._exit``; any exception in it but a blow-up
    raises ``WorkerError`` here with its traceback.  When the loop ends or
    its consumer stops, the workers are killed and reaped.
    """
    cfgs = iter(cfgs)
    cfg = next(cfgs)
    draw = draw or cfg
    paths = WienerPath.sample_many(seed, path_ids, draw.forcing.rank, draw.dt, draw.steps)
    share = ensemble_processes(processes, len(paths))
    parent, workers = os.getpid(), []
    try:
        for rank in range(1, share):
            workers.append(_fork_worker(cfg, cfgs, paths, observers, rank, share, workers))
        runs = _runs(cfg, cfgs, paths, observers, 0, share, workers)
        del cfg, draw   # the loop alone holds the configuration it runs
        yield from runs
    finally:
        if os.getpid() == parent:   # not a worker's copy of a parent's loop
            for worker in workers:
                worker.reader.close()
                os.kill(worker.pid, signal.SIGKILL)
                os.waitpid(worker.pid, 0)


class WorkerError(SolverError):
    """A worker process of ``run_ensemble`` failed other than by a blow-up."""


@dataclass(frozen=True)
class _Worker:
    pid: int
    reader: object   # the binary file its runs arrive on


def _runs(cfg, cfgs, paths, observers, rank, share, workers=()):
    """The runs of ``run_ensemble`` made in process ``rank`` of ``share``:
    those of the paths i with i mod share == rank, and, given the
    ``workers``, every other run from its worker, in order."""
    starts = {}   # path id -> start band, drawn for an earlier configuration
    while cfg is not None:
        following = next(cfgs, None)
        keep = following is not None and \
            (following.grid, following.initial) == (cfg.grid, cfg.initial)
        for i, path in enumerate(paths):
            if i % share != rank:
                if workers:
                    yield _receive(workers[i % share - 1], cfg, path)
                continue
            pid = path.path_id
            initial = starts.pop(pid, None)
            if initial is None:
                initial = initial_state(cfg, path.seed, pid)
            if keep:
                starts[pid] = initial
            on = path.refined(round(path.dt / cfg.dt))   # the path the run steps on
            watching = observers(cfg, on)
            try:   # the run is a temporary of the yield: no name holds it
                yield cfg, path, run_path(cfg, on, initial, watching), None, \
                    [obs.payload() for obs in watching]
            except BlowUpError as err:
                yield cfg, path, None, err, [obs.payload() for obs in watching]
        cfg = following


def _fork_worker(cfg, cfgs, paths, observers, rank, share, workers) -> _Worker:
    """Fork worker ``rank`` of ``share``, which sends its runs up a pipe;
    ``workers`` are the ones forked before, whose pipes it closes."""
    reader, writer = os.pipe()
    try:   # room for a few runs, so that the worker runs ahead of the parent
        fcntl.fcntl(writer, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
    except OSError:   # above the host's pipe-max-size: the default size
        pass
    pid = os.fork()
    if pid:
        os.close(writer)
        return _Worker(pid, os.fdopen(reader, "rb"))
    status = 1
    try:   # the worker: it leaves only through os._exit, so no caller's code runs
        os.close(reader)
        for worker in workers:
            worker.reader.close()
        with os.fdopen(writer, "wb") as out:
            _serve(_runs(cfg, cfgs, paths, observers, rank, share), out)
        status = 0
    finally:
        os._exit(status)


def _serve(runs, out) -> None:
    """Send each of ``runs`` to ``out`` with its kept payloads, or the
    traceback of the exception that ends them."""
    def send(message):   # pickled whole first, so a failure sends no part of it
        out.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
        out.flush()

    try:
        for _, _, run, err, kept in runs:
            send(("run", (None if run is None else run.band, err, kept)))
    except Exception:
        send(("crash", traceback.format_exc()))


def _receive(worker: _Worker, cfg: SolverConfig, path: WienerPath):
    """The next run from ``worker``: ``path``'s at ``cfg``."""
    try:
        kind, body = pickle.load(worker.reader)
    except EOFError:
        raise WorkerError(f"ensemble worker {worker.pid} ended before its run "
                          f"of path {path.path_id}") from None
    if kind == "crash":
        raise WorkerError(f"ensemble worker {worker.pid} failed:\n{body}")
    band, err, kept = body
    return cfg, path, None if band is None else SolverRun(cfg, band), err, kept


# -- ensemble moment monitor ----------------------------------------------


def apriori_moment_report(traces_by_eps: dict, p: float, z: float = 1.96):
    """Monte Carlo check that E[(sup_t E_t + eps int ||grad u||^2)^p] is
    uniform along the viscosity ladder (non-increasing within CI).

    Returns the row ``apriori_moment_uniform``, whose value is the largest
    signed rise of the moment from one rung to the next beyond the combined
    confidence half-widths ``ci`` (0 for a single rung), and the
    diagnostics {"p", "rows"} with one moment row per rung.

    ``traces_by_eps`` maps eps -> list of EnergyTrace with shared noise
    seeds across entries.  Requires p > 2 to match the moment assumption on
    the initial law.
    """
    if p <= 2:
        raise SolverError("moment order p must exceed 2")
    if not traces_by_eps:
        raise SolverError("empty ensemble")
    rows = []
    for eps in sorted(traces_by_eps, reverse=True):
        traces = traces_by_eps[eps]
        if len(traces) == 0:
            raise SolverError(f"empty ensemble for eps={eps}")
        x = np.array([
            (float(np.max(tr.energy)) + float(tr.dissipation[-1])) ** p
            for tr in traces])
        n = len(x)
        se = float(x.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        rows.append({"eps": eps, "paths": n, "moment": float(x.mean()),
                     "se": se, "ci": z * se})
    gaps = [b["moment"] - a["moment"] - float(np.hypot(a["ci"], b["ci"]))
            for a, b in zip(rows, rows[1:])]
    worst = float(np.max(gaps)) if gaps else 0.0
    row = audit_row("apriori_moment_uniform", "ns_solver.apriori_monitor",
                    worst, 0.0, f"moments={['%.5g' % r['moment'] for r in rows]}")
    return [row], {"p": p, "rows": rows}
