"""Run configuration: JSON schema, validation, and object construction.

The config file is plain JSON with a closed schema: unknown keys are errors
reported with their full field path, required fields likewise.  A seed is
mandatory so no run ever depends on ambient entropy.

The settings dataclasses are the schema of the sections they are built
from (``_section``): a section's keys, their JSON types and their defaults
are the fields of its dataclass, so each default is written once, on its
field.  A run's solver settings are one ``SolverConfig``, at the first
viscosity of the run.

A rule that the library also applies is not written here again: the
loader calls the rule of the module that owns it with an ``error`` that
names the field (``_at``).  These are the time step and seed
(``forcing.check_dt``, ``check_seed``), a viscosity >= 0, the blow-up
ceiling and CFL number (``solver.check_viscosity``, ``check_guard``), the
initial amplitude and a random spectrum's k_max (``solver.check_amplitude``,
``check_k_max``), the ladder's order and positivity (``limits.decreasing_rungs``), a martingale
pair's 0 <= s < t, history kinds, level alpha and ensemble size
(``limits.check_pair``, ``check_history``, ``check_alpha``,
``check_martingale_paths``), the reference grid, dt refinement and
Gronwall level (``weakstrong.check_reference_n``,
``forcing.refinement_halvings``, ``weakstrong.check_level``), a
``young.Binning``'s radius, cell and bin counts and space cells that
divide the grid (``young.check_radius``, ``check_count``,
``check_space_cells``) and the snapshot in every time slab
(``young.CellPartition.check_slabs``).  Each such rule compares so that
NaN fails.  ``_check_memory`` holds a config to a memory ceiling: a run
per process, its Wiener paths and its Young accumulators' count and
weight tables and moment sums.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, dataclass, fields, replace

from .forcing import (
    ForcingError,
    ForcingMode,
    ForcingOperator,
    UnresolvedModeError,
    check_dt,
    check_seed,
    default_forcing,
    refinement_halvings,
)
from .limits import (check_alpha, check_history, check_martingale_paths, check_pair,
                     decreasing_rungs)
from .solver import (InitialCondition, SolverConfig, SolverError, check_amplitude,
                     check_guard, check_k_max, check_threads, check_viscosity,
                     step_index)
from .spectral import SpectralError, TorusGrid
from .weakstrong import check_level, check_reference_n
from .young import Binning, CellPartition, check_count, check_radius, check_space_cells

EXPERIMENTS = ("simulate", "vanish", "ym", "martingale", "weakstrong")
# the experiments whose runs bin their snapshots for Young measures
MEASURE_EXPERIMENTS = ("vanish", "ym", "weakstrong")
# the snapshot times loop over time_cells * snapshots_per_slab samples
MAX_SNAPSHOTS_PER_SLAB = 2 ** 16
# ceiling on the bytes an experiment holds at once, estimated from the
# config alone so that a config loads or fails the same way on every host
MAX_RUN_BYTES = 8 * 2 ** 30
# vector fields a step holds beside its snapshots (state, products, transforms)
WORKING_FIELDS = 16


class ConfigError(ValueError):
    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


_REQUIRED = object()


def _get(raw, path, key, kind, default=_REQUIRED):
    """raw[key] checked by ``_check``; ``default`` when the key is absent."""
    where = f"{path}.{key}" if path else key
    if key not in raw:
        if default is _REQUIRED:
            raise ConfigError(where, "required field missing")
        return default
    return _check(raw[key], where, kind)


def _given(raw, path, key, kind):
    """{key: raw[key]} checked by ``_check``, or {} to keep the callee's default."""
    return {key: _get(raw, path, key, kind)} if key in raw else {}


def _check(val, where, kind):
    """val as kind: int, bool, str, list, dict, or float (any finite number).

    A bool is not a number here, and an int for a float field converts.
    """
    number = kind is float
    ok = isinstance(val, (int, float) if number else kind) and (
        kind is bool or not isinstance(val, bool))
    if not ok:
        expected = "number" if number else kind.__name__
        raise ConfigError(where, f"expected {expected}, got {type(val).__name__}")
    if number:
        try:
            val = float(val)
        except OverflowError:
            raise ConfigError(where, "number out of range") from None
        if not math.isfinite(val):
            raise ConfigError(where, f"must be finite, got {val}")
    return val


def _section(raw, name, cls, own=()):
    """Keyword arguments for dataclass ``cls`` from section ``raw[name]``, if any.

    The section's keys are the fields of ``cls`` that have a default, each
    read as the JSON type of its default (a tuple from a JSON list) and
    taking the default when absent, plus the keys in ``own``, which are
    passed on as written for the caller to read.  Fields the caller
    supplies have no default and are not keys.
    """
    sec = _get(raw, "", name, dict, {})
    defaults = {f.name: f.default for f in fields(cls) if f.default is not MISSING}
    _no_unknown(sec, name, {*defaults, *own})
    out = {key: sec[key] for key in own if key in sec}
    for key, default in defaults.items():
        kind = type(default)
        val = _get(sec, name, key, list if kind is tuple else kind, default)
        out[key] = tuple(val) if kind is tuple else val
    return out


def _count(value, path):
    """A whole number >= 1."""
    if value < 1:
        raise ConfigError(path, f"must be >= 1, got {value}")
    return value


def _no_unknown(raw, path, allowed):
    for key in raw:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(where, "unknown key")


def _at(path):
    """The ``error`` a rule of the library raises to name field ``path``."""
    return functools.partial(ConfigError, path)


def _positive(value, path):
    if not value > 0:
        raise ConfigError(path, f"must be positive, got {value}")
    return value


def _grid(dim, n, dim_path, n_path) -> TorusGrid:
    try:
        return TorusGrid(dim, n)
    except SpectralError as err:
        raise ConfigError(dim_path if dim not in (2, 3) else n_path,
                          str(err)) from None


@dataclass(frozen=True)
class ToleranceSet:
    energy_defect_c: float = 1.0
    gronwall_slack: float = 0.05
    martingale_alpha: float = 0.05


@dataclass(frozen=True)
class YoungSpec:
    time_cells: int = 4
    space_cells: int = 8
    radius: float = 4.0
    bins_per_axis: int = 16
    sphere_bins: int = 32
    snapshots_per_slab: int = 4


@dataclass(frozen=True)
class MartingaleSpec:
    pairs: tuple
    histories: tuple = ("one",)
    linear_paths: int = 10_000


@dataclass(frozen=True)
class ReferenceSpec:
    n: int
    dt_factor: int
    level: float | None


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    solver: SolverConfig         # at eps_values[0]
    eps_values: tuple            # single entry for simulate/ym/martingale
    paths: int
    seed: int
    young: YoungSpec
    tolerances: ToleranceSet
    martingale: MartingaleSpec
    reference: ReferenceSpec

    @functools.cached_property
    def binning(self) -> Binning:
        """The run's measure partition of [0, horizon] and its bins."""
        grid, young = self.solver.grid, self.young
        part = CellPartition(grid.dim, grid.n, young.time_cells, young.space_cells,
                             0.0, self.solver.horizon)
        return Binning(part, young.radius, young.bins_per_axis, young.sphere_bins)

    @functools.cached_property
    def snapshot_times(self) -> tuple:
        """Mid-slab samples for the measure plus both endpoints for drift terms."""
        dt = self.solver.dt
        mids = self.binning.partition.sample_times(dt, self.young.snapshots_per_slab)
        return tuple(sorted({0.0, self.solver.steps * dt, *mids}))


def load_config(path, experiment: str, seed: int | None = None, threads: int = 1):
    """The config at ``path`` for ``experiment`` and the JSON it was read from.

    The file is read once.  A ``seed`` replaces ``ensemble.seed`` in both,
    once the file has loaded as written.  ``threads`` is ``--threads``,
    checked first; the memory ceiling charges one run per process.
    """
    check_threads(threads, _at("--threads"))
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
            raise ConfigError("<file>", f"invalid JSON: {err}") from err
    cfg = parse_config(raw, experiment, threads)
    if seed is not None:   # it replaces ensemble.seed, whose rule it obeys
        check_seed(seed, _at("ensemble.seed"))
        cfg = replace(cfg, seed=seed)
        raw["ensemble"]["seed"] = seed
    return cfg, raw


def parse_config(raw: dict, experiment: str, threads: int = 1) -> RunConfig:
    if experiment not in EXPERIMENTS:
        raise ConfigError("experiment", f"unknown experiment {experiment!r}")
    _check(raw, "<file>", dict)
    _no_unknown(raw, "", {
        "experiment", "grid", "time", "viscosity", "forcing", "initial",
        "ensemble", "young", "tolerances", "martingale", "reference", "solver",
    })
    declared = _get(raw, "", "experiment", str, experiment)
    if declared != experiment:
        raise ConfigError("experiment",
                          f"config declares {declared!r} but the subcommand is {experiment!r}")

    g = _get(raw, "", "grid", dict)
    _no_unknown(g, "grid", {"dim", "n"})
    grid = _grid(_get(g, "grid", "dim", int), _get(g, "grid", "n", int),
                 "grid.dim", "grid.n")

    t = _get(raw, "", "time", dict)
    _no_unknown(t, "time", {"dt", "horizon"})
    dt = _get(t, "time", "dt", float)
    check_dt(dt, _at("time.dt"))
    horizon = _positive(_get(t, "time", "horizon", float), "time.horizon")
    try:
        steps = step_index(horizon, dt)
    except SolverError:
        raise ConfigError("time.horizon", f"must be a whole number of steps "
                                          f"of dt={dt:g}, got {horizon:g}") from None

    eps_values = _parse_viscosity(raw, experiment)
    forcing = _parse_forcing(raw, grid)
    if experiment == "martingale" and forcing is None:
        raise ConfigError("forcing", "martingale experiment needs forcing")
    initial = _parse_initial(raw, grid)

    ens = _get(raw, "", "ensemble", dict)
    _no_unknown(ens, "ensemble", {"paths", "seed"})
    paths = _count(_get(ens, "ensemble", "paths", int), "ensemble.paths")
    seed = _get(ens, "ensemble", "seed", int)
    check_seed(seed, _at("ensemble.seed"))

    young = _parse_young(raw, grid)
    tol = _parse_tolerances(raw)
    mart = _parse_martingale(raw, horizon, dt, steps, experiment == "martingale")
    ref = _parse_reference(raw, grid, experiment)

    s = _section(raw, "solver", SolverConfig)
    for key in ("blowup_ceiling", "cfl_number"):
        check_guard(s[key], key, _at(f"solver.{key}"))
    solver = SolverConfig(grid=grid, forcing=forcing, eps=eps_values[0], dt=dt,
                          horizon=horizon, initial=initial, **s)

    cfg = RunConfig(experiment=experiment, solver=solver, eps_values=eps_values,
                    paths=paths, seed=seed, young=young, tolerances=tol,
                    martingale=mart, reference=ref)
    if experiment in MEASURE_EXPERIMENTS:
        _check_time_cells(cfg)
    if experiment == "martingale":   # after the parsers, which name a bad field first
        where, n = ("ensemble.paths", paths) if solver.transport \
            else ("martingale.linear_paths", mart.linear_paths)
        check_martingale_paths(n, _at(where))
        if not solver.transport:   # what limits.linear_model_functionals_multi assumes
            model = "the transport-off martingale reads the linear model, which needs"
            if solver.eps != 0:
                raise ConfigError("viscosity.eps", f"{model} eps = 0, got {solver.eps:g}")
            if initial.kind != "zero":
                raise ConfigError("initial.kind",
                                  f"{model} the zero initial state, got {initial.kind!r}")
    _check_memory(cfg, threads)
    return cfg


def _check_memory(cfg: RunConfig, threads: int = 1) -> None:
    """What the experiment holds at once fits under ``MAX_RUN_BYTES``.

    Each process of an ensemble integrates its runs one at a time and a
    viscosity ladder bins its runs as they run, so an experiment holds
    about one run per process beside what serves all its runs.  The
    processes are min(``threads``, paths), from ``--threads`` and the
    config alone (not the cores of the host), and one for ym and the
    transport-off martingale.  Four terms are charged:

    * the runs: the largest run once per process, since a weakstrong
      reference runs on the workers too.  A run holds ``WORKING_FIELDS``
      half-spectrum fields on its grid and what its ``YoungBinner`` keeps
      of each snapshot: an int64 oscillation key per sample, an int64 key
      and an f64 weight per escaped sample (up to 24 bytes per grid point
      when every sample escapes) and dim + 2 dim^2 f64 moment sums per
      space cell; simulate and martingale runs and the weakstrong
      reference run on ``reference.n`` bin no snapshots;
    * the Wiener paths, drawn up front by one ``WienerPath.sample_many``
      call: 24 bytes per (path, step, mode) over ``ensemble.paths`` paths,
      ``martingale.linear_paths`` for the transport-off martingale and one
      path for ym;
    * the Young accumulators held at once, two in vanish (the family's and
      a rung's) and one in ym and weakstrong: per time slab and space cell,
      an int64 count for each of the ``bins_per_axis ** dim`` oscillation
      bins, an f64 weight sum for each of the ``sphere_bins`` concentration
      bins, and dim + 2 dim^2 f64 moment sums (the first moment and the two
      second moments);
    * the energy traces vanish keeps, one per (rung, path): five f64
      series of steps + 1 entries, named by ``ensemble.paths``.

    A config above the ceiling fails naming the field of the largest term.
    """
    grid, solver, young = cfg.solver.grid, cfg.solver, cfg.young
    dim = grid.dim
    measured = cfg.experiment in MEASURE_EXPERIMENTS

    def run(n, snapshots, where):
        half = 16 * dim * n ** (dim - 1) * (n // 2 + 1)
        binned = 24 * n ** dim + 8 * (dim + 2 * dim * dim) * young.space_cells ** dim
        return (snapshots * binned + WORKING_FIELDS * half, where,
                f"a run at n={n} in {dim}D")

    runs = [run(grid.n, len(cfg.snapshot_times) if measured else 0, "grid.n")]
    if cfg.experiment == "weakstrong":
        runs.append(run(cfg.reference.n, 0, "reference.n"))
    if cfg.experiment == "martingale" and not solver.transport:   # runs no path
        paths, where = cfg.martingale.linear_paths, "martingale.linear_paths"
        processes = 1
    else:
        paths, where = 1 if cfg.experiment == "ym" else cfg.paths, "ensemble.paths"
        processes = min(threads, paths)
    size, field, what = max(runs)
    if processes > 1:
        size *= processes
        what += f" and a run in each of {processes - 1} more processes retain"
    else:
        what += " retains"
    # the draw holds the raw word, the uniform and the increment of every
    # (path, step, mode) at once: 24 bytes
    terms = [(size, field, what),
             (24 * paths * solver.steps * solver.forcing.rank, where,
              "the Wiener paths drawn up front retain")]
    if measured:
        cells = (2 if cfg.experiment == "vanish" else 1) * cfg.binning.partition.n_cells
        terms += [(8 * cells * young.bins_per_axis ** dim, "young.bins_per_axis",
                   "the oscillation count tables of the Young accumulators retain"),
                  (8 * cells * young.sphere_bins, "young.sphere_bins",
                   "the concentration weight tables of the Young accumulators retain"),
                  (8 * cells * (dim + 2 * dim * dim), "young.space_cells",
                   "the per-cell moment sums of the Young accumulators retain")]
    if cfg.experiment == "vanish":
        terms.append((40 * (solver.steps + 1) * cfg.paths * len(cfg.eps_values),
                      "ensemble.paths", "the energy traces of every rung's paths retain"))
    need = sum(term[0] for term in terms)
    if need > MAX_RUN_BYTES:
        size, where, what = max(terms)
        raise ConfigError(where, f"{what} {_gib(size)}, and the experiment "
                                 f"{_gib(need)}, above the "
                                 f"{MAX_RUN_BYTES / 2 ** 30:g} GiB ceiling")


def _gib(nbytes: int) -> str:
    """A byte count in GiB for a message, past a float's range as a power of two."""
    if nbytes < 2 ** 1000:
        return f"about {nbytes / 2 ** 30:.1f} GiB"
    return f"over 2**{nbytes.bit_length() - 31} GiB"


def _check_time_cells(cfg: RunConfig) -> None:
    """Every time cell of the measure partition holds a snapshot, by
    ``CellPartition.check_slabs``, as the measure build requires.

    Snapshots lie on the steps + 1 step times, so more cells than that
    fail before the snapshot times are formed.
    """
    if cfg.young.snapshots_per_slab > MAX_SNAPSHOTS_PER_SLAB:
        raise ConfigError("young.snapshots_per_slab",
                          f"must be <= {MAX_SNAPSHOTS_PER_SLAB}")
    cells, steps, dt = cfg.young.time_cells, cfg.solver.steps, cfg.solver.dt
    if cells > steps + 1:
        raise ConfigError("young.time_cells",
                          f"must be <= {steps + 1}, the step times at dt={dt:g}")
    cfg.binning.partition.check_slabs(cfg.snapshot_times, _at("young.time_cells"))


def _parse_viscosity(raw, experiment):
    v = _get(raw, "", "viscosity", dict)
    _no_unknown(v, "viscosity", {"eps", "ladder"})
    if "ladder" in v and "eps" in v:
        raise ConfigError("viscosity", "give either eps or ladder, not both")
    if experiment in ("vanish", "weakstrong"):
        ladder = _get(v, "viscosity", "ladder", list)
        eps = tuple(_check(x, f"viscosity.ladder[{i}]", float)
                    for i, x in enumerate(ladder))
        if len(eps) < 2:
            raise ConfigError("viscosity.ladder", "need at least two entries")
        return decreasing_rungs(eps, _at("viscosity.ladder"), above=0)
    eps = _get(v, "viscosity", "eps", float)
    check_viscosity(eps, _at("viscosity.eps"))
    return (eps,)


def _parse_forcing(raw, grid):
    f = _get(raw, "", "forcing", dict, None)
    if f is None:
        return None
    _no_unknown(f, "forcing", {"preset", "sigma", "modes"})
    try:
        if "modes" in f:
            modes = _get(f, "forcing", "modes", list)
            if not modes:   # Phi = 0 is written by leaving out the section
                raise ConfigError("forcing.modes", "need at least one mode")
            if f.keys() & {"preset", "sigma"}:
                raise ConfigError("forcing", "modes exclude preset and sigma")
            op = ForcingOperator(tuple(_parse_mode(m, f"forcing.modes[{i}]")
                                       for i, m in enumerate(modes)))
        elif _get(f, "forcing", "preset", str, None) == "default":
            op = default_forcing(grid.dim, **_given(f, "forcing", "sigma", float))
        else:
            raise ConfigError("forcing", "need modes or preset='default'")
        op.check_resolved(grid)
    except UnresolvedModeError as err:   # the presets lie in every band
        raise ConfigError(f"forcing.modes[{err.index}]", str(err)) from err
    except ForcingError as err:
        raise ConfigError("forcing", str(err)) from err
    return op


def _parse_mode(m, path) -> ForcingMode:
    m = _check(m, path, dict)
    _no_unknown(m, path, {"k", "direction", "sigma", "parity"})
    k = tuple(_check(x, f"{path}.k[{j}]", int)
              for j, x in enumerate(_get(m, path, "k", list)))
    direction = tuple(_check(x, f"{path}.direction[{j}]", float)
                      for j, x in enumerate(_get(m, path, "direction", list)))
    try:
        return ForcingMode(k, direction, _get(m, path, "sigma", float),
                           **_given(m, path, "parity", str))
    except (ForcingError, OverflowError) as err:
        raise ConfigError(path, str(err)) from err


def _parse_initial(raw, grid):
    spec = _section(raw, "initial", InitialCondition)
    check_amplitude(spec["amplitude"], _at("initial.amplitude"))
    if spec["kind"] == "random_spectrum":
        check_k_max(spec["k_max"], _at("initial.k_max"), grid)
    try:
        init = InitialCondition(**spec)
    except SolverError as err:
        raise ConfigError("initial.kind", str(err)) from err
    if init.kind == "random_spectrum":
        try:
            (grid.dim ** 0.5 * init.k_max) ** -init.decay
        except OverflowError:
            raise ConfigError("initial.decay",
                              f"|k|^-decay overflows at |k| = sqrt(dim) "
                              f"k_max for decay={init.decay:g}") from None
    return init


def _parse_young(raw, grid):
    spec = YoungSpec(**_section(raw, "young", YoungSpec))
    for key in ("time_cells", "space_cells", "bins_per_axis", "sphere_bins"):
        check_count(getattr(spec, key), key, _at(f"young.{key}"))
    _count(spec.snapshots_per_slab, "young.snapshots_per_slab")
    check_radius(spec.radius, _at("young.radius"))
    check_space_cells(spec.space_cells, grid.n, _at("young.space_cells"))
    return spec


def _parse_tolerances(raw):
    tol = ToleranceSet(**_section(raw, "tolerances", ToleranceSet))
    _positive(tol.energy_defect_c, "tolerances.energy_defect_c")
    _positive(tol.gronwall_slack, "tolerances.gronwall_slack")
    check_alpha(tol.martingale_alpha, _at("tolerances.martingale_alpha"))
    return tol


def _parse_martingale(raw, horizon, dt, steps, on_grid):
    """The martingale section; with ``on_grid`` pairs must be whole steps.

    The default pair (floor(steps / 4) dt, floor(steps / 2) dt) lies on the
    step grid; it needs at least 2 steps.
    """
    m = _section(raw, "martingale", MartingaleSpec, own=("pairs",))
    if "pairs" not in m and steps < 2:
        raise ConfigError("time.horizon", f"{steps} step of dt={dt:g} leaves no "
                                          "default martingale pair; need >= 2 steps")
    pairs_raw = _check(m.pop("pairs", [[steps // 4 * dt, steps // 2 * dt]]),
                       "martingale.pairs", list)
    pairs = []
    for i, p in enumerate(pairs_raw):
        where = f"martingale.pairs[{i}]"
        p = _check(p, where, list)
        if len(p) != 2:
            raise ConfigError(where, "need [s, t]")
        s, t = (_check(x, f"{where}[{j}]", float) for j, x in enumerate(p))
        check_pair(s, t, _at(where), horizon)
        try:
            for x in (s, t) if on_grid else ():
                step_index(x, dt)
        except SolverError:
            raise ConfigError(where, "s and t must be whole numbers of steps "
                                     f"of dt={dt:g}") from None
        pairs.append((s, t))
    for h in m["histories"]:
        check_history(h, _at("martingale.histories"))
    _count(m["linear_paths"], "martingale.linear_paths")
    return MartingaleSpec(pairs=tuple(pairs), **m)


def _parse_reference(raw, grid, experiment):
    r = _get(raw, "", "reference", dict, {})
    _no_unknown(r, "reference", {"n", "dt_factor", "level"})
    spec = ReferenceSpec(
        n=_get(r, "reference", "n", int, 4 * grid.n),
        dt_factor=_get(r, "reference", "dt_factor", int, 4),
        level=_get(r, "reference", "level", float, None))
    if experiment == "weakstrong":
        _grid(grid.dim, spec.n, "reference.n", "reference.n")
        check_reference_n(grid.n, spec.n, _at("reference.n"))
        refinement_halvings(spec.dt_factor, _at("reference.dt_factor"))
        if spec.level is not None:
            check_level(spec.level, _at("reference.level"))
    return spec
