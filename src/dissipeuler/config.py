"""Run configuration: JSON schema, validation, and object construction.

The config file is plain JSON with a closed schema: unknown keys are errors
reported with their full field path, required fields likewise.  A seed is
mandatory so no run ever depends on ambient entropy.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace

from .forcing import (
    ForcingError,
    ForcingMode,
    ForcingOperator,
    UnresolvedModeError,
    default_forcing,
)
from .limits import MIN_MARTINGALE_PATHS, MartingaleStat
from .solver import InitialCondition, SolverConfig, SolverError, step_index
from .spectral import SpectralError, TorusGrid
from .young import CellPartition

EXPERIMENTS = ("simulate", "vanish", "ym", "martingale", "weakstrong")
# the snapshot times loop over time_cells * snapshots_per_slab samples
MAX_SNAPSHOTS_PER_SLAB = 2 ** 16
# ceiling on the bytes one run retains, estimated from the config alone so
# that a config loads or fails the same way on every host
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


def _count(raw, path, key, default=_REQUIRED):
    """A whole number >= 1."""
    val = _get(raw, path, key, int, default)
    if val < 1:
        raise ConfigError(f"{path}.{key}", f"must be >= 1, got {val}")
    return val


def _no_unknown(raw, path, allowed):
    for key in raw:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(where, "unknown key")


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


def check_seed(seed: int) -> int:
    """A seed keys the 64-bit counter-based generator: 0 <= seed < 2**64."""
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("ensemble.seed", f"must be in [0, 2**64), got {seed}")
    return seed


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
    n: int = 128
    dt_factor: int = 4
    level: float | None = None


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    grid: TorusGrid
    dt: float
    horizon: float
    eps_values: tuple            # single entry for simulate/ym/martingale
    forcing: ForcingOperator | None
    initial: InitialCondition
    paths: int
    seed: int
    young: YoungSpec
    tolerances: ToleranceSet
    martingale: MartingaleSpec
    reference: ReferenceSpec
    blowup_ceiling: float = 1e3
    cfl_number: float = 0.5
    transport: bool = True

    def solver_config(self, eps: float) -> SolverConfig:
        return SolverConfig(grid=self.grid, forcing=self.forcing, eps=eps,
                            dt=self.dt, horizon=self.horizon,
                            initial=self.initial,
                            blowup_ceiling=self.blowup_ceiling,
                            cfl_number=self.cfl_number,
                            transport=self.transport)

    @functools.cached_property
    def partition(self) -> CellPartition:
        return CellPartition(self.grid.dim, self.grid.n, self.young.time_cells,
                             self.young.space_cells, 0.0, self.horizon)

    @functools.cached_property
    def snapshot_times(self) -> tuple:
        """Mid-slab samples for the measure plus both endpoints for drift terms."""
        mids = self.partition.sample_times(self.dt, self.young.snapshots_per_slab)
        end = step_index(self.horizon, self.dt) * self.dt
        return tuple(sorted({0.0, end, *mids}))


def load_config(path, experiment: str, seed: int | None = None):
    """The config at ``path`` for ``experiment`` and the JSON it was read from.

    The file is read once.  A ``seed`` replaces ``ensemble.seed`` in both,
    once the file has loaded as written.
    """
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError("<file>", f"invalid JSON: {err}") from err
    cfg = parse_config(raw, experiment)
    if seed is not None:
        cfg = replace(cfg, seed=check_seed(seed))
        raw["ensemble"]["seed"] = seed
    return cfg, raw


def parse_config(raw: dict, experiment: str) -> RunConfig:
    if experiment not in EXPERIMENTS:
        raise ConfigError("experiment", f"unknown experiment {experiment!r}")
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
    dt = _positive(_get(t, "time", "dt", float), "time.dt")
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
    paths = _count(ens, "ensemble", "paths")
    seed = check_seed(_get(ens, "ensemble", "seed", int))

    young = _parse_young(raw, grid)
    tol = _parse_tolerances(raw)
    mart = _parse_martingale(raw, horizon, dt, steps, experiment == "martingale")
    ref = _parse_reference(raw, grid, experiment)

    s = _get(raw, "", "solver", dict, {})
    _no_unknown(s, "solver", {"blowup_ceiling", "cfl_number", "transport"})
    blowup = _positive(_get(s, "solver", "blowup_ceiling", float, 1e3),
                       "solver.blowup_ceiling")
    cfl = _positive(_get(s, "solver", "cfl_number", float, 0.5),
                    "solver.cfl_number")
    transport = _get(s, "solver", "transport", bool, True)

    cfg = RunConfig(experiment=experiment, grid=grid, dt=dt, horizon=horizon,
                    eps_values=eps_values, forcing=forcing, initial=initial,
                    paths=paths, seed=seed, young=young, tolerances=tol,
                    martingale=mart, reference=ref, blowup_ceiling=blowup,
                    cfl_number=cfl, transport=transport)
    if experiment in ("vanish", "ym", "weakstrong"):
        _check_time_cells(cfg, steps)
    if experiment == "martingale":   # after the parsers, which name a bad field first
        where, n = ("ensemble.paths", paths) if transport \
            else ("martingale.linear_paths", mart.linear_paths)
        if n < MIN_MARTINGALE_PATHS:
            raise ConfigError(where, f"need >= {MIN_MARTINGALE_PATHS} paths, got {n}")
    _check_run_bytes(cfg)
    return cfg


def _check_run_bytes(cfg: RunConfig) -> None:
    """Every run of the experiment fits under ``MAX_RUN_BYTES``.

    Runs are integrated one at a time and a viscosity ladder streams its
    runs into the measures, so what an experiment holds is about one run:
    its snapshots, each the point values of one state, and
    ``WORKING_FIELDS`` half-spectrum fields on its grid.  Simulate and
    martingale runs and the weakstrong reference run on ``reference.n``
    keep no snapshots.
    """
    dim = cfg.grid.dim

    def retained(n, snapshots):
        half = 16 * dim * n ** (dim - 1) * (n // 2 + 1)
        return snapshots * 8 * dim * n ** dim + WORKING_FIELDS * half

    snapshots = len(cfg.snapshot_times) \
        if cfg.experiment in ("vanish", "ym", "weakstrong") else 0
    runs = [(retained(cfg.grid.n, snapshots), "grid.n", cfg.grid.n)]
    if cfg.experiment == "weakstrong":
        runs.append((retained(cfg.reference.n, 0), "reference.n", cfg.reference.n))
    need, where, n = max(runs)
    if need > MAX_RUN_BYTES:
        raise ConfigError(where, f"a run at n={n} in {dim}D retains about "
                                 f"{need / 2 ** 30:.1f} GiB, above the "
                                 f"{MAX_RUN_BYTES / 2 ** 30:g} GiB ceiling")


def _check_time_cells(cfg: RunConfig, steps: int) -> None:
    """Every time cell of the measure partition holds a snapshot, by
    ``slab_of``, as the measure build requires.

    Snapshots lie on the steps + 1 step times, so more cells than that
    fail before the snapshot times are formed.
    """
    if cfg.young.snapshots_per_slab > MAX_SNAPSHOTS_PER_SLAB:
        raise ConfigError("young.snapshots_per_slab",
                          f"must be <= {MAX_SNAPSHOTS_PER_SLAB}")
    cells = cfg.young.time_cells
    if cells > steps + 1:
        raise ConfigError("young.time_cells",
                          f"must be <= {steps + 1}, the step times at dt={cfg.dt:g}")
    missing = cells - len({cfg.partition.slab_of(t) for t in cfg.snapshot_times})
    if missing:
        raise ConfigError("young.time_cells",
                          f"{missing} of {cells} time cells get no snapshot "
                          f"at dt={cfg.dt:g}; use fewer cells")


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
        if any(x <= 0 for x in eps):
            raise ConfigError("viscosity.ladder", "entries must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("viscosity.ladder", "must be strictly decreasing")
        return eps
    eps = _get(v, "viscosity", "eps", float)
    if eps < 0:
        raise ConfigError("viscosity.eps", "must be >= 0")
    return (eps,)


def _parse_forcing(raw, grid):
    f = _get(raw, "", "forcing", dict, None)
    if f is None:
        return None
    _no_unknown(f, "forcing", {"preset", "sigma", "modes"})
    try:
        if "modes" in f:
            op = ForcingOperator(tuple(
                _parse_mode(m, f"forcing.modes[{i}]")
                for i, m in enumerate(_get(f, "forcing", "modes", list))))
        elif _get(f, "forcing", "preset", str, None) == "default":
            op = default_forcing(grid.dim,
                                 _get(f, "forcing", "sigma", float, 0.5))
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
                           _get(m, path, "parity", str, "cos"))
    except (ForcingError, OverflowError) as err:
        raise ConfigError(path, str(err)) from err


def _parse_initial(raw, grid):
    i = _get(raw, "", "initial", dict, {"kind": "taylor_green"})
    _no_unknown(i, "initial", {"kind", "amplitude", "k_max", "decay"})
    try:
        init = InitialCondition(
            _get(i, "initial", "kind", str, "taylor_green"),
            amplitude=_get(i, "initial", "amplitude", float, 1.0),
            k_max=_get(i, "initial", "k_max", int, 3),
            decay=_get(i, "initial", "decay", float, 2.0))
    except SolverError as err:
        raise ConfigError("initial.kind", str(err)) from err
    cut = grid.dealias_cutoff()
    if init.kind == "random_spectrum" and not 1 <= init.k_max <= cut:
        raise ConfigError("initial.k_max",
                          f"must be in [1, {cut}], the dealias cutoff of "
                          f"n={grid.n}, got {init.k_max}")
    if init.kind == "random_spectrum":
        try:
            (grid.dim ** 0.5 * init.k_max) ** -init.decay
        except OverflowError:
            raise ConfigError("initial.decay",
                              f"|k|^-decay overflows at |k| = sqrt(dim) "
                              f"k_max for decay={init.decay:g}") from None
    return init


def _parse_young(raw, grid):
    y = _get(raw, "", "young", dict, {})
    _no_unknown(y, "young", {"time_cells", "space_cells", "radius",
                             "bins_per_axis", "sphere_bins",
                             "snapshots_per_slab"})
    spec = YoungSpec(
        time_cells=_count(y, "young", "time_cells", 4),
        space_cells=_count(y, "young", "space_cells", 8),
        radius=_positive(_get(y, "young", "radius", float, 4.0), "young.radius"),
        bins_per_axis=_count(y, "young", "bins_per_axis", 16),
        sphere_bins=_count(y, "young", "sphere_bins", 32),
        snapshots_per_slab=_count(y, "young", "snapshots_per_slab", 4))
    if grid.n % spec.space_cells != 0:
        raise ConfigError("young.space_cells", f"must divide grid n={grid.n}")
    return spec


def _parse_tolerances(raw):
    t = _get(raw, "", "tolerances", dict, {})
    _no_unknown(t, "tolerances", {"energy_defect_c", "gronwall_slack",
                                  "martingale_alpha"})
    return ToleranceSet(**{
        key: _positive(_get(t, "tolerances", key, float, default),
                       f"tolerances.{key}")
        for key, default in (("energy_defect_c", 1.0), ("gronwall_slack", 0.05),
                             ("martingale_alpha", 0.05))})


def _parse_martingale(raw, horizon, dt, steps, on_grid):
    """The martingale section; with ``on_grid`` pairs must be whole steps.

    The default pair (floor(steps / 4) dt, floor(steps / 2) dt) lies on the
    step grid; it needs at least 2 steps.
    """
    m = _get(raw, "", "martingale", dict, {})
    _no_unknown(m, "martingale", {"pairs", "histories", "linear_paths"})
    if "pairs" not in m and steps < 2:
        raise ConfigError("time.horizon", f"{steps} step of dt={dt:g} leaves no "
                                          "default martingale pair; need >= 2 steps")
    pairs_raw = _get(m, "martingale", "pairs", list,
                     [[steps // 4 * dt, steps // 2 * dt]])
    pairs = []
    for i, p in enumerate(pairs_raw):
        where = f"martingale.pairs[{i}]"
        p = _check(p, where, list)
        if len(p) != 2:
            raise ConfigError(where, "need [s, t]")
        s, t = (_check(x, f"{where}[{j}]", float) for j, x in enumerate(p))
        if not 0 <= s < t <= horizon:
            raise ConfigError(where, "need 0 <= s < t <= horizon")
        try:
            for x in (s, t) if on_grid else ():
                step_index(x, dt)
        except SolverError:
            raise ConfigError(where, "s and t must be whole numbers of steps "
                                     f"of dt={dt:g}") from None
        pairs.append((s, t))
    histories = tuple(_get(m, "martingale", "histories", list, ["one"]))
    for h in histories:
        if h not in MartingaleStat.HISTORY_KINDS:
            raise ConfigError("martingale.histories", f"unknown history {h!r}")
    return MartingaleSpec(pairs=tuple(pairs), histories=histories,
                          linear_paths=_count(m, "martingale", "linear_paths",
                                              10_000))


def _parse_reference(raw, grid, experiment):
    r = _get(raw, "", "reference", dict, {})
    _no_unknown(r, "reference", {"n", "dt_factor", "level"})
    spec = ReferenceSpec(
        n=_get(r, "reference", "n", int, 4 * grid.n),
        dt_factor=_get(r, "reference", "dt_factor", int, 4),
        level=_get(r, "reference", "level", float, None))
    if experiment == "weakstrong":
        _grid(grid.dim, spec.n, "reference.n", "reference.n")
        if spec.n % grid.n != 0:
            raise ConfigError("reference.n", f"must be a multiple of grid n={grid.n}")
        if spec.dt_factor < 1 or spec.dt_factor & (spec.dt_factor - 1):
            raise ConfigError("reference.dt_factor", "must be a power of two")
        if spec.level is not None:
            _positive(spec.level, "reference.level")
    return spec
