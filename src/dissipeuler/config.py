"""Run configuration: JSON schema, validation, and object construction.

The config file is plain JSON with a closed schema: unknown keys are errors
reported with their full field path, required fields likewise.  A seed is
mandatory so no run ever depends on ambient entropy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .forcing import ForcingMode, ForcingOperator, default_forcing
from .solver import InitialCondition, SolverConfig
from .spectral import TorusGrid

EXPERIMENTS = ("simulate", "vanish", "ym", "martingale", "weakstrong")


class ConfigError(ValueError):
    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require(raw, path, key, kind=None):
    if key not in raw:
        raise ConfigError(f"{path}.{key}" if path else key, "required field missing")
    val = raw[key]
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(f"{path}.{key}" if path else key,
                          f"expected {getattr(kind, '__name__', kind)}, got {type(val).__name__}")
    return val


def _optional(raw, path, key, default, kind=None):
    if key not in raw:
        return default
    return _require(raw, path, key, kind)


def _no_unknown(raw, path, allowed):
    for key in raw:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(where, "unknown key")


def _positive(value, path):
    if not value > 0:
        raise ConfigError(path, f"must be positive, got {value}")
    return value


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
    cauchy_strict: bool = True


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
    pairs: tuple = ((0.125, 0.25),)
    histories: tuple = ("one",)
    linear_paths: int = 10_000


@dataclass(frozen=True)
class ReferenceSpec:
    n: int = 128
    dt_factor: int = 4
    tail_tol: float = 1e-6
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


def load_config(path, experiment: str) -> RunConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError("<file>", f"invalid JSON: {err}") from err
    return parse_config(raw, experiment)


def parse_config(raw: dict, experiment: str) -> RunConfig:
    if experiment not in EXPERIMENTS:
        raise ConfigError("experiment", f"unknown experiment {experiment!r}")
    _no_unknown(raw, "", {
        "experiment", "grid", "time", "viscosity", "forcing", "initial",
        "ensemble", "young", "tolerances", "martingale", "reference", "solver",
    })
    declared = _optional(raw, "", "experiment", experiment, str)
    if declared != experiment:
        raise ConfigError("experiment",
                          f"config declares {declared!r} but the subcommand is {experiment!r}")

    g = _require(raw, "", "grid", dict)
    _no_unknown(g, "grid", {"dim", "n"})
    grid = TorusGrid(_require(g, "grid", "dim", int), _require(g, "grid", "n", int))

    t = _require(raw, "", "time", dict)
    _no_unknown(t, "time", {"dt", "horizon"})
    dt = _positive(float(_require(t, "time", "dt", (int, float))), "time.dt")
    horizon = float(_require(t, "time", "horizon", (int, float)))
    if horizon < 0:
        raise ConfigError("time.horizon", "must be >= 0")
    if abs(horizon / dt - round(horizon / dt)) > 1e-9:
        raise ConfigError("time.horizon",
                          f"must be a whole number of steps of dt={dt:g}, got {horizon:g}")

    eps_values = _parse_viscosity(raw, experiment)
    forcing = _parse_forcing(raw, grid)
    if experiment == "martingale" and forcing is None:
        raise ConfigError("forcing", "martingale experiment needs forcing")
    initial = _parse_initial(raw)

    ens = _require(raw, "", "ensemble", dict)
    _no_unknown(ens, "ensemble", {"paths", "seed"})
    paths = _require(ens, "ensemble", "paths", int)
    if paths < 1:
        raise ConfigError("ensemble.paths", "need at least one path")
    seed = check_seed(_require(ens, "ensemble", "seed", int))

    young = _parse_young(raw, grid)
    tol = _parse_tolerances(raw)
    mart = _parse_martingale(raw, horizon)
    ref = _parse_reference(raw, grid, experiment)

    s = _optional(raw, "", "solver", {}, dict)
    _no_unknown(s, "solver", {"blowup_ceiling", "cfl_number", "transport"})
    blowup = float(_optional(s, "solver", "blowup_ceiling", 1e3, (int, float)))
    cfl = float(_optional(s, "solver", "cfl_number", 0.5, (int, float)))
    transport = _optional(s, "solver", "transport", True, bool)

    return RunConfig(experiment=experiment, grid=grid, dt=dt, horizon=horizon,
                     eps_values=eps_values, forcing=forcing, initial=initial,
                     paths=paths, seed=seed, young=young, tolerances=tol,
                     martingale=mart, reference=ref, blowup_ceiling=blowup,
                     cfl_number=cfl, transport=transport)


def _parse_viscosity(raw, experiment):
    v = _require(raw, "", "viscosity", dict)
    _no_unknown(v, "viscosity", {"eps", "ladder"})
    if "ladder" in v and "eps" in v:
        raise ConfigError("viscosity", "give either eps or ladder, not both")
    if experiment in ("vanish", "weakstrong"):
        ladder = _require(v, "viscosity", "ladder", list)
        eps = tuple(float(x) for x in ladder)
        if len(eps) < 2:
            raise ConfigError("viscosity.ladder", "need at least two entries")
        if any(x <= 0 for x in eps):
            raise ConfigError("viscosity.ladder", "entries must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("viscosity.ladder", "must be strictly decreasing")
        return eps
    eps = float(_require(v, "viscosity", "eps", (int, float)))
    if eps < 0:
        raise ConfigError("viscosity.eps", "must be >= 0")
    return (eps,)


def _parse_forcing(raw, grid):
    f = _optional(raw, "", "forcing", None, dict)
    if f is None:
        return None
    _no_unknown(f, "forcing", {"preset", "sigma", "modes"})
    if "modes" in f:
        modes = []
        for i, m in enumerate(_require(f, "forcing", "modes", list)):
            path = f"forcing.modes[{i}]"
            _no_unknown(m, path, {"k", "direction", "sigma", "parity"})
            try:
                modes.append(ForcingMode(
                    tuple(_require(m, path, "k", list)),
                    tuple(_require(m, path, "direction", list)),
                    float(_require(m, path, "sigma", (int, float))),
                    _optional(m, path, "parity", "cos", str)))
            except ValueError as err:
                raise ConfigError(path, str(err)) from err
        op = ForcingOperator(tuple(modes))
    elif _optional(f, "forcing", "preset", None, str) == "default":
        op = default_forcing(grid.dim,
                             float(_optional(f, "forcing", "sigma", 0.5,
                                             (int, float))))
    else:
        raise ConfigError("forcing", "need modes or preset='default'")
    try:
        op.check_resolved(grid)
    except ValueError as err:
        raise ConfigError("forcing", str(err)) from err
    return op


def _parse_initial(raw):
    i = _optional(raw, "", "initial", {"kind": "taylor_green"}, dict)
    _no_unknown(i, "initial", {"kind", "amplitude", "k_max", "decay"})
    try:
        return InitialCondition(
            _optional(i, "initial", "kind", "taylor_green", str),
            amplitude=float(_optional(i, "initial", "amplitude", 1.0, (int, float))),
            k_max=_optional(i, "initial", "k_max", 3, int),
            decay=float(_optional(i, "initial", "decay", 2.0, (int, float))))
    except RuntimeError as err:
        raise ConfigError("initial.kind", str(err)) from err


def _parse_young(raw, grid):
    y = _optional(raw, "", "young", {}, dict)
    _no_unknown(y, "young", {"time_cells", "space_cells", "radius",
                             "bins_per_axis", "sphere_bins",
                             "snapshots_per_slab"})
    spec = YoungSpec(
        time_cells=_optional(y, "young", "time_cells", 4, int),
        space_cells=_optional(y, "young", "space_cells", 8, int),
        radius=float(_optional(y, "young", "radius", 4.0, (int, float))),
        bins_per_axis=_optional(y, "young", "bins_per_axis", 16, int),
        sphere_bins=_optional(y, "young", "sphere_bins", 32, int),
        snapshots_per_slab=_optional(y, "young", "snapshots_per_slab", 4, int))
    if grid.n % spec.space_cells != 0:
        raise ConfigError("young.space_cells", f"must divide grid n={grid.n}")
    _positive(spec.radius, "young.radius")
    return spec


def _parse_tolerances(raw):
    t = _optional(raw, "", "tolerances", {}, dict)
    _no_unknown(t, "tolerances", {"energy_defect_c", "gronwall_slack",
                                  "martingale_alpha", "cauchy_strict"})
    return ToleranceSet(
        energy_defect_c=_positive(float(_optional(
            t, "tolerances", "energy_defect_c", 1.0, (int, float))),
            "tolerances.energy_defect_c"),
        gronwall_slack=_positive(float(_optional(
            t, "tolerances", "gronwall_slack", 0.05, (int, float))),
            "tolerances.gronwall_slack"),
        martingale_alpha=_positive(float(_optional(
            t, "tolerances", "martingale_alpha", 0.05, (int, float))),
            "tolerances.martingale_alpha"),
        cauchy_strict=_optional(t, "tolerances", "cauchy_strict", True, bool))


def _parse_martingale(raw, horizon):
    m = _optional(raw, "", "martingale", {}, dict)
    _no_unknown(m, "martingale", {"pairs", "histories", "linear_paths"})
    pairs_raw = _optional(m, "martingale", "pairs",
                          [[horizon / 4, horizon / 2]], list)
    pairs = []
    for i, p in enumerate(pairs_raw):
        if len(p) != 2 or not 0 <= p[0] < p[1] <= horizon:
            raise ConfigError(f"martingale.pairs[{i}]",
                              "need 0 <= s < t <= horizon")
        pairs.append((float(p[0]), float(p[1])))
    histories = tuple(_optional(m, "martingale", "histories", ["one"], list))
    for h in histories:
        if h not in ("one", "clamp_pair", "clamp_beta"):
            raise ConfigError("martingale.histories", f"unknown history {h!r}")
    return MartingaleSpec(pairs=tuple(pairs), histories=histories,
                          linear_paths=_optional(m, "martingale",
                                                 "linear_paths", 10_000, int))


def _parse_reference(raw, grid, experiment):
    r = _optional(raw, "", "reference", {}, dict)
    _no_unknown(r, "reference", {"n", "dt_factor", "tail_tol", "level"})
    spec = ReferenceSpec(
        n=_optional(r, "reference", "n", 4 * grid.n, int),
        dt_factor=_optional(r, "reference", "dt_factor", 4, int),
        tail_tol=float(_optional(r, "reference", "tail_tol", 1e-6, (int, float))),
        level=(float(r["level"]) if "level" in r else None))
    if experiment == "weakstrong":
        if spec.n % grid.n != 0:
            raise ConfigError("reference.n", f"must be a multiple of grid n={grid.n}")
        if spec.dt_factor < 1 or spec.dt_factor & (spec.dt_factor - 1):
            raise ConfigError("reference.dt_factor", "must be a power of two")
    return spec
