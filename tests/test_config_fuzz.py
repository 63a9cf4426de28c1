"""Fuzz of the config loader: any JSON value at any field loads or names it.

Each example takes a valid config, replaces one schema leaf (a scalar, a
list, or a list element) with an arbitrary JSON value and parses it.  The
loader must return a RunConfig or raise ConfigError with a dotted field
path; no other exception may escape.
"""

import copy
import json
import re
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dissipeuler.config import ConfigError, RunConfig, parse_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SECTIONS = {"experiment", "grid", "time", "viscosity", "forcing", "initial",
            "ensemble", "young", "tolerances", "martingale", "reference",
            "solver"}
FIELD_PATH = re.compile(r"[a-z_]+(\[\d+\])*(\.[a-z_]+(\[\d+\])*)*")
# an unknown key is reported at its container's path plus the key, any text
UNKNOWN_KEY_PATH = re.compile(FIELD_PATH.pattern + r"\..*", re.DOTALL)


def _full_schema(experiment):
    """A valid config that spells out every field, explicit forcing modes."""
    raw = {
        "experiment": experiment,
        "grid": {"dim": 2, "n": 16},
        "time": {"dt": 0.03125, "horizon": 0.25},
        "viscosity": {"ladder": [0.1, 0.05]},
        "forcing": {"modes": [
            {"k": [1, 0], "direction": [0, 1], "sigma": 0.1, "parity": "sin"},
            {"k": [0, 1], "direction": [1, 0], "sigma": 0.2}]},
        "initial": {"kind": "random_spectrum", "amplitude": 0.3, "k_max": 2,
                    "decay": 2.0},
        "ensemble": {"paths": 32, "seed": 5},
        "young": {"time_cells": 2, "space_cells": 4, "radius": 4.0,
                  "bins_per_axis": 8, "sphere_bins": 16,
                  "snapshots_per_slab": 2},
        "tolerances": {"energy_defect_c": 1.0, "gronwall_slack": 0.05,
                       "martingale_alpha": 0.05},
        "martingale": {"pairs": [[0.0625, 0.125]],
                       "histories": ["one", "clamp_beta"], "linear_paths": 64},
        "reference": {"n": 32, "dt_factor": 2, "tail_tol": 1e-6, "level": 5.0},
        "solver": {"blowup_ceiling": 100.0, "cfl_number": 0.5,
                   "transport": True},
    }
    if experiment == "martingale":
        raw["viscosity"] = {"eps": 0.05}
    return raw


BASES = [json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))] \
    + [_full_schema("weakstrong"), _full_schema("martingale")]


def _leaves(obj, prefix=()):
    """Key paths of every scalar, list and list element below obj."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    out = []
    for key, val in items:
        path = prefix + (key,)
        if not isinstance(val, dict):
            out.append(path)
        if isinstance(val, (dict, list)):
            out += _leaves(val, path)
    return out


def _replaced(raw, path, value):
    out = copy.deepcopy(raw)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


EDGE_VALUES = st.sampled_from([0, -1, 1, 2, 7, 8, 3.5, -0.0, 1e-320, 1e308,
                               2 ** 64, 10 ** 400, "", "default", [], {}])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | EDGE_VALUES
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def test_bases_are_valid():
    for raw in BASES:
        assert isinstance(parse_config(raw, raw["experiment"]), RunConfig)


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_leaf_value_loads_or_names_a_field(data):
    base = data.draw(st.sampled_from(BASES))
    path = data.draw(st.sampled_from(_leaves(base)))
    raw = _replaced(base, path, data.draw(JSON_VALUES))
    try:
        cfg = parse_config(raw, base["experiment"])
    except ConfigError as err:
        pattern = UNKNOWN_KEY_PATH if str(err).endswith(": unknown key") \
            else FIELD_PATH
        assert pattern.fullmatch(err.path), err.path
        assert re.split(r"[.\[]", err.path)[0] in SECTIONS, err.path
    else:
        assert isinstance(cfg, RunConfig)
