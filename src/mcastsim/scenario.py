"""Scenario files: JSON with nested blocks, strict validation, full defaulting.

Unknown keys are rejected anywhere in the tree; a loaded scenario serializes
back to a defaults-expanded form that reloads to an equal scenario.
"""

import json
import math

from .kernel import US, ConfigError

SCHEMA = {
    "area": {"width_m": 1000.0, "height_m": 1000.0},
    "node_count": 50,
    "duration_s": 60.0,
    "seed": 1,
    "radio": {
        "tx_power_w": 0.1,
        "range_m": 250.0,
        "path_loss_exp": 2.0,
        "reference_distance_m": 1.0,
        "one_hop_latency_s": 0.001,
    },
    "zone": {
        "radius_R": 2,
        "hello_interval_s": 1.0,
        "bordercast_rounds": 8,
        "recompute_delay_s": 0.05,
    },
    "contacts": {
        "enabled": True,
        "k": 4.0,
        "A_half": 1.0,
        "E_half": None,
        "activity_half_life_s": 30.0,
        "maintenance_period_s": 2.0,
        "max_contacts": 8,
        "capability_bonus": 0.0,
    },
    "rr": {
        "grid_cols": 8,
        "grid_rows": 8,
        "target_sds": 5,
        "l_limit_m": None,
        "sender_ttl_s": 60.0,
        "prefix_bits": 8,
        "suffix_bits": 8,
        "decision_period_s": 2.0,
        "suppress_window_s": 5.0,
        "readvert_period_s": 15.0,
        "peer_ttl_s": 45.0,
        "min_energy_ratio": 0.1,
        "expected_population": None,
        "register_timeout_s": 2.0,
        "register_max_retries": 3,
        "lar_ttl": 128,
    },
    "mcast": {
        "adv_ttl": None,
        "adv_period_s": 5.0,
        "max_paths": 3,
        "pop_query_th": 3.0,
        "pop_th": 2.0,
        "pop_half_life_s": 30.0,
        "member_expiry_s": None,
        "route_quality_floor": 0.0,
        "data_ttl": 64,
        "stage_rr_timeout_s": 1.5,
        "join_backoff_s": 2.0,
        "join_max_backoff_s": 30.0,
        "group_query_window_s": 0.5,
    },
    "mobility": {
        "model": "stationary",
        "speed_min": 0.0,
        "speed_max": 0.0,
        "pause_time_s": 0.0,
        "step_interval_s": 1.0,
        "position_noise_m": 0.0,
    },
    "energy": {"initial_j": 1000.0, "drain_w": 1.0},
    "nodes": None,        # optional [[x, y], ...]; else uniform placement by seed
    "debug": {"sweep": False, "trace_packets": False},
    "workload": [],
}

# op name -> {field: required?}
WORKLOAD_OPS = {
    "register_session": {"node": True, "name": True, "prefix": False,
                         "suffix": False, "scope_ttl": False},
    "join": {"node": True, "session": True},
    "leave": {"node": True, "session": True},
    "send_data": {"node": True, "session": True, "count": True,
                  "interval_s": False, "size": False},
    "fail_node": {"node": True},
    "partition": {"rect": True},
    "bootstrap": {"node": True},
    "freeze": {},
    "query_burst": {"count": True, "budget": False},
}


class Scenario:
    """A fully validated, defaults-expanded scenario."""

    def __init__(self, data):
        self.data = data

    def __getitem__(self, key):
        return self.data[key]

    def __eq__(self, other):
        return isinstance(other, Scenario) and self.data == other.data

    def to_json(self):
        return json.dumps(self.data, indent=2, sort_keys=True)

    @property
    def seed(self):
        return self.data["seed"]

    @property
    def duration_s(self):
        return self.data["duration_s"]


def _merge(schema, given, path):
    if not isinstance(given, dict):
        raise ConfigError(f"{path or 'scenario'}: expected an object")
    unknown = set(given) - set(schema)
    if unknown:
        raise ConfigError(f"{path or 'scenario'}: unknown keys {sorted(unknown)}")
    out = {}
    for key, default in schema.items():
        full = f"{path}.{key}" if path else key
        if isinstance(default, dict):
            out[key] = _merge(default, given.get(key, {}), full)
        elif key in given:
            out[key] = given[key]
        else:
            out[key] = default if not isinstance(default, list) else list(default)
    return out


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_positive(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and x > 0


def _is_period(x):
    # the kernel schedules in whole microseconds: a shorter period is 0 and
    # re-arms at the same instant forever
    return _is_positive(x) and math.isfinite(x) and int(x * US) > 0


# dotted scenario path -> (test the value must pass, what it must be)
FIELD_RULES = {
    "node_count": (_is_int, "an integer"),
    "zone.hello_interval_s": (_is_period, "a period of at least 1 us"),
    "mcast.adv_period_s": (_is_period, "a period of at least 1 us"),
    "rr.decision_period_s": (_is_period, "a period of at least 1 us"),
    "energy.drain_w": (_is_positive, "positive"),
}


def _check_fields(data):
    for dotted, (ok, what) in FIELD_RULES.items():
        value = data
        for key in dotted.split("."):
            value = value[key]
        if not ok(value):
            raise ConfigError(f"{dotted} must be {what}, got {value!r}")


def _validate(data):
    _check_fields(data)
    if data["node_count"] < 1:
        raise ConfigError("node_count must be >= 1")
    if data["duration_s"] <= 0:
        raise ConfigError("duration_s must be positive")
    if data["area"]["width_m"] <= 0 or data["area"]["height_m"] <= 0:
        raise ConfigError("area dimensions must be positive")
    nodes = data["nodes"]
    if nodes is not None:
        if len(nodes) != data["node_count"]:
            raise ConfigError("nodes list length must equal node_count")
        for i, pos in enumerate(nodes):
            if not (isinstance(pos, (list, tuple)) and len(pos) == 2):
                raise ConfigError(f"nodes[{i}]: expected [x, y]")
            if not (0 <= pos[0] <= data["area"]["width_m"]
                    and 0 <= pos[1] <= data["area"]["height_m"]):
                raise ConfigError(f"nodes[{i}]: position outside area")
        data["nodes"] = [[float(x), float(y)] for x, y in nodes]
    for i, d in enumerate(data["workload"]):
        if not isinstance(d, dict):
            raise ConfigError(f"workload[{i}]: expected an object")
        if "op" not in d or "t" not in d:
            raise ConfigError(f"workload[{i}]: needs 't' and 'op'")
        op = d["op"]
        if op not in WORKLOAD_OPS:
            raise ConfigError(f"workload[{i}]: unknown op {op!r}")
        if not (0 <= d["t"] <= data["duration_s"]):
            raise ConfigError(f"workload[{i}]: t={d['t']} outside [0, duration]")
        fields = WORKLOAD_OPS[op]
        extra = set(d) - set(fields) - {"op", "t"}
        if extra:
            raise ConfigError(f"workload[{i}]: unknown fields {sorted(extra)}")
        for f, required in fields.items():
            if required and f not in d:
                raise ConfigError(f"workload[{i}]: {op} requires {f!r}")
        for f in ("node",):
            if f in d and not (0 <= d[f] < data["node_count"]):
                raise ConfigError(f"workload[{i}]: node {d[f]} out of range")
    return data


def from_dict(given):
    """Validate and default-expand a scenario given as a dict."""
    return Scenario(_validate(_merge(SCHEMA, given, "")))


def load_scenario(path):
    try:
        with open(path) as f:
            given = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    return from_dict(given)
