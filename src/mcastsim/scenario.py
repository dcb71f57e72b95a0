"""Scenario files: JSON with nested blocks, strict validation, full defaulting.

SCHEMA is the one table of scenario fields: each leaf is (default, rule), and
every value is checked against its rule as the tree is filled in. Unknown keys
are rejected anywhere in the tree; a loaded scenario serializes back to a
defaults-expanded form that reloads to an equal scenario. Four fields default
to null and are derived when the layers are built (see layer_configs).
"""

import json

from .kernel import US, ConfigError
from .mobility import MODELS


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x):
    # finite, and still finite once the kernel scales seconds to microseconds
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= 1e300


def _or_null(rule):
    test, what = rule
    return (lambda x: x is None or test(x), f"{what} or null")


# a rule is (test the value must pass, what it must be)
INT = (_is_int, "an integer")
COUNT = (lambda x: _is_int(x) and x >= 1, "an integer >= 1")
COUNT0 = (lambda x: _is_int(x) and x >= 0, "an integer >= 0")
BOOL = (lambda x: isinstance(x, bool), "true or false")
POSITIVE = (lambda x: _is_real(x) and x > 0, "a finite positive number")
NONNEG = (lambda x: _is_real(x) and x >= 0, "a finite number >= 0")
FRACTION = (lambda x: _is_real(x) and 0 <= x <= 1, "a number in [0, 1]")
# the kernel schedules in whole microseconds: a shorter period is 0 and
# re-arms at the same instant forever
PERIOD = (lambda x: _is_real(x) and x * US >= 1, "a period of at least 1 us")
LIST = (lambda x: isinstance(x, (list, tuple)), "a list")
NAME = (lambda x: isinstance(x, str), "a string")
RECT = (lambda x: isinstance(x, (list, tuple)) and len(x) == 4 and all(map(_is_real, x)),
        "[x1, x2, y1, y2] of finite numbers")

SCHEMA = {
    "area": {"width_m": (1000.0, POSITIVE), "height_m": (1000.0, POSITIVE)},
    "node_count": (50, COUNT),
    "duration_s": (60.0, POSITIVE),
    "seed": (1, INT),
    "radio": {
        "tx_power_w": (0.1, POSITIVE),
        "range_m": (250.0, POSITIVE),
        "path_loss_exp": (2.0, (lambda x: _is_real(x) and x >= 2,
                                "a finite number >= 2")),
        "reference_distance_m": (1.0, POSITIVE),
        "one_hop_latency_s": (0.001, NONNEG),
    },
    "zone": {
        "radius_R": (2, COUNT),
        "hello_interval_s": (1.0, PERIOD),
        "bordercast_rounds": (8, COUNT),
        "recompute_delay_s": (0.05, NONNEG),
    },
    "contacts": {
        "enabled": (True, BOOL),
        "k": (4.0, POSITIVE),
        "A_half": (1.0, POSITIVE),               # queries/second at half saturation
        "E_half": (None, _or_null(POSITIVE)),
        "activity_half_life_s": (30.0, POSITIVE),
        "maintenance_period_s": (2.0, PERIOD),
        "max_contacts": (8, COUNT0),
        "capability_bonus": (0.0, FRACTION),     # additive p bonus for gps/sds contacts
    },
    "rr": {
        "grid_cols": (8, COUNT),
        "grid_rows": (8, COUNT),
        "target_sds": (5, COUNT),
        "l_limit_m": (None, _or_null(POSITIVE)),
        "sender_ttl_s": (60.0, POSITIVE),
        "prefix_bits": (8, COUNT0),
        "suffix_bits": (8, COUNT),
        "decision_period_s": (2.0, PERIOD),
        "suppress_window_s": (5.0, NONNEG),
        "readvert_period_s": (15.0, POSITIVE),
        "peer_ttl_s": (45.0, POSITIVE),
        "min_energy_ratio": (0.1, FRACTION),
        "expected_population": (None, _or_null(POSITIVE)),  # null: zone-based estimate
        "register_timeout_s": (2.0, PERIOD),
        "register_max_retries": (3, COUNT0),
        "lar_ttl": (128, COUNT),
    },
    "mcast": {
        "adv_ttl": (None, _or_null(COUNT)),
        "adv_period_s": (5.0, PERIOD),
        "max_paths": (3, COUNT),
        "pop_query_th": (3.0, POSITIVE),
        "pop_th": (2.0, POSITIVE),
        "pop_half_life_s": (30.0, POSITIVE),
        "member_expiry_s": (None, _or_null(POSITIVE)),
        "route_quality_floor": (0.0, FRACTION),
        "data_ttl": (64, COUNT),
        "stage_rr_timeout_s": (1.5, POSITIVE),
        "join_backoff_s": (2.0, POSITIVE),
        "join_max_backoff_s": (30.0, POSITIVE),
        "group_query_window_s": (0.5, NONNEG),
    },
    "mobility": {
        "model": ("stationary", (lambda x: x in MODELS, f"one of {list(MODELS)}")),
        "speed_min": (0.0, NONNEG),
        "speed_max": (0.0, NONNEG),
        "pause_time_s": (0.0, NONNEG),
        "step_interval_s": (1.0, PERIOD),
        "position_noise_m": (0.0, NONNEG),
    },
    "energy": {"initial_j": (1000.0, POSITIVE), "drain_w": (1.0, POSITIVE)},
    # optional [[x, y], ...]; else uniform placement by seed
    "nodes": (None, _or_null(LIST)),
    "debug": {"sweep": (False, BOOL), "trace_packets": (False, BOOL)},
    "workload": ([], LIST),
}

# op name -> {field: (required?, rule)}, besides the "t" every directive needs;
# t, node ids, prefixes and suffixes are further checked in _validate
WORKLOAD_OPS = {
    "register_session": {"node": (True, COUNT0), "name": (True, NAME),
                         "prefix": (False, _or_null(COUNT0)),
                         "suffix": (False, _or_null(COUNT0)),
                         "scope_ttl": (False, _or_null(COUNT0))},
    "join": {"node": (True, COUNT0), "session": (True, NAME)},
    "leave": {"node": (True, COUNT0), "session": (True, NAME)},
    "send_data": {"node": (True, COUNT0), "session": (True, NAME),
                  "count": (True, COUNT0), "interval_s": (False, NONNEG),
                  "size": (False, NONNEG)},
    "fail_node": {"node": (True, COUNT0)},
    "partition": {"rect": (True, RECT)},
    "bootstrap": {"node": (True, COUNT0)},
    "freeze": {},
    "query_burst": {"count": (True, COUNT0), "budget": (False, COUNT0)},
}


class LayerConfig:
    """One layer's config block, one attribute per field: a plain object, as the
    layers read it on hot paths three times faster than a SimpleNamespace."""

    def __init__(self, fields):
        for key, value in fields.items():
            setattr(self, key, value)


def layer_configs(data):
    """Each layer's block as a LayerConfig, with the null-derived fields filled
    in: mcast.adv_ttl = R + 2, mcast.member_expiry_s = 3 * adv_period_s,
    rr.l_limit_m = 2 * range_m * R and contacts.E_half = life * life, where
    life = initial_j / drain_w is the lifetime every node starts with."""
    cfg = {name: LayerConfig(data[name])
           for name in ("zone", "contacts", "rr", "mcast", "mobility")}
    R = data["zone"]["radius_R"]
    mcast, rr, contacts = cfg["mcast"], cfg["rr"], cfg["contacts"]
    if mcast.adv_ttl is None:
        mcast.adv_ttl = R + 2
    if mcast.member_expiry_s is None:
        mcast.member_expiry_s = 3.0 * mcast.adv_period_s
    if rr.l_limit_m is None:
        rr.l_limit_m = 2.0 * data["radio"]["range_m"] * R
    if contacts.E_half is None:
        life = data["energy"]["initial_j"] / data["energy"]["drain_w"]
        contacts.E_half = life * life
    return cfg


class Scenario:
    """A fully validated, defaults-expanded scenario."""

    def __init__(self, data):
        self.data = data

    def __getitem__(self, key):
        return self.data[key]

    def __eq__(self, other):
        return isinstance(other, Scenario) and self.data == other.data

    def to_json(self, resolved=False):
        """The scenario as JSON; resolved fills in the null-derived fields."""
        data = self.data
        if resolved:
            data = dict(data, **{name: vars(block)
                                 for name, block in layer_configs(data).items()})
        return json.dumps(data, indent=2, sort_keys=True)

    @property
    def seed(self):
        return self.data["seed"]

    @property
    def duration_s(self):
        return self.data["duration_s"]


def _check(value, rule, path):
    test, what = rule
    if not test(value):
        raise ConfigError(f"{path} must be {what}, got {value!r}")


def _merge(schema, given, path):
    if not isinstance(given, dict):
        raise ConfigError(f"{path or 'scenario'}: expected an object")
    unknown = set(given) - set(schema)
    if unknown:
        raise ConfigError(f"{path or 'scenario'}: unknown keys {sorted(unknown)}")
    out = {}
    for key, leaf in schema.items():
        full = f"{path}.{key}" if path else key
        if isinstance(leaf, dict):
            out[key] = _merge(leaf, given.get(key, {}), full)
            continue
        default, rule = leaf
        if key in given:
            _check(given[key], rule, full)
            out[key] = given[key]
        else:
            out[key] = default if not isinstance(default, list) else list(default)
    return out


def _validate(data):
    mob, rr = data["mobility"], data["rr"]
    if mob["speed_min"] > mob["speed_max"]:
        raise ConfigError("mobility.speed_min must be <= mobility.speed_max")
    cells = rr["grid_cols"] * rr["grid_rows"]
    if (cells - 1).bit_length() > rr["prefix_bits"]:
        raise ConfigError("rr grid does not fit in rr.prefix_bits")
    nodes = data["nodes"]
    if nodes is not None:
        if len(nodes) != data["node_count"]:
            raise ConfigError("nodes list length must equal node_count")
        for i, pos in enumerate(nodes):
            if not (isinstance(pos, (list, tuple)) and len(pos) == 2
                    and all(map(_is_real, pos))):
                raise ConfigError(f"nodes[{i}]: expected [x, y] numbers, got {pos!r}")
            if not (0 <= pos[0] <= data["area"]["width_m"]
                    and 0 <= pos[1] <= data["area"]["height_m"]):
                raise ConfigError(f"nodes[{i}]: position outside area")
        data["nodes"] = [[float(x), float(y)] for x, y in nodes]
    for i, d in enumerate(data["workload"]):
        where = f"workload[{i}]"
        if not isinstance(d, dict):
            raise ConfigError(f"{where}: expected an object")
        op = d.get("op")
        if not (isinstance(op, str) and op in WORKLOAD_OPS):
            raise ConfigError(f"{where}: unknown op {op!r}")
        fields = dict(WORKLOAD_OPS[op], t=(True, NONNEG))
        extra = set(d) - set(fields) - {"op"}
        if extra:
            raise ConfigError(f"{where}: unknown fields {sorted(extra)}")
        for f, (required, rule) in fields.items():
            if f in d:
                _check(d[f], rule, f"{where}.{f}")
            elif required:
                raise ConfigError(f"{where}: {op} requires {f!r}")
        if d["t"] > data["duration_s"]:
            raise ConfigError(f"{where}: t={d['t']} outside [0, duration]")
        if "node" in d and d["node"] >= data["node_count"]:
            raise ConfigError(f"{where}: node {d['node']} out of range")
        if d.get("prefix") is not None and d["prefix"] >= cells:
            raise ConfigError(f"{where}: prefix {d['prefix']} outside the rr grid")
        if d.get("suffix") is not None and d["suffix"].bit_length() > rr["suffix_bits"]:
            raise ConfigError(f"{where}: suffix {d['suffix']} outside rr.suffix_bits")
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
