"""Behaviour lock: sha256 digests of the trace and the metrics CSV of four small
canonical scenarios.

A refactor must leave every digest as it is. A change that alters one on
purpose records why in CHANGES.md and updates the digest here in the same
change. To print the current digests:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \
import test_golden as g; [print(n, g.digest(n)) for n in g.SCENARIOS]"
"""

import functools
import hashlib

import pytest

from mcastsim.metrics import compute_metrics, metrics_to_csv, trace_to_jsonl
from mcastsim.scenario import from_dict
from mcastsim.sim import Simulation

from conftest import line_positions

SCENARIOS = {
    # 12-node line, one session registered at a remote region, two receivers,
    # a leave, a query burst and a bootstrap; every packet send/receive traced
    "static_line": {
        "node_count": 12, "duration_s": 20.0, "seed": 1,
        "area": {"width_m": 1200.0, "height_m": 100.0},
        "nodes": line_positions(12, 100.0), "radio": {"range_m": 120.0},
        "rr": {"grid_cols": 3, "grid_rows": 1, "target_sds": 2},
        "debug": {"trace_packets": True},
        "workload": [
            {"t": 3.0, "op": "register_session", "node": 0, "name": "a",
             "prefix": 2},
            {"t": 6.0, "op": "join", "node": 11, "session": "a"},
            {"t": 6.5, "op": "join", "node": 7, "session": "a"},
            {"t": 8.0, "op": "send_data", "node": 0, "session": "a",
             "count": 20, "interval_s": 0.2},
            {"t": 12.0, "op": "leave", "node": 7, "session": "a"},
            {"t": 14.0, "op": "query_burst", "count": 10, "budget": 3},
            {"t": 15.0, "op": "bootstrap", "node": 5},
        ]},
    # 50 mobile nodes, one session with four receivers, a leave, a query burst
    "mobile_mesh": {
        "node_count": 50, "duration_s": 20.0, "seed": 2,
        "area": {"width_m": 700.0, "height_m": 700.0}, "radio": {"range_m": 160.0},
        "rr": {"grid_cols": 2, "grid_rows": 2, "target_sds": 3},
        "mobility": {"model": "random_waypoint", "speed_min": 2.0,
                     "speed_max": 10.0},
        "workload": [
            {"t": 3.0, "op": "register_session", "node": 0, "name": "m",
             "prefix": 3},
            {"t": 5.0, "op": "join", "node": 10, "session": "m"},
            {"t": 5.2, "op": "join", "node": 20, "session": "m"},
            {"t": 5.4, "op": "join", "node": 30, "session": "m"},
            {"t": 5.6, "op": "join", "node": 40, "session": "m"},
            {"t": 7.0, "op": "send_data", "node": 0, "session": "m",
             "count": 40, "interval_s": 0.25},
            {"t": 9.0, "op": "query_burst", "count": 15},
            {"t": 12.0, "op": "leave", "node": 20, "session": "m"},
        ]},
    # 40 static nodes, twelve receivers and low popularity thresholds (local
    # SDS promotion and its adverts), then a partition cuts off a third
    "popularity_partition": {
        "node_count": 40, "duration_s": 20.0, "seed": 3,
        "area": {"width_m": 600.0, "height_m": 600.0}, "radio": {"range_m": 180.0},
        "rr": {"grid_cols": 3, "grid_rows": 3, "target_sds": 2},
        "mcast": {"pop_query_th": 1.0, "pop_th": 1.0, "adv_period_s": 2.0},
        "workload": [
            {"t": 3.0, "op": "register_session", "node": 0, "name": "p"},
        ] + [{"t": 5.0 + 0.1 * i, "op": "join", "node": 5 + i, "session": "p"}
             for i in range(12)] + [
            {"t": 6.0, "op": "send_data", "node": 0, "session": "p",
             "count": 30, "interval_s": 0.3},
            {"t": 12.0, "op": "partition", "rect": [0.0, 200.0, 0.0, 600.0]},
        ]},
    # 70 fast nodes, eager contact selection and repeated query bursts
    "contacts_heavy": {
        "node_count": 70, "duration_s": 20.0, "seed": 4,
        "area": {"width_m": 1400.0, "height_m": 1400.0}, "radio": {"range_m": 220.0},
        "contacts": {"k": 20.0, "A_half": 0.05},
        "rr": {"grid_cols": 3, "grid_rows": 3, "target_sds": 2},
        "mobility": {"model": "random_waypoint", "speed_min": 5.0,
                     "speed_max": 15.0},
        "workload": [{"t": float(t), "op": "query_burst", "count": 15}
                     for t in range(2, 18, 3)] + [
            {"t": 4.0, "op": "register_session", "node": 1, "name": "c"},
            {"t": 8.0, "op": "join", "node": 33, "session": "c"},
            {"t": 8.5, "op": "join", "node": 50, "session": "c"},
            {"t": 9.0, "op": "send_data", "node": 1, "session": "c",
             "count": 20, "interval_s": 0.3},
            {"t": 10.0, "op": "bootstrap", "node": 60},
        ]},
}

DIGESTS = {
    "static_line":
        "02d8a3fa296aa4b787cc14f539f41adb917c37f70e5dfd1deb91027429b36130",
    "mobile_mesh":
        "0a1dc306e1e345779267ad9f3fd953751fd6db28458e106f65c71cf62c9696e5",
    "popularity_partition":
        "9269c9282798eddf35c5224f2487a120433d25d4d8e3cf6f1e7ac13478e6991c",
    "contacts_heavy":
        "29547f33b3de0439057fffafd81acc68f7d86ce7cfb643edc980c86ff2c62b5c",
}

# every source-routed kind must travel in at least one scenario
SOURCE_ROUTED_KINDS = (
    "bordercast_query", "bordercast_reply", "contact_query", "contact_reply",
    "session_reply", "group_query", "group_query_reply", "join_request",
    "join_reply", "mesh_leave", "sds_advert")


@functools.lru_cache(maxsize=None)
def run(name):
    """(trace, metrics CSV text) of one scenario, computed once per session."""
    trace = Simulation(from_dict(SCENARIOS[name])).run()
    return trace, metrics_to_csv(compute_metrics(trace))


def digest(name):
    trace, csv = run(name)
    return hashlib.sha256((trace_to_jsonl(trace) + csv).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_digest(name):
    assert digest(name) == DIGESTS[name]


def test_every_source_routed_kind_is_exercised():
    totals = dict.fromkeys(SOURCE_ROUTED_KINDS, 0)
    for name in SCENARIOS:
        counters, = [e[3] for e in run(name)[0] if e[2] == "counters"]
        for kind in SOURCE_ROUTED_KINDS:
            totals[kind] += counters.get(kind, 0)
    assert [k for k, n in totals.items() if n == 0] == []


def test_every_merged_mechanism_is_exercised():
    """Each zone flood, the local-flood answer, the pop flood and each LAR leg
    mode runs in at least one scenario, so the digests cover them."""
    kinds = dict.fromkeys(("adv", "join_query", "group_query", "sds_advert"), 0)
    events = []
    for name in SCENARIOS:
        trace = run(name)[0]
        counters, = [e[3] for e in trace if e[2] == "counters"]
        for kind in kinds:
            kinds[kind] += counters.get(kind, 0)
        events += trace
    assert [k for k, n in kinds.items() if n == 0] == []
    assert any(e[2] == "pop_promote" for e in events)
    assert any(e[2] == "join_stage" and e[3]["stage"] == 3
               and e[3]["status"] == "success" for e in events)
    modes = {e[3]["mode"] for e in events if e[2] == "lar_hop"}
    assert {"greedy", "direct", "detour", "rr_local"} <= modes
