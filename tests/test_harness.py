import csv
import io
import json
import math
import signal

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from mcastsim.kernel import ConfigError
from mcastsim.metrics import (compute_metrics, jsonl_to_trace, metrics_to_csv,
                              overlay_graph, overlay_graph_stats, trace_to_jsonl)
from mcastsim.scenario import from_dict, load_scenario
from mcastsim.sim import Simulation, run_scenario

from conftest import grid_positions


# -- scenario loading --------------------------------------------------------------

def test_minimal_scenario_gets_defaults():
    s = from_dict({"node_count": 5, "duration_s": 10, "seed": 7,
                   "area": {"width_m": 400, "height_m": 400}})
    assert s["zone"]["radius_R"] == 2
    assert s["mobility"]["model"] == "stationary"
    assert s["rr"]["grid_cols"] == 8
    assert s["workload"] == []


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError):
        from_dict({"node_count": 5, "nodes_count": 5})


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigError):
        from_dict({"zone": {"radius": 2}})


def test_unknown_workload_field_rejected():
    with pytest.raises(ConfigError):
        from_dict({"workload": [{"t": 1, "op": "join", "node": 0,
                                 "session": "x", "bogus": 1}]})


def test_directive_after_duration_rejected():
    with pytest.raises(ConfigError):
        from_dict({"duration_s": 10,
                   "workload": [{"t": 11, "op": "freeze"}]})


def test_directive_node_out_of_range_rejected():
    with pytest.raises(ConfigError):
        from_dict({"node_count": 3,
                   "workload": [{"t": 1, "op": "fail_node", "node": 3}]})


def test_nodes_length_must_match_count():
    with pytest.raises(ConfigError):
        from_dict({"node_count": 3, "nodes": [[1, 1], [2, 2]]})


# Each of these hung the run, failed at load with a TypeError or
# OverflowError, failed after loading (in Simulation(...) or mid-run), or ran
# misconfigured, before the field rules.
BAD_FIELDS = {
    "node_count-str": {"node_count": "5"},
    "node_count-float": {"node_count": 5.0},
    "node_count-bool": {"node_count": True},
    "hello-zero": {"zone": {"hello_interval_s": 0}},
    "hello-sub-us": {"zone": {"hello_interval_s": 1e-7}},
    "hello-str": {"zone": {"hello_interval_s": "1.0"}},
    "adv-zero": {"mcast": {"adv_period_s": 0}},
    "adv-negative": {"mcast": {"adv_period_s": -5.0}},
    "adv-sub-us": {"mcast": {"adv_period_s": 1e-7}},
    "decision-negative": {"rr": {"decision_period_s": -1}},
    "decision-zero": {"rr": {"decision_period_s": 0.0}},
    "decision-sub-us": {"rr": {"decision_period_s": 1e-7}},
    "drain-zero": {"energy": {"drain_w": 0}},
    "drain-negative": {"energy": {"drain_w": -1.0}},
    "duration-str": {"duration_s": "10"},
    "duration-inf": {"duration_s": float("inf")},
    "radius-zero": {"zone": {"radius_R": 0}},
    "radius-str": {"zone": {"radius_R": "2"}},
    "radius-float": {"zone": {"radius_R": 1.5}},
    "range-negative": {"radio": {"range_m": -1}},
    "path-loss-below-2": {"radio": {"path_loss_exp": 1}},
    "latency-negative": {"radio": {"one_hop_latency_s": -0.001}},
    "mobility-model-unknown": {"mobility": {"model": "teleport"}},
    "step-zero": {"mobility": {"model": "random_walk", "step_interval_s": 0}},
    "maintenance-zero": {"contacts": {"maintenance_period_s": 0}},
    "contacts-enabled-str": {"contacts": {"enabled": "no"}},
    "grid-cols-zero": {"rr": {"grid_cols": 0}},
    "prefix-bits-negative": {"rr": {"prefix_bits": -1}},
    "adv-ttl-zero": {"mcast": {"adv_ttl": 0}},
    "width-str": {"area": {"width_m": "100"}},
    "hello-overflows-us": {"zone": {"hello_interval_s": 1e303}},
    "nodes-str": {"node_count": 1, "nodes": [["a", 1]]},
    "directive-t-str": {"workload": [{"t": "1", "op": "freeze"}]},
    "directive-node-str": {"workload": [{"t": 1, "op": "fail_node", "node": "0"}]},
    "directive-count-str": {"workload": [{"t": 1, "op": "query_burst", "count": "2"}]},
    "directive-scope-str": {"workload": [{"t": 1, "op": "register_session", "node": 0,
                                          "name": "g", "scope_ttl": "3"}]},
    "directive-name-list": {"workload": [{"t": 1, "op": "register_session", "node": 0,
                                          "name": ["a"]}]},
    "directive-rect-short": {"workload": [{"t": 1, "op": "partition", "rect": [0, 10]}]},
    "directive-interval-negative": {"workload": [{"t": 1, "op": "send_data", "node": 0,
                                                  "session": "g", "count": 2,
                                                  "interval_s": -1}]},
    "directive-prefix-outside-grid": {"workload": [{"t": 1, "op": "register_session",
                                                    "node": 0, "name": "g",
                                                    "prefix": 64}]},
    "directive-suffix-too-wide": {"workload": [{"t": 1, "op": "register_session",
                                                "node": 0, "name": "g", "prefix": 0,
                                                "suffix": 256}]},
}


@pytest.mark.parametrize("bad", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
def test_bad_field_rejected_at_load(bad):
    with pytest.raises(ConfigError):
        from_dict(bad)


def test_one_microsecond_period_loads():
    s = from_dict({"zone": {"hello_interval_s": 1e-6}, "node_count": 1})
    assert s["zone"]["hello_interval_s"] == 1e-6


# Edge values that ran without an error before the field rules and must
# keep loading.
EDGE_FIELDS = {
    "latency-zero": {"radio": {"one_hop_latency_s": 0}},
    "recompute-zero": {"zone": {"recompute_delay_s": 0}},
    "no-contacts-kept": {"contacts": {"max_contacts": 0}},
    "bonus-one": {"contacts": {"capability_bonus": 1}},
    "no-register-retries": {"rr": {"register_max_retries": 0}},
    "derived-given": {"mcast": {"adv_ttl": 1, "member_expiry_s": 0.5},
                      "rr": {"l_limit_m": 10}, "contacts": {"E_half": 2.0}},
    "scope-and-address": {"workload": [{"t": 1, "op": "register_session",
                                        "node": 0, "name": "g", "prefix": 63,
                                        "suffix": 255, "scope_ttl": None}]},
}


@pytest.mark.parametrize("edge", EDGE_FIELDS.values(), ids=EDGE_FIELDS.keys())
def test_edge_field_loads(edge):
    from_dict(edge)


MUTANT_BASE = {
    "node_count": 8, "duration_s": 2.0, "seed": 1,
    "area": {"width_m": 300.0, "height_m": 300.0},
    "radio": {"range_m": 120.0},
    "rr": {"grid_cols": 2, "grid_rows": 1},
    "mobility": {"model": "random_waypoint", "speed_min": 1.0, "speed_max": 5.0},
    "nodes": grid_positions(8, 300.0, 300.0),
    "workload": [
        {"t": 0.05, "op": "register_session", "node": 0, "name": "g",
         "prefix": 1, "suffix": 2, "scope_ttl": 4},
        {"t": 0.1, "op": "register_session", "node": 1, "name": "h"},
        {"t": 0.15, "op": "join", "node": 7, "session": "g"},
        {"t": 0.2, "op": "send_data", "node": 0, "session": "g", "count": 3,
         "interval_s": 0.05, "size": 100},
        {"t": 0.25, "op": "query_burst", "count": 2, "budget": 2},
        {"t": 0.3, "op": "bootstrap", "node": 3},
        {"t": 0.35, "op": "partition", "rect": [0.0, 10.0, 0.0, 10.0]},
        {"t": 0.4, "op": "leave", "node": 7, "session": "g"},
        {"t": 0.45, "op": "fail_node", "node": 5},
        {"t": 0.45, "op": "freeze"},
    ],
}


def _tree_paths(tree, prefix=()):
    for k, v in (tree.items() if isinstance(tree, dict) else enumerate(tree)):
        yield prefix + (k,)
        if isinstance(v, (dict, list)):
            yield from _tree_paths(v, prefix + (k,))


MUTANT_DATA = from_dict(MUTANT_BASE).data
MUTANT_PATHS = list(_tree_paths(MUTANT_DATA))
MUTANT_VALUES = [0, -1, 1e-7, 0.5, 3, "1", True, None, math.inf, math.nan, []]


class _Hang(Exception):
    pass


def _raise_hang(signum, frame):
    raise _Hang()


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(MUTANT_PATHS), value=st.sampled_from(MUTANT_VALUES))
def test_single_field_mutation_loads_and_runs_or_is_config_error(path, value):
    data = json.loads(json.dumps(MUTANT_DATA))
    cur = data
    for k in path[:-1]:
        cur = cur[k]
    cur[path[-1]] = value
    try:
        scenario = from_dict(data)
    except ConfigError:
        return
    old = signal.signal(signal.SIGALRM, _raise_hang)
    signal.setitimer(signal.ITIMER_REAL, 20.0)
    try:
        Simulation(scenario).run(until_s=0.5)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_round_trip_is_identity():
    s = from_dict({"node_count": 5, "duration_s": 30, "seed": 2,
                   "mobility": {"model": "random_waypoint", "speed_max": 9.0},
                   "workload": [{"t": 3, "op": "freeze"}]})
    again = from_dict(json.loads(s.to_json()))
    assert again == s
    assert from_dict(json.loads(again.to_json())) == again


def test_load_scenario_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        load_scenario("/nonexistent/path.json")


def test_load_scenario_bad_json_reports_location(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\n  broken\n}")
    with pytest.raises(ConfigError) as e:
        load_scenario(str(p))
    assert ":2:" in str(e.value)


# -- running and metrics ------------------------------------------------------------

def small_blob(n=16, seed=1, **kw):
    base = {
        "node_count": n, "seed": seed, "duration_s": 20.0,
        "area": {"width_m": 500.0, "height_m": 500.0},
        "radio": {"range_m": 220.0},
        "nodes": grid_positions(n, 500.0, 500.0),
        "rr": {"grid_cols": 1, "grid_rows": 1},
    }
    base.update(kw)
    return from_dict(base)


def test_zero_workload_run_counts_control_only():
    trace, rows = run_scenario(small_blob())
    d = {(m, k): v for m, k, v in rows}
    assert ("data_packets", "") in d and d[("data_packets", "")] == 0
    assert d.get(("control_packets", "hello"), 0) > 0
    assert d.get(("control_packets", "zone_link_state"), 0) > 0
    assert not any(m == "delivery_ratio" for m, _, _ in rows)


def test_one_sender_three_receivers_full_delivery():
    wl = [
        {"t": 5.0, "op": "register_session", "node": 0, "name": "g"},
        {"t": 8.0, "op": "join", "node": 5, "session": "g"},
        {"t": 8.0, "op": "join", "node": 10, "session": "g"},
        {"t": 8.0, "op": "join", "node": 15, "session": "g"},
        {"t": 12.0, "op": "send_data", "node": 0, "session": "g",
         "count": 20, "interval_s": 0.1},
    ]
    trace, rows = run_scenario(small_blob(duration_s=25.0, workload=wl))
    ratios = [v for m, k, v in rows if m == "delivery_ratio"]
    assert ratios == [1.0]


def test_two_seeds_differ_but_both_valid():
    wl = [{"t": 2.0, "op": "query_burst", "count": 10}]
    t1, _ = run_scenario(small_blob(seed=1, workload=wl,
                                    mobility={"model": "random_waypoint",
                                              "speed_min": 1.0,
                                              "speed_max": 8.0}))
    t2, _ = run_scenario(small_blob(seed=2, workload=wl,
                                    mobility={"model": "random_waypoint",
                                              "speed_min": 1.0,
                                              "speed_max": 8.0}))
    assert trace_to_jsonl(t1) != trace_to_jsonl(t2)
    for tr in (t1, t2):
        ts = [e[0] for e in tr]
        assert ts == sorted(ts)


# -- overlay statistics ---------------------------------------------------------------

def finals_from_graph(g):
    return {n: {"zone": sorted(g.neighbors(n)), "contacts": [],
                "pos": [0.0, 0.0], "sds": [], "local_sds": []}
            for n in g.nodes}


def test_complete_graph_overlay_closed_form():
    g = nx.complete_graph(12)
    adj = overlay_graph(finals_from_graph(g), contacts=False)
    apl, cc, disconnected = overlay_graph_stats(adj, seed=0)
    assert apl == 1.0
    assert cc == 1.0
    assert not disconnected


def test_ring_overlay_closed_form():
    n = 24
    g = nx.cycle_graph(n)
    adj = overlay_graph(finals_from_graph(g), contacts=False)
    apl, cc, disconnected = overlay_graph_stats(adj, seed=0)
    assert cc == 0.0
    assert apl == pytest.approx(nx.average_shortest_path_length(g))
    assert not disconnected


def test_disconnected_overlay_flagged_and_uses_largest_component():
    g = nx.union(nx.complete_graph(8),
                 nx.relabel_nodes(nx.complete_graph(3), {0: 10, 1: 11, 2: 12}))
    adj = overlay_graph(finals_from_graph(g), contacts=False)
    apl, cc, disconnected = overlay_graph_stats(adj, seed=0)
    assert disconnected
    assert apl == 1.0


def test_contact_links_join_overlay():
    finals = finals_from_graph(nx.path_graph(6))
    finals[0]["contacts"] = [5]
    adj = overlay_graph(finals, contacts=True)
    assert 5 in adj[0] and 0 in adj[5]
    adj_no = overlay_graph(finals, contacts=False)
    assert 5 not in adj_no[0]


# -- emission and offline recomputability ------------------------------------------------

def test_identical_runs_emit_identical_artifacts():
    wl = [{"t": 2.0, "op": "register_session", "node": 0, "name": "g"},
          {"t": 5.0, "op": "join", "node": 7, "session": "g"},
          {"t": 8.0, "op": "send_data", "node": 0, "session": "g", "count": 5}]
    out = []
    for _ in range(2):
        trace, rows = run_scenario(small_blob(workload=wl))
        out.append((trace_to_jsonl(trace), metrics_to_csv(rows)))
    assert out[0] == out[1]


def test_metrics_recompute_from_saved_trace():
    wl = [{"t": 2.0, "op": "register_session", "node": 0, "name": "g"},
          {"t": 5.0, "op": "join", "node": 7, "session": "g"},
          {"t": 8.0, "op": "send_data", "node": 0, "session": "g", "count": 5}]
    trace, rows = run_scenario(small_blob(workload=wl))
    revived = jsonl_to_trace(trace_to_jsonl(trace))
    assert compute_metrics(revived) == rows


def test_csv_parses_with_constant_columns():
    trace, rows = run_scenario(small_blob())
    text = metrics_to_csv(rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == ["metric", "key", "value"]
    assert all(len(r) == 3 for r in parsed)


def test_empty_trace_yields_header_only_csv():
    assert metrics_to_csv(compute_metrics([])) == \
        "metric,key,value\ndata_packets,,0\ncontrol_packets_total,,0\n"


# -- CLI ---------------------------------------------------------------------------------

def write_scenario(tmp_path, extra=None):
    data = {"node_count": 10, "seed": 3, "duration_s": 8.0,
            "area": {"width_m": 400.0, "height_m": 400.0},
            "radio": {"range_m": 200.0}}
    if extra:
        data.update(extra)
    p = tmp_path / "scen.json"
    p.write_text(json.dumps(data))
    return str(p)


def test_cli_run_writes_artifacts(tmp_path):
    from mcastsim.cli import main
    scen = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", scen, "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "trace.jsonl").exists()
    assert (out / "scenario_resolved.json").exists()
    resolved = json.loads((out / "scenario_resolved.json").read_text())
    assert resolved["zone"]["radius_R"] == 2


def test_cli_resolved_scenario_records_derived_fields(tmp_path):
    from mcastsim.cli import main
    scen = write_scenario(tmp_path, {"zone": {"radius_R": 3},
                                     "energy": {"initial_j": 500.0, "drain_w": 2.0}})
    out = tmp_path / "out"
    assert main(["run", "--scenario", scen, "--out", str(out)]) == 0
    resolved = json.loads((out / "scenario_resolved.json").read_text())
    assert resolved["mcast"]["adv_ttl"] == 3 + 2
    assert resolved["mcast"]["member_expiry_s"] == 3.0 * resolved["mcast"]["adv_period_s"]
    assert resolved["rr"]["l_limit_m"] == 2.0 * 200.0 * 3
    assert resolved["contacts"]["E_half"] == (500.0 / 2.0) ** 2
    again = tmp_path / "again"
    assert main(["run", "--scenario", str(out / "scenario_resolved.json"),
                 "--out", str(again)]) == 0
    assert (again / "trace.jsonl").read_bytes() == (out / "trace.jsonl").read_bytes()


def test_cli_seed_override_changes_trace(tmp_path):
    from mcastsim.cli import main
    scen = write_scenario(tmp_path, {"mobility": {"model": "random_waypoint",
                                                  "speed_max": 10.0}})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", scen, "--out", str(a), "--seed", "1"]) == 0
    assert main(["run", "--scenario", scen, "--out", str(b), "--seed", "2"]) == 0
    assert (a / "trace.jsonl").read_text() != (b / "trace.jsonl").read_text()


def test_cli_until_stops_early(tmp_path):
    from mcastsim.cli import main
    scen = write_scenario(tmp_path)
    out = tmp_path / "short"
    assert main(["run", "--scenario", scen, "--out", str(out),
                 "--until", "2.0"]) == 0
    last = json.loads((out / "trace.jsonl").read_text().splitlines()[-1])
    assert last["t"] <= 2.0


def test_cli_missing_scenario_is_config_error(tmp_path):
    from mcastsim.cli import main
    assert main(["run", "--scenario", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("bad", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
def test_cli_bad_field_is_config_error(tmp_path, bad):
    from mcastsim.cli import main
    scen = write_scenario(tmp_path, bad)
    assert main(["run", "--scenario", scen, "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


def test_cli_stats_recomputes(tmp_path):
    from mcastsim.cli import main
    scen = write_scenario(tmp_path)
    out = tmp_path / "out"
    main(["run", "--scenario", scen, "--out", str(out)])
    out2 = tmp_path / "stats"
    assert main(["stats", "--trace", str(out / "trace.jsonl"),
                 "--out", str(out2)]) == 0
    assert (out2 / "metrics.csv").read_text() == (out / "metrics.csv").read_text()


def test_cli_sweep_runs_matrix(tmp_path):
    from mcastsim.cli import main
    scen = write_scenario(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", scen,
                 "--param", "contacts.enabled=true,false",
                 "--seeds", "2", "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()
    assert (out / "contacts.enabled=true" / "seed0" / "metrics.csv").exists()
    assert (out / "contacts.enabled=false" / "seed1" / "metrics.csv").exists()


def test_cli_sweep_derives_fields_per_value(tmp_path):
    from mcastsim.cli import main
    scen = write_scenario(tmp_path, {"duration_s": 1.0})
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", scen, "--param", "zone.radius_R=1,3",
                 "--seeds", "1", "--out", str(out)]) == 0
    for radius, adv_ttl in ((1, 3), (3, 5)):
        resolved = json.loads((out / f"zone.radius_R={radius}" / "seed0" /
                               "scenario_resolved.json").read_text())
        assert resolved["mcast"]["adv_ttl"] == adv_ttl


def test_cli_sweep_bad_param_is_config_error(tmp_path):
    from mcastsim.cli import main
    scen = write_scenario(tmp_path)
    assert main(["sweep", "--scenario", scen, "--param", "zone.bogus=1",
                 "--seeds", "1", "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("param", [
    "radio.range_m=abc",   # not a float
    "node_count=2.5",      # not an int
    "seed.x=1",            # a path through a non-dict
    "debug.sweep=ture",    # not a boolean word
])
def test_cli_sweep_bad_value_is_config_error(tmp_path, param):
    from mcastsim.cli import main
    scen = write_scenario(tmp_path)
    assert main(["sweep", "--scenario", scen, "--param", param,
                 "--seeds", "1", "--out", str(tmp_path / "x")]) == 1
    assert not (tmp_path / "x").exists()
