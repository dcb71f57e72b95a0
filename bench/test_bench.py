"""Fast self-test of the benchmark: tiny workloads, every output check, and
the traced round's trace against the untimed one.

Run from the repository root with ``python3 -m pytest -q bench/test_bench.py``.
"""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts src/ on the path)
import checks  # noqa: E402
from layers import LayerTracer  # noqa: E402
from workloads import SCENARIOS, WORKLOADS  # noqa: E402

from mcastsim import Kernel, from_dict, run_scenario  # noqa: E402
from mcastsim.metrics import trace_to_jsonl  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = {
    "mobile-large": {"n": 60},
    "static-multicast": {"n": 40, "sessions": 2, "receivers": 4},
    "soak": {"n": 30, "duration_s": 24.0},
}


def test_every_workload_has_a_tiny_size():
    assert set(TINY) == set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_inputs_depend_on_the_seed_alone(name):
    make = WORKLOADS[name]
    assert make(3, **TINY[name]) == make(3, **TINY[name])
    assert make(3, **TINY[name]) != make(4, **TINY[name])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_is_correct_and_complete(name, trace):
    log = io.StringIO()
    result = run.run_benchmark(name, 1, 0, trace, TINY[name], log=log)
    assert result["correct"], log.getvalue()
    assert result["failed"] == 0
    assert result["attempted"] % len(WORKLOADS[name](1, **TINY[name])["workload"]) == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    # one digest per scenario: the reference round matched the cycle's
    digests = [line for line in log.getvalue().splitlines() if "trace sha256" in line]
    assert len(digests) == SCENARIOS[name]
    assert all(len(line.split("sha256 ")[1].split()) == 1 for line in digests)


def test_digest_check_catches_differing_traces():
    assert run.digest_problems({0: {"a"}, 1: {"b"}}) == []
    assert run.digest_problems({0: {"a"}, 1: {"b", "c"}}) == [
        "scenario 1: 2 different traces from rounds with the same inputs"]


def test_traced_round_trace_is_byte_identical():
    scen = WORKLOADS["soak"](2, **TINY["soak"])
    plain = run.run_round(scen)
    traced = run.run_round(scen, LayerTracer())
    whole, _ = run_scenario(from_dict(scen))
    assert traced.jsonl == plain.jsonl == trace_to_jsonl(whole)
    tm = traced.timings
    assert 0 <= tm["attributed_s"] <= tm["loop_s"]


def test_tracer_restores_the_classes():
    before = dict(vars(Kernel))
    with LayerTracer().installed():
        assert vars(Kernel)["transmit"] is not before["transmit"]
    assert dict(vars(Kernel)) == before


def _round(name="static-multicast"):
    scen = WORKLOADS[name](1, **TINY[name])
    return run.run_round(scen, LayerTracer())


def test_checks_pass_on_a_real_round():
    rnd = _round()
    assert run.run_checks(rnd.sim.scenario.data, rnd) == []


def test_delivery_check_catches_faults():
    rnd = _round()
    data = rnd.sim.scenario.data
    deliver = next(e for e in rnd.trace if e[2] == "data_deliver")
    t, node, kind, detail = deliver
    send = next(e for e in rnd.trace if e[2] == "data_send"
                and e[1] == detail["src"] and e[3]["seq"] == detail["seq"])
    members = {d["node"] for d in data["workload"] if d["op"] == "join"}
    stranger = next(n for n in sorted(rnd.sim.kernel.nodes) if n not in members)
    i = rnd.trace.index(deliver)
    faults = {
        "duplicate": rnd.trace + [deliver],
        "one hop": rnd.trace[:i] + [(send[0], node, kind, detail)] + rnd.trace[i + 1:],
        "not members": rnd.trace + [(t, stranger, kind, detail)],
    }
    for words, trace in faults.items():
        problems = checks.check_deliveries(data, rnd.sim, trace)
        assert any(words in p for p in problems), (words, problems)


def test_contact_check_catches_long_routes():
    rnd = _round("soak")
    data = rnd.sim.scenario.data
    bound = 2 * data["zone"]["radius_R"] + 1
    long_add = (0, 0, "contact_add", {"contact": 1, "hops": bound + 1})
    assert checks.check_contacts(data, rnd.sim, rnd.trace + [long_add])
    node = rnd.sim.kernel.nodes[0]
    node.contacts.entries[99] = SimpleNamespace(route=list(range(bound + 1)))
    assert checks.check_contacts(data, rnd.sim, rnd.trace)


def test_counter_and_round_trip_checks_catch_faults():
    rnd = _round()
    sent = dict(rnd.tracer.transmissions)
    sent["hello"] += 1
    assert checks.check_counters(rnd.trace, sent)
    rows = list(rnd.rows) + [("extra", "", 1)]
    assert checks.check_round_trip(rows, rnd.jsonl)


def test_zone_check_catches_a_stale_table():
    rnd = _round()
    data = rnd.sim.scenario.data
    table = rnd.sim.kernel.nodes[0].zone.table
    table.members = {m: (hops + 1, nh) for m, (hops, nh) in table.members.items()}
    assert checks.check_zones(data, rnd.sim, rnd.trace)


def test_unit_disk_zones_on_a_line():
    positions = {i: (100.0 * i, 0.0) for i in range(5)}
    zones = checks.unit_disk_zones(positions, 100.0, 2)
    assert zones[0] == {1: 1, 2: 2}
    assert zones[2] == {0: 2, 1: 1, 3: 1, 4: 2}


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + ["--workload", "soak", "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
