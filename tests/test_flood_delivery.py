"""Delivery of the batch kinds (zone adverts and group queries) once per
transmission, against the per-receiver delivery it replaced.

``PerReceiverKernel`` keeps the former delivery as the reference: it calls a
batch kind's handler once per live receiver, with that receiver alone. On a
150-node random-waypoint run with popularity floods and node failures, and on
a tiny ``soak`` round, both kernels must give the same trace bytes and leave
every node with the same advert cache, zone table and seen pids. A receiver
that dies between a transmission and its delivery must store nothing.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

import mcastsim.sim
from mcastsim.kernel import BATCH_KINDS, GROUP_QUERY, Kernel
from mcastsim.metrics import trace_to_jsonl
from mcastsim.scenario import from_dict
from mcastsim.sim import Simulation

from conftest import line_positions, make_sim, run_s
from test_zone_sync import mobile_scenario

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from test_bench import TINY  # noqa: E402
from workloads import scenarios  # noqa: E402


class PerReceiverKernel(Kernel):
    """Calls a batch kind's handler with one live receiver at a time; counts
    the calls by kind (and query type)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = Counter()

    def _deliver(self, sender, packet, receivers, powers):
        if packet.kind not in BATCH_KINDS or self.trace_packets:
            return super()._deliver(sender, packet, receivers, powers)
        handler = self.handlers.get(packet.kind)
        if handler is None:
            return
        for nid in receivers:
            node = self.nodes.get(nid)
            if node is None or not node.alive:
                continue
            if packet.dst is not None and packet.dst != nid:
                continue
            self.calls[packet.kind, packet.payload.get("q")] += 1
            handler((nid,), packet, None, sender)


def run_state(data):
    """Run a scenario; return its kernel, trace bytes and per-node state."""
    sim = Simulation(from_dict(data))
    sim.run()
    state = {nid: (dict(n.zone.adverts), dict(n.zone.table.members),
                   set(n.zone.table.border_set), n.zone.table.version,
                   set(n.mcast.seen))
             for nid, n in sorted(sim.kernel.nodes.items())}
    return sim.kernel, trace_to_jsonl(sim.kernel.trace_events), state


def assert_same_as_per_receiver(monkeypatch, data):
    """Run data with both kernels; return the reference's handler calls."""
    _, trace, state = run_state(data)
    with monkeypatch.context() as m:
        m.setattr(mcastsim.sim, "Kernel", PerReceiverKernel)
        ref, ref_trace, ref_state = run_state(data)
    assert trace == ref_trace
    differ = [nid for nid in state if state[nid] != ref_state[nid]]
    assert not differ, f"nodes {differ[:5]} differ"
    return ref.calls


def test_random_waypoint_with_pop_floods_matches_per_receiver_delivery(monkeypatch):
    data = mobile_scenario(150, 3, 8.0)
    data["mcast"] = {"pop_query_th": 0.5, "pop_th": 0.5}
    data["workload"] += [{"t": t, "op": "fail_node", "node": n}
                         for t, n in ((3.0004, 7), (5.5, 90))]
    calls = assert_same_as_per_receiver(monkeypatch, data)
    assert calls["zone_link_state", None] > 100_000
    assert calls["group_query", "pop"] > 10_000


def test_tiny_soak_round_matches_per_receiver_delivery(monkeypatch):
    data = scenarios("soak", 1, TINY["soak"])[0]
    calls = assert_same_as_per_receiver(monkeypatch, data)
    assert calls["zone_link_state", None] > 10_000
    assert calls["group_query", None] > 0   # source-routed stage queries


# -- a receiver killed while the transmission is in flight ----------------------

@pytest.fixture
def line3():
    """Nodes 0 - 1 - 2 in a line, settled; node 1 is the middle one."""
    sim = make_sim(node_count=3, nodes=line_positions(3, 100.0),
                   radio={"range_m": 120.0}, zone={"radius_R": 2},
                   area={"width_m": 400.0, "height_m": 100.0})
    run_s(sim, 3.0)
    return sim


def test_receiver_killed_in_flight_stores_no_advert(line3):
    k = line3.kernel
    line3.zone._send_advert(1, bump=True)
    seq = k.nodes[1].zone.my_seq
    k.kill_node(0)
    run_s(line3, 0.01)
    assert k.nodes[0].zone.adverts[1][0] < seq
    assert k.nodes[2].zone.adverts[1][0] == seq


def test_same_sequence_advert_is_neither_stored_again_nor_relayed(line3):
    k = line3.kernel
    line3.zone._send_advert(1, bump=True)
    run_s(line3, 0.01)
    sent = k.packet_counts["zone_link_state"]
    line3.zone._send_advert(1, bump=False)
    run_s(line3, 0.01)
    assert k.packet_counts["zone_link_state"] == sent + 1


def test_receiver_killed_in_flight_sees_no_pop_query(line3):
    k = line3.kernel
    line3.mcast._flood_out(1, GROUP_QUERY, 2, {"group": [0, 1], "origin": 1,
                                               "q": "pop", "stab": 1.0})
    pid = (1, k._pkt_seq)
    k.kill_node(0)
    run_s(line3, 0.01)
    assert pid not in k.nodes[0].mcast.seen
    assert pid in k.nodes[2].mcast.seen
