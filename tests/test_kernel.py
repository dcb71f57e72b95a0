import heapq
import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from mcastsim.kernel import (US, HELLO, JOIN_QUERY, ZONE_LINK_STATE, ConfigError,
                             FatalSimError, Kernel, Packet, RadioModel)

from conftest import make_sim, run_s


def bare_kernel(positions, range_m=250.0, n_exp=2.0, seed=0, trace_packets=False):
    k = Kernel(1000.0, 1000.0, RadioModel(range_m=range_m, path_loss_exp=n_exp),
               seed=seed, trace_packets=trace_packets)
    for i, (x, y) in enumerate(positions):
        k.add_node(i, x, y)
    k.rebuild_links()
    return k


# -- scheduling ---------------------------------------------------------------

def test_event_fires_at_exact_time():
    k = bare_kernel([(0, 0)])
    fired = []
    k.schedule_at(5 * US, lambda: fired.append(k.now_us))
    k.run_until(10 * US)
    assert fired == [5 * US]


def test_equal_time_events_keep_insertion_order():
    k = bare_kernel([(0, 0)])
    order = []
    k.schedule_at(5 * US, lambda: order.append("A"))
    k.schedule_at(5 * US, lambda: order.append("B"))
    k.run_until(6 * US)
    assert order == ["A", "B"]


def test_scheduling_in_the_past_is_fatal():
    k = bare_kernel([(0, 0)])
    k.run_until(4 * US)
    with pytest.raises(ConfigError):
        k.schedule_at(3 * US, lambda: None)


def test_cancel_prevents_firing():
    k = bare_kernel([(0, 0)])
    fired = []
    h = k.schedule_at(US, lambda: fired.append(1))
    k.cancel(h)
    k.run_until(2 * US)
    assert fired == []


def test_run_until_empty_queue_advances_clock():
    k = bare_kernel([(0, 0)])
    k.run_until(7 * US)
    assert k.now_us == 7 * US


class HeapKernel(Kernel):
    """The former event set, kept as the reference: one heap entry
    ``(t_us, seq, handle)`` per event and a handle table that cancel empties."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._queue = []
        self._handles = {}
        self._next_handle = 0

    def schedule_at(self, t_us, fn, *args):
        if t_us < self.now_us:
            raise ConfigError(f"scheduling in the past: {t_us} < {self.now_us}")
        handle = self._next_handle
        self._next_handle += 1
        self._handles[handle] = (fn, args)
        heapq.heappush(self._queue, (t_us, self._seq, handle))
        self._seq += 1
        return handle

    def cancel(self, handle):
        self._handles.pop(handle, None)

    def run_until(self, t_us):
        if t_us < self.now_us:
            raise ConfigError("run_until target is in the past")
        while self._queue and self._queue[0][0] <= t_us:
            ev_t, _, handle = heapq.heappop(self._queue)
            entry = self._handles.pop(handle, None)
            if entry is None:
                continue
            self.now_us = ev_t
            fn, args = entry
            fn(*args)
        self.now_us = t_us


def random_program(k, seed, check=None):
    """Drive k with a seeded random program; return (label, now_us) per firing.

    Events land on a few instants so that they collide; callbacks schedule
    more, some for the current instant, and cancel pending events, events
    that ran, the same event twice, and later events of the current instant.
    ``check(k)`` runs after every ``run_until``.
    """
    rng = random.Random(seed)
    fired, handles = [], []
    offsets = (0, 0, 1000, 1000, 2000, 5000)

    def add(t_us):
        label = len(handles)
        handles.append(k.schedule_at(t_us, event, label))

    def event(label):
        fired.append((label, k.now_us))
        for _ in range(rng.randrange(3)):
            roll = rng.random()
            if roll < 0.3 and len(handles) < 400:
                add(k.now_us + rng.choice(offsets))
            elif roll < 0.45 and len(handles) < 400:
                handles.append(k.schedule_in(0, event, len(handles)))
                if rng.random() < 0.5:
                    k.cancel(handles[-1])
            elif roll < 0.8 and handles:
                k.cancel(rng.choice(handles))
                if rng.random() < 0.2:
                    k.cancel(handles[-1])
                    k.cancel(handles[-1])

    for _ in range(rng.randrange(10, 40)):
        add(rng.choice(offsets) + rng.choice(offsets))
    for _ in range(rng.randrange(1, 60)):
        if rng.random() < 0.3:
            k.cancel(rng.choice(handles))
        if rng.random() < 0.4:
            add(k.now_us + rng.choice(offsets))
        k.run_until(k.now_us + rng.choice((0, 0, 500, 1000, 1500, 3000)))
        if check is not None:
            check(k)
    k.run_until(k.now_us + 3 * US)  # past the last instant a chain can reach
    if check is not None:
        check(k)
    return fired, handles


def check_event_set(k):
    pending = {seq for bucket in k._buckets.values() for seq, _, _ in bucket}
    assert k._cancelled <= pending
    assert sorted(k._times) == sorted(k._buckets)
    assert len(set(k._times)) == len(k._times)
    assert all(k._buckets.values())


def test_event_order_matches_the_heap_and_handle_table():
    """Instant buckets fire in exactly the (t, seq) order of the former heap."""
    for seed in range(300):
        ref, _ = random_program(HeapKernel(100.0, 100.0, seed=seed), seed)
        k = Kernel(100.0, 100.0, seed=seed)
        got, handles = random_program(k, seed, check_event_set)
        assert got == ref, seed
        assert len(set(handles)) == len(handles)
        assert not k._cancelled and not k._times and not k._buckets


# -- neighbors ------------------------------------------------------------------

def test_single_node_has_no_neighbors():
    k = bare_kernel([(500, 500)])
    assert k.neighbors(0) == frozenset()


def test_boundary_distance_is_inclusive():
    k = bare_kernel([(0, 0), (250, 0)], range_m=250.0)
    assert k.neighbors(0) == {1}
    assert k.neighbors(1) == {0}


def test_three_nodes_on_a_line():
    r = 250.0
    k = bare_kernel([(0, 0), (r, 0), (2 * r, 0)], range_m=r)
    assert k.neighbors(1) == {0, 2}
    assert k.neighbors(0) == {1}
    assert k.neighbors(2) == {1}


def test_unknown_node_is_fatal():
    k = bare_kernel([(0, 0)])
    with pytest.raises(FatalSimError):
        k.neighbors(42)


def test_neighbors_match_bruteforce_oracle():
    import random
    rng = random.Random(7)
    pts = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(60)]
    k = bare_kernel(pts, range_m=220.0)
    for i, (xi, yi) in enumerate(pts):
        expect = {j for j, (xj, yj) in enumerate(pts)
                  if j != i and math.hypot(xi - xj, yi - yj) <= 220.0}
        assert k.neighbors(i) == expect


def test_radio_symmetry():
    import random
    rng = random.Random(9)
    pts = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(50)]
    k = bare_kernel(pts, range_m=260.0)
    for a in k.nodes:
        for b in k.neighbors(a):
            assert a in k.neighbors(b)


# -- transmit and power --------------------------------------------------------

def test_received_power_at_reference_distance():
    rm = RadioModel(tx_power_w=0.5, range_m=100.0, ref_distance_m=2.0)
    assert rm.received_power(2.0) == 0.5
    assert rm.received_power(1.0) == 0.5  # flat inside the reference distance


def test_power_falls_by_four_when_distance_doubles():
    rm = RadioModel(tx_power_w=1.0, path_loss_exp=2.0, ref_distance_m=1.0)
    assert rm.received_power(20.0) == pytest.approx(rm.received_power(10.0) / 4.0)


def hello_log(k):
    """Register a HELLO handler; returns the list of (nid, rx_power) it sees."""
    got = []
    k.register_handler(HELLO, lambda nid, pkt, rx, sender: got.append((nid, rx)))
    return got


def test_transmit_delivers_to_every_neighbor():
    k = bare_kernel([(0, 0), (100, 0), (0, 100), (70, 70), (900, 900)],
                    range_m=150.0)
    got = hello_log(k)
    k.transmit(0, k.new_packet(HELLO, 0, 1))
    k.run_until(US)
    assert [nid for nid, _ in got] == [1, 2, 3]


def test_transmit_annotates_received_power():
    k = bare_kernel([(0, 0), (100, 0)], range_m=150.0)
    got = hello_log(k)
    k.transmit(0, k.new_packet(HELLO, 0, 1))
    k.run_until(US)
    (nid, power), = got
    assert nid == 1
    assert power == pytest.approx(k.radio.tx_power_w / 100.0 ** 2)


@given(d1=st.floats(min_value=1.0, max_value=1e4),
       ratio=st.floats(min_value=1.0001, max_value=100.0),
       n=st.floats(min_value=2.0, max_value=5.0))
def test_power_law_ratio_property(d1, ratio, n):
    rm = RadioModel(tx_power_w=1.0, path_loss_exp=n, ref_distance_m=1.0)
    d2 = d1 * ratio
    p1, p2 = rm.received_power(d1), rm.received_power(d2)
    assert p1 / p2 == pytest.approx((d2 / d1) ** n, rel=1e-9)


def test_trace_has_one_send_and_one_recv_per_neighbor():
    k = bare_kernel([(0, 0), (100, 0), (0, 100)], range_m=150.0,
                    trace_packets=True)
    k.transmit(0, k.new_packet(HELLO, 0, 1))
    k.run_until(US)
    sends = [e for e in k.trace_events if e[2] == "packet_send"]
    recvs = [e for e in k.trace_events if e[2] == "packet_recv"]
    assert len(sends) == 1
    assert len(recvs) == 2
    assert {e[1] for e in recvs} == {1, 2}


def test_clock_monotonic_in_trace():
    sim = make_sim(node_count=20, seed=5, duration_s=5.0)
    trace = sim.run()
    ts = [e[0] for e in trace]
    assert ts == sorted(ts)


def test_identical_runs_identical_traces():
    from mcastsim.metrics import trace_to_jsonl
    import random

    def one():
        rng = random.Random(3)
        nodes = [[rng.uniform(0, 800), rng.uniform(0, 800)] for _ in range(25)]
        sim = make_sim(node_count=25, seed=11, duration_s=6.0, nodes=nodes,
                       area={"width_m": 800.0, "height_m": 800.0},
                       mobility={"model": "random_waypoint", "speed_min": 5.0,
                                 "speed_max": 15.0})
        return trace_to_jsonl(sim.run())

    assert one() == one()


# -- source routing ---------------------------------------------------------------

ROUTED = "test_routed"


def routed_log(k):
    """Register a relaying handler; returns the (nid, path_record, ttl) of each
    packet that reached its last hop."""
    got = []

    def handler(nid, pkt, rx, sender):
        if not k.relay(nid, pkt):
            got.append((nid, list(pkt.path_record), pkt.ttl_hops))
    k.register_handler(ROUTED, handler)
    return got


def test_source_routed_packet_reaches_last_hop_once(static_line):
    k = static_line.kernel
    got = routed_log(k)
    route = [1, 2, 3, 4]
    k.source_route(0, ROUTED, route, {})
    run_s(static_line, 1.0)
    # sent with TTL len(route) + 1, three relays spend three: one hop to spare
    assert got == [(4, route, 2)]
    assert k.packet_counts[ROUTED] == len(route)


def test_ttl_of_route_length_is_the_minimum(static_line):
    k = static_line.kernel
    got = routed_log(k)
    route = (1, 2, 3, 4)
    for ttl in (len(route), len(route) - 1):
        k.transmit(0, k.new_packet(ROUTED, 0, ttl, {"route": route}, dst=route[0]))
    run_s(static_line, 1.0)
    assert got == [(4, list(route), 1)]


def test_relay_to_non_adjacent_hop_counts_and_dispatches_nothing(static_line):
    k = static_line.kernel
    seen = []

    def handler(nid, pkt, rx, sender):
        seen.append(nid)
        k.relay(nid, pkt)
    k.register_handler(ROUTED, handler)
    k.source_route(0, ROUTED, [1, 5], {})     # 5 is four hops from 1
    run_s(static_line, 1.0)
    assert seen == [1]
    assert k.packet_counts[ROUTED] == 2        # the relay from 1 still transmits


def test_source_reply_without_a_path_reaches_origin_directly(static_line):
    k = static_line.kernel
    got = routed_log(k)
    query = k.new_packet("test_query", 3, 1)
    k.source_reply(3, query, ROUTED, {}, origin=6)
    assert got == [(6, [6], 1)]
    assert ROUTED not in k.packet_counts


def test_reply_route_is_loop_erased(static_line):
    # a query that bounced 1 -> 2 -> 1 -> 2 is answered at 2: the reply goes
    # 2 -> 1 -> 0, not 2 -> 1 -> 2 -> 1 -> 0 (where 2's second visit would
    # send it back to 1 again, forever)
    k = static_line.kernel
    got = routed_log(k)
    query = k.new_packet("test_query", 0, 8)
    query.path_record = [1, 2, 1, 2]
    k.source_reply(2, query, ROUTED, {}, origin=0)
    run_s(static_line, 1.0)
    assert got == [(0, [1, 0], 2)]
    assert k.packet_counts[ROUTED] == 2


def test_greedy_step_and_route_probe(static_line):
    k = static_line.kernel
    x8 = k.nodes[8].pos()
    assert k.closer_node(4, x8) == 5
    assert k.closer_node(8, x8) is None
    assert k.closer_node(4, x8, [6, 7, 2]) == 7
    assert k.route_intact(0, [1, 2, 3])
    assert not k.route_intact(0, [1, 3])


# -- packet ownership: relays send the packet they own ------------------------


@pytest.fixture
def copies(monkeypatch):
    """(kind, pid) -> Packet.hop_copy calls made on that packet."""
    counts = Counter()
    hop_copy = Packet.hop_copy

    def counting(pkt):
        counts[(pkt.kind, pkt.pid)] += 1
        return hop_copy(pkt)
    monkeypatch.setattr(Packet, "hop_copy", counting)
    return counts


def test_source_routed_relays_make_no_copy(static_line, copies):
    k = static_line.kernel
    got = routed_log(k)
    route = [1, 2, 3, 4, 5]
    k.source_route(0, ROUTED, route, {})
    run_s(static_line, 0.1)
    assert got == [(5, route, 2)]
    assert not [n for (kind, _), n in copies.items() if kind == ROUTED]


def test_zone_flood_makes_one_copy_per_handling_node(static_line, copies):
    sim = static_line
    payload = {"group": [0, 1], "origin": 4, "stab": 1.0,
               "q": "session_registry", "stage": 3}
    seen = sim.kernel.nodes[4].mcast.seen
    before = set(seen)
    sim.mcast._flood_out(4, JOIN_QUERY, sim.zone.config.radius_R, payload)
    pid, = seen - before
    run_s(sim, 0.1)
    handled = [nid for nid, n in sim.kernel.nodes.items()
               if nid != 4 and pid in n.mcast.seen]
    assert handled == [2, 3, 5, 6]
    assert copies[(JOIN_QUERY, pid)] == len(handled)


@pytest.mark.parametrize("ttl, relayed", [(1, 0), (2, 2)])
def test_advert_copies_only_when_its_ttl_allows_a_relay(static_line, copies,
                                                         ttl, relayed):
    k = static_line.kernel
    zone = k.nodes[4].zone
    payload = {"origin": 4, "seq": zone.my_seq + 1,
               "nbrs": k.sorted_neighbors(4), "contacts": 0}
    pkt = k.new_packet(ZONE_LINK_STATE, 4, ttl, payload)
    k.transmit(4, pkt)
    run_s(static_line, 0.1)
    stored = [nid for nid, n in k.nodes.items()
              if n.zone.adverts.get(4, (0,))[0] == zone.my_seq + 1]
    assert stored == ([3, 5] if ttl == 1 else [2, 3, 5, 6])
    assert copies[(ZONE_LINK_STATE, pkt.pid)] == relayed
