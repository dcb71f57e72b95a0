"""Zone-scoped advert sync against the full-cache sync it replaced, and the
size and layout of the advert cache.

``full_cache_on_link_change`` is the former ``ZoneRouting._on_link_change``:
a fresh link copies the peer's whole advert cache. The zone-scoped sync hands
over only the adverts of the peer's zone members plus the peer's own. At the
default radius R = 2 every zone table, border set and parent map after every
``update_zone``, and the trace bytes, come out the same. At R = 3 they differ,
and the scoped sync's tables may miss at most 3x the full-cache sync's share of
true members.
"""

import gc
import hashlib
import math

import pytest

from mcastsim.metrics import trace_to_jsonl
from mcastsim.scenario import from_dict
from mcastsim.sim import Simulation
from mcastsim.zone import ZoneRouting


def full_cache_on_link_change(self, nid, added, removed):
    node = self.kernel.nodes[nid]
    if node.zone is None:
        return
    node.zone.advert_dirty = True
    self._mark_dirty(nid)
    for peer in added:
        pnode = self.kernel.nodes.get(peer)
        if pnode is None or pnode.zone is None or not pnode.alive:
            continue
        snapshot = [(o, *s) for o, s in sorted(pnode.zone.adverts.items())]
        snapshot.append((peer, pnode.zone.my_seq, self.kernel.sorted_neighbors(peer),
                         self.contact_count_fn(peer)))
        self._merge_snapshot(nid, snapshot)


def mobile_scenario(n, seed, duration_s, radius_R=2):
    """Random waypoint at the benchmark's density (1000 nodes per 3200 m square),
    with one session, a few receivers and contact query bursts."""
    side = 3200.0 * math.sqrt(n / 1000)
    cells = max(1, round(side / 400.0))
    workload = [{"t": 1.0, "op": "register_session", "node": 0, "name": "s"}]
    workload += [{"t": 1.5, "op": "join", "node": r, "session": "s"}
                 for r in range(n // 3, n, n // 4)]
    workload.append({"t": 2.5, "op": "send_data", "node": 0, "session": "s",
                     "count": 20, "interval_s": 0.2})
    workload += [{"t": float(t), "op": "query_burst", "count": 10}
                 for t in range(2, int(duration_s), 2)]
    return {"node_count": n, "seed": seed, "duration_s": duration_s,
            "area": {"width_m": side, "height_m": side},
            "radio": {"range_m": 250.0},
            "zone": {"radius_R": radius_R},
            "rr": {"grid_cols": cells, "grid_rows": cells},
            "mobility": {"model": "random_waypoint", "speed_min": 2.0,
                         "speed_max": 10.0},
            "workload": workload}


def run_recorded(monkeypatch, data):
    """Run a scenario; return one digest per update_zone call and the trace."""
    update_zone = ZoneRouting.update_zone
    log = []

    def recorded(self, nid):
        table = update_zone(self, nid)
        state = (self.kernel.now_us, nid, sorted(table.members.items()),
                 sorted(table.border_set),
                 sorted(self.kernel.nodes[nid].zone.parents.items()))
        log.append(hashlib.sha256(repr(state).encode()).digest())
        return table

    with monkeypatch.context() as m:
        m.setattr(ZoneRouting, "update_zone", recorded)
        sim = Simulation(from_dict(data))
        sim.run()
    return log, trace_to_jsonl(sim.kernel.trace_events)


def test_zone_scoped_sync_matches_full_cache_sync_at_radius_2(monkeypatch):
    n = 150
    data = mobile_scenario(n, 1, 10.0)
    scoped_log, scoped_trace = run_recorded(monkeypatch, data)
    monkeypatch.setattr(ZoneRouting, "_on_link_change", full_cache_on_link_change)
    full_log, full_trace = run_recorded(monkeypatch, data)
    assert len(scoped_log) > 3 * n
    first_diff = next((i for i, (a, b) in enumerate(zip(scoped_log, full_log))
                       if a != b), None)
    assert first_diff is None, f"update_zone call {first_diff} differs"
    assert len(scoped_log) == len(full_log)
    assert scoped_trace == full_trace


def within_hops(kernel, nid, R):
    """The nodes within R hops of nid on the kernel's current links, nid excluded."""
    seen = {nid}
    frontier = [nid]
    for _ in range(R):
        nxt = []
        for u in frontier:
            for v in kernel.sorted_neighbors(u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    seen.discard(nid)
    return seen


def zone_coverage(monkeypatch, data):
    """Sum over all update_zone calls of the true R-hop neighbourhood's size, of
    its nodes missing from the table, and of table members outside it."""
    update_zone = ZoneRouting.update_zone
    R = data["zone"]["radius_R"]
    counts = [0, 0, 0]

    def measured(self, nid):
        table = update_zone(self, nid)
        true = within_hops(self.kernel, nid, R)
        counts[0] += len(true)
        counts[1] += len(true.difference(table.members))
        counts[2] += len(set(table.members) - true)
        return table

    with monkeypatch.context() as m:
        m.setattr(ZoneRouting, "update_zone", measured)
        Simulation(from_dict(data)).run()
    return counts


def test_zone_scoped_sync_at_radius_3_misses_at_most_3x_the_full_cache_share(monkeypatch):
    # At R >= 3 the two syncs differ. An origin whose neighbour set has not
    # changed does not reflood, so a node that comes within R hops of it
    # through an older link learns its advert only from a new peer: the full
    # cache often holds it from long ago, the peer's zone adverts only when
    # the origin is in the peer's zone. Both syncs still build tables from
    # confirmed edges only; a sync of only the peer's neighbours' adverts
    # misses about 9x the full cache's share here.
    data = mobile_scenario(150, 2, 10.0, radius_R=3)
    true, scoped_missed, scoped_extra = zone_coverage(monkeypatch, data)
    monkeypatch.setattr(ZoneRouting, "_on_link_change", full_cache_on_link_change)
    full_true, full_missed, full_extra = zone_coverage(monkeypatch, data)
    assert min(true, full_true) > 50_000
    assert scoped_extra == full_extra == 0
    assert 0 < full_missed
    assert scoped_missed / true <= 3 * full_missed / full_true


# -- locks on the advert cache --------------------------------------------------------

@pytest.fixture(scope="module")
def mobile_150():
    """150 mobile nodes after 20 simulated seconds."""
    sim = Simulation(from_dict(mobile_scenario(150, 3, 20.0)))
    sim.run()
    return sim


def test_cache_holds_about_one_zone_not_the_network(mobile_150):
    live = [n for n in mobile_150.kernel.nodes.values() if n.alive]
    mean_cache = sum(len(n.zone.adverts) for n in live) / len(live)
    mean_zone = sum(len(n.zone.table.members) for n in live) / len(live)
    assert mean_zone > 10
    assert mean_cache <= 2 * mean_zone


def test_advert_entries_are_not_gc_tracked(mobile_150):
    # CPython untracks a tuple of untracked items during a collection, but only
    # once its items are untracked: an entry listed before its own neighbour
    # tuple is untracked on the next pass
    gc.collect()
    gc.collect()
    entries = [e for n in mobile_150.kernel.nodes.values()
               for e in n.zone.adverts.values()]
    assert entries
    assert not any(gc.is_tracked(e) for e in entries)
