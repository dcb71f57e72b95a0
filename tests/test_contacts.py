import math

import pytest
from hypothesis import given, settings, strategies as st

from mcastsim.contacts import (ContactEntry, SelectionInputs, energy_estimate,
                               selection_probability)
from mcastsim.kernel import ConfigError

from conftest import make_sim, line_positions, run_s


# -- energy estimate ---------------------------------------------------------------

def test_energy_estimate_direct_substitution():
    assert energy_estimate((100.0, 2.0), (80.0, 4.0)) == 1000.0


def test_energy_estimate_zero_energy_is_zero():
    assert energy_estimate((0.0, 2.0), (80.0, 4.0)) == 0.0
    assert energy_estimate((100.0, 2.0), (0.0, 4.0)) == 0.0


def test_energy_estimate_scales_with_drain():
    base = energy_estimate((100.0, 2.0), (80.0, 4.0))
    assert energy_estimate((100.0, 4.0), (80.0, 8.0)) == pytest.approx(base / 4.0)


def test_energy_estimate_rejects_bad_drain():
    with pytest.raises(ConfigError):
        energy_estimate((100.0, 0.0), (80.0, 4.0))


# -- selection probability ------------------------------------------------------------

def test_zero_stability_zero_probability():
    assert selection_probability(SelectionInputs(10.0, 0.0, 5.0, 1)) == 0.0


def test_probability_halves_when_contacts_double():
    p1 = selection_probability(SelectionInputs(1.0, 0.5, 1.0, 1),
                               k=1.0, E_half=1.0, A_half=1.0)
    p2 = selection_probability(SelectionInputs(1.0, 0.5, 1.0, 2),
                               k=1.0, E_half=1.0, A_half=1.0)
    assert p2 == pytest.approx(p1 / 2.0)


def test_saturated_inputs_reach_certainty():
    p = selection_probability(SelectionInputs(5.0, 1.0, 5.0, 4),
                              k=4.0, E_half=0.0, A_half=0.0)
    assert p == 1.0


def test_selection_inputs_validated():
    with pytest.raises(ConfigError):
        SelectionInputs(-1.0, 0.5, 1.0, 1)
    with pytest.raises(ConfigError):
        SelectionInputs(1.0, 1.5, 1.0, 1)
    with pytest.raises(ConfigError):
        SelectionInputs(1.0, 0.5, 1.0, 0)


@settings(max_examples=300)
@given(e=st.floats(min_value=0, max_value=1e6),
       s=st.floats(min_value=0, max_value=1),
       a=st.floats(min_value=0, max_value=1e3),
       z=st.integers(min_value=1, max_value=50),
       k=st.floats(min_value=0.1, max_value=10),
       eh=st.floats(min_value=0.01, max_value=1e6),
       ah=st.floats(min_value=0.01, max_value=100))
def test_probability_bounds_and_monotonicity(e, s, a, z, k, eh, ah):
    p = selection_probability(SelectionInputs(e, s, a, z), k, eh, ah)
    assert 0.0 <= p <= 1.0
    if e == 0 or s == 0 or a == 0:
        assert p == 0.0
    assert selection_probability(SelectionInputs(e * 2, s, a, z), k, eh, ah) >= p
    assert selection_probability(SelectionInputs(e, min(1.0, s * 1.5), a, z),
                                 k, eh, ah) >= p
    assert selection_probability(SelectionInputs(e, s, a * 2, z), k, eh, ah) >= p
    assert selection_probability(SelectionInputs(e, s, a, z + 1), k, eh, ah) <= p


# -- activity EWMA ---------------------------------------------------------------------

def test_activity_rate_counts_and_decays():
    sim = make_sim(node_count=2, nodes=[[0.0, 0.0], [900.0, 900.0]])
    for _ in range(10):
        sim.contacts.record_discovery(0)
    r0 = sim.contacts.activity_rate(0)
    assert r0 == pytest.approx(10 * math.log(2) / 30.0)
    run_s(sim, 30.0)   # one half-life
    assert sim.contacts.activity_rate(0) == pytest.approx(r0 / 2.0, rel=1e-6)


# -- drift detection -------------------------------------------------------------------

def line_sim(n=7, settle=3.0, **kw):
    args = dict(node_count=n, nodes=line_positions(n, 100.0),
                radio={"range_m": 120.0}, zone={"radius_R": 2},
                area={"width_m": 1200.0, "height_m": 100.0})
    args.update(kw)
    sim = make_sim(**args)
    run_s(sim, settle)
    return sim


def test_no_membership_change_no_candidates():
    sim = line_sim()
    members = dict(sim.zone.table(0).members)
    assert sim.contacts.detect_drifting(0, members, members) == []


def test_member_at_r_plus_one_is_candidate():
    sim = line_sim()
    new = dict(sim.zone.table(0).members)      # {1, 2}
    old = dict(new)
    old[3] = (3, 1)                            # pretend 3 was a member
    assert sim.contacts.detect_drifting(0, old, new) == [3]


def test_member_beyond_contact_zone_excluded():
    sim = line_sim()
    new = dict(sim.zone.table(0).members)
    old = dict(new)
    old[6] = (3, 1)                            # 6 sits 6 hops out: > 2R+1
    assert sim.contacts.detect_drifting(0, old, new) == []


def test_dead_node_not_a_candidate():
    sim = line_sim()
    new = dict(sim.zone.table(0).members)
    old = dict(new)
    old[3] = (3, 1)
    sim.kernel.nodes[3].alive = False
    sim.kernel.rebuild_links()
    assert sim.contacts.detect_drifting(0, old, new) == []


# -- maintenance ------------------------------------------------------------------------

def install_contact(sim, owner, contact, route):
    now = sim.kernel.now_us
    sim.contacts.entries(owner)[contact] = ContactEntry(
        contact=contact, route=list(route), last_refresh_us=now,
        approx_pos=sim.kernel.nodes[contact].pos())


def test_stationary_contact_retained():
    sim = line_sim()
    install_contact(sim, 0, 3, [1, 2, 3])      # R+1 hops
    run_s(sim, 10.0)
    entry = sim.contacts.entries(0)[3]
    assert entry.route == [1, 2, 3]
    assert entry.last_refresh_us > 0


def test_contact_beyond_bound_dropped():
    sim = line_sim()
    install_contact(sim, 0, 3, [1, 2, 3])
    sim.kernel.nodes[3].x = 1100.0             # way out: no border zone reaches it
    sim.kernel.rebuild_links()
    run_s(sim, 5.0)
    assert 3 not in sim.contacts.entries(0)
    drops = [e for e in sim.kernel.trace_events if e[2] == "contact_drop"]
    assert any(e[3]["contact"] == 3 for e in drops)


def test_broken_hop_repaired_through_alternate_path():
    # two-path graph: 0-1, 1-2, 1-3, 2-4, 3-4; contact 4 held via [1, 2, 4]
    pts = [[0.0, 200.0], [100.0, 200.0], [200.0, 260.0], [200.0, 140.0],
           [300.0, 200.0]]
    sim = make_sim(node_count=5, nodes=pts, radio={"range_m": 130.0},
                   zone={"radius_R": 1},
                   area={"width_m": 400.0, "height_m": 400.0})
    run_s(sim, 3.0)
    install_contact(sim, 0, 4, [1, 2, 4])      # 3 hops = 2R+1 with R=1
    sim.kernel.nodes[2].alive = False
    sim.kernel.rebuild_links()
    run_s(sim, 5.0)
    entry = sim.contacts.entries(0).get(4)
    assert entry is not None
    assert entry.route == [1, 3, 4]
    assert len(entry.route) <= 2 * 1 + 1


def test_contact_reentering_zone_demoted():
    sim = line_sim()
    install_contact(sim, 0, 3, [1, 2, 3])
    sim.kernel.nodes[3].x = 150.0              # back inside 0's zone
    sim.kernel.rebuild_links()
    run_s(sim, 5.0)
    assert 3 not in sim.contacts.entries(0)
    assert 3 in sim.zone.table(0).members


def test_zero_energy_candidate_never_selected():
    sim = line_sim()
    sim.kernel.nodes[0].energy_j = 0.0
    assert sim.contacts._probability(0, 3) == 0.0


# -- contact queries ----------------------------------------------------------------------

def test_contact_query_reaches_beyond_bordercast():
    sim = line_sim()
    install_contact(sim, 0, 4, [1, 2, 3, 4])   # 2R hops
    got = []
    sim.contacts.contact_query(0, {"kind": "find_node", "target": 6},
                               on_reply=lambda d, p: got.append((d, p)))
    run_s(sim, 1.0)
    assert got, "contact should answer from its zone"
    detail, qpath = got[0]
    assert detail["route"][-1] == 6
    full = qpath + detail["route"]
    assert len(full) == 6    # 3R hops away, via the 2R contact
    # same predicate via a single bordercast round finds nothing
    hits = []
    sim.zone.bordercast_query(0, {"kind": "find_node", "target": 6},
                              budget_rounds=1,
                              on_reply=lambda d, p: hits.append(d))
    run_s(sim, 1.0)
    assert hits == []


def test_no_contacts_yields_no_replies():
    sim = line_sim()
    got = []
    sim.contacts.contact_query(0, {"kind": "find_node", "target": 6},
                               on_reply=lambda d, p: got.append(d))
    run_s(sim, 1.0)
    assert got == []


def test_broken_contact_route_is_maintained_after_timeout():
    sim = line_sim()
    install_contact(sim, 0, 4, [1, 2, 3, 4])
    sim.kernel.nodes[2].alive = False          # break the path silently
    sim.kernel.nodes[2].x = 1150.0
    sim.kernel.rebuild_links()
    got = []
    sim.contacts.contact_query(0, {"kind": "find_node", "target": 6},
                               on_reply=lambda d, p: got.append(d),
                               timeout_s=0.3)
    run_s(sim, 2.0)
    assert got == []
    entry = sim.contacts.entries(0).get(4)
    assert entry is None or sim.kernel.route_intact(0, entry.route)


def test_member_and_contact_sets_disjoint_under_mobility():
    sim = make_sim(node_count=60, seed=6, duration_s=30.0,
                   area={"width_m": 900.0, "height_m": 900.0},
                   radio={"range_m": 200.0},
                   mobility={"model": "random_waypoint", "speed_min": 5.0,
                             "speed_max": 20.0},
                   workload=[{"t": float(t), "op": "query_burst", "count": 20}
                             for t in range(2, 28, 5)])
    violations = []
    sim.contacts.checkpoint_listeners.append(
        lambda nid, entries: violations.extend(
            (nid, c) for c in entries
            if c in sim.kernel.nodes[nid].zone.table.members))
    sim.run()
    assert violations == []


def test_capability_bonus_off_by_default():
    sim = line_sim()
    sim.kernel.nodes[3].sds.prefixes.add(0)
    base = sim.contacts._probability(0, 3)
    sim.contacts.config.capability_bonus = 0.3
    boosted = sim.contacts._probability(0, 3)
    assert boosted == pytest.approx(min(1.0, base + 0.3))


def exhaustive_route_via_borders(contacts, nid, target):
    """The contact route search before its length pruning: builds and probes
    every candidate, keeps the first of the shortest valid ones."""
    table = contacts.kernel.nodes[nid].zone.table
    bound = 2 * contacts.zone.config.radius_R + 1
    best = None

    def consider(route):
        nonlocal best
        if route is None or len(route) > bound or nid in route:
            return
        if len(set(route)) != len(route):
            return
        if not contacts.kernel.route_intact(nid, route):
            return
        if best is None or len(route) < len(best):
            best = route

    for b in sorted(table.border_set):
        bnode = contacts.kernel.nodes.get(b)
        if bnode is None or not bnode.alive:
            continue
        bzone = bnode.zone
        r1 = contacts.zone.intra_zone_route(nid, b)
        if r1 is None:
            continue
        if target in bzone.table.members:
            r2 = contacts.zone.intra_zone_route(b, target)
            if r2 is not None:
                consider(r1 + r2)
            continue
        if target in contacts.kernel.neighbors(b):
            consider(r1 + [target])
        for m in sorted(bzone.table.members):
            adv_m = bzone.adverts.get(m)
            if adv_m is None or target not in adv_m[1]:
                continue
            r2 = contacts.zone.intra_zone_route(b, m)
            if r2 is not None:
                consider(r1 + r2 + [target])
    return best


def test_pruned_route_search_matches_exhaustive_scan():
    sim = make_sim(node_count=150, seed=4, duration_s=8.0,
                   area={"width_m": 1500.0, "height_m": 1500.0},
                   radio={"range_m": 200.0},
                   contacts={"k": 8.0},
                   mobility={"model": "random_waypoint", "speed_min": 5.0,
                             "speed_max": 20.0},
                   workload=[{"t": float(t), "op": "query_burst", "count": 20}
                             for t in range(1, 8, 2)])
    pruned = sim.contacts._route_via_borders
    calls = []

    def both(nid, target):
        route = pruned(nid, target)
        assert route == exhaustive_route_via_borders(sim.contacts, nid, target)
        calls.append(route)
        return route

    sim.contacts._route_via_borders = both
    sim.run()
    assert len(calls) >= 100
    found = [r for r in calls if r is not None]
    assert found
    assert len({len(r) for r in found}) > 1
