import math
import random

import networkx as nx
import pytest

from mcastsim.kernel import GEOCAST, LAR_FORWARD, SESSION_REPLY, ConfigError
from mcastsim.rendezvous import GeoGrid, GroupAddress

from conftest import make_sim, line_positions, run_s


# -- grid mapping ---------------------------------------------------------------------

def test_origin_maps_to_prefix_zero():
    g = GeoGrid(1000.0, 1000.0, 4, 4)
    assert g.prefix_of_position((0.0, 0.0)) == 0


def test_grid_cell_arithmetic():
    g = GeoGrid(1000.0, 1000.0, 4, 4)
    assert g.prefix_of_position((600.0, 300.0)) == 6  # col 2, row 1


def test_top_right_boundary_maps_to_last_cell():
    g = GeoGrid(1000.0, 1000.0, 4, 4)
    assert g.prefix_of_position((1000.0, 1000.0)) == 15


def test_out_of_area_position_rejected():
    g = GeoGrid(1000.0, 1000.0, 4, 4)
    with pytest.raises(ConfigError):
        g.prefix_of_position((1000.1, 10.0))


def test_rect_of_prefix_six():
    g = GeoGrid(1000.0, 1000.0, 4, 4)
    assert g.rect_of_prefix(6) == (500.0, 750.0, 250.0, 500.0)


def test_center_round_trips_for_every_prefix():
    g = GeoGrid(977.0, 613.0, 8, 8)   # awkward dimensions on purpose
    for prefix in range(64):
        x1, x2, y1, y2 = g.rect_of_prefix(prefix)
        assert g.prefix_of_position(((x1 + x2) / 2.0, (y1 + y2) / 2.0)) == prefix


def test_rects_tile_area_exactly():
    g = GeoGrid(977.0, 613.0, 8, 8)
    for row in range(8):
        for col in range(8):
            rect = g.rect_of_prefix(col + 8 * row)
            if col + 1 < 8:
                right = g.rect_of_prefix(col + 1 + 8 * row)
                assert rect[1] == right[0]   # shared edge, exact
            if row + 1 < 8:
                above = g.rect_of_prefix(col + 8 * (row + 1))
                assert rect[3] == above[2]
    assert g.rect_of_prefix(0)[0] == 0.0 and g.rect_of_prefix(0)[2] == 0.0
    assert g.rect_of_prefix(63)[1] == 977.0 and g.rect_of_prefix(63)[3] == 613.0


def test_sampled_positions_round_trip():
    g = GeoGrid(977.0, 613.0, 8, 8)
    rng = random.Random(5)
    for _ in range(10_000):
        pos = (rng.uniform(0, 977.0), rng.uniform(0, 613.0))
        prefix = g.prefix_of_position(pos)
        rect = g.rect_of_prefix(prefix)
        assert GeoGrid.contains(rect, pos)


def test_distance_to_rect():
    rect = (100.0, 200.0, 100.0, 200.0)
    assert GeoGrid.distance_to_rect((150.0, 150.0), rect) == 0.0
    assert GeoGrid.distance_to_rect((50.0, 150.0), rect) == 50.0
    assert GeoGrid.distance_to_rect((70.0, 60.0), rect) == pytest.approx(
        math.hypot(30.0, 40.0))


# -- SDS promotion ----------------------------------------------------------------------

def one_region_sim(n=40, seed=1, **kw):
    """All nodes inside a single rendezvous region."""
    args = dict(node_count=n, seed=seed, duration_s=60.0,
                area={"width_m": 500.0, "height_m": 500.0},
                radio={"range_m": 200.0},
                rr={"grid_cols": 1, "grid_rows": 1, "target_sds": 5})
    args.update(kw)
    return make_sim(**args)


def sds_count(sim, prefix=0):
    return sum(1 for n in sim.kernel.nodes.values()
               if n.alive and prefix in n.sds.prefixes)


def test_saturated_region_never_promotes():
    sim = one_region_sim()
    node = sim.kernel.nodes[0]
    node.sds.known_sds[0] = {i: (0, (0.0, 0.0)) for i in range(1, 6)}
    assert sim.rr.observed_sds(0, 0) == 5
    assert sim.rr.sds_promotion_decide(0) is False


def test_ineligible_node_never_promotes():
    sim = one_region_sim()
    sim.kernel.nodes[0].sds_capable = False
    assert sim.rr.sds_promotion_decide(0) is False
    sim.kernel.nodes[1].energy_j = 0.0
    assert sim.rr.sds_promotion_decide(1) is False


def test_region_settles_in_target_band():
    for seed in range(5):
        sim = one_region_sim(seed=seed)
        run_s(sim, 40.0)
        assert 3 <= sds_count(sim) <= 7, f"seed {seed}: {sds_count(sim)}"


def test_first_sds_advertises_with_no_sync():
    sim = one_region_sim()
    run_s(sim, 2.0)
    sim.rr.sds_on_promote(3, 0)
    run_s(sim, 1.0)
    assert 0 in sim.kernel.nodes[3].sds.prefixes
    assert sim.kernel.nodes[3].sds.records == {}
    others = [n for n in sim.kernel.nodes.values() if n.nid != 3]
    assert all(3 in n.sds.known_sds.get(0, {}) for n in others)


def test_second_sds_receives_existing_records():
    sim = one_region_sim()
    run_s(sim, 2.0)
    sim.rr.sds_on_promote(3, 0)
    sim.rr.record_sender(3, (0, 1), sender=9, pos=(10.0, 10.0))
    run_s(sim, 1.0)
    sim.rr.sds_on_promote(7, 0)
    run_s(sim, 1.0)
    assert sim.kernel.nodes[7].sds.records.get((0, 1), {}).get(9) is not None


def test_promotion_advert_suppresses_zone_peers():
    sim = one_region_sim()
    run_s(sim, 2.0)
    sim.rr.sds_on_promote(3, 0)
    run_s(sim, 0.5)
    suppressed = [nid for nid, n in sim.kernel.nodes.items()
                  if nid != 3 and n.sds.suppress_until_us > sim.kernel.now_us]
    members_of_3 = set(sim.zone.table(3).members)
    assert members_of_3 and members_of_3 <= set(suppressed) | {3}


def test_sds_leaving_region_hands_off_records():
    sim = make_sim(node_count=30, seed=3, duration_s=60.0,
                   area={"width_m": 1000.0, "height_m": 500.0},
                   radio={"range_m": 220.0},
                   rr={"grid_cols": 2, "grid_rows": 1, "target_sds": 2})
    run_s(sim, 3.0)
    left = [nid for nid, n in sim.kernel.nodes.items() if n.x <= 480.0]
    a, b = left[0], left[1]
    sim.rr.sds_on_promote(a, 0)
    sim.rr.sds_on_promote(b, 0)
    sim.rr.record_sender(a, (0, 2), sender=5, pos=(50.0, 50.0))
    run_s(sim, 1.0)
    sim.kernel.nodes[a].x = 900.0   # crosses into prefix 1's rectangle
    sim.kernel.rebuild_links()
    run_s(sim, 4.0)
    assert 0 not in sim.kernel.nodes[a].sds.prefixes
    leaves = [e for e in sim.kernel.trace_events if e[2] == "sds_leave"]
    assert any(e[1] == a and e[3]["prefix"] == 0 for e in leaves)
    assert sim.kernel.nodes[b].sds.records.get((0, 2), {}).get(5) is not None
    entry = sim.kernel.nodes[b].sds.known_sds.get(0, {}).get(a)
    assert entry is None or entry[1] is None   # departed or tombstoned
    assert a not in {s for s, (t, p) in
                     sim.kernel.nodes[b].sds.known_sds.get(0, {}).items()
                     if p is not None}


def test_sole_sds_leave_has_no_absorber():
    sim = make_sim(node_count=4, seed=3, duration_s=30.0,
                   nodes=[[100.0, 100.0], [220.0, 100.0], [700.0, 100.0],
                          [820.0, 100.0]],
                   area={"width_m": 1000.0, "height_m": 200.0},
                   radio={"range_m": 150.0},
                   rr={"grid_cols": 2, "grid_rows": 1})
    for n in sim.kernel.nodes.values():
        n.sds_capable = False   # keep self-promotion out of the picture
    run_s(sim, 2.0)
    sim.rr.sds_on_promote(0, 0)
    run_s(sim, 1.0)
    sim.kernel.nodes[0].x = 900.0
    sim.kernel.rebuild_links()
    run_s(sim, 4.0)
    assert 0 not in sim.kernel.nodes[0].sds.prefixes
    assert not any(0 in n.sds.prefixes for n in sim.kernel.nodes.values())


# -- lollipop-LAR ------------------------------------------------------------------------

def lar_line_sim(**kw):
    """21-node line spanning a 4-column grid; rightmost column is the target."""
    args = dict(node_count=21, nodes=line_positions(21, 100.0),
                radio={"range_m": 120.0}, zone={"radius_R": 2},
                area={"width_m": 2100.0, "height_m": 200.0},
                rr={"grid_cols": 4, "grid_rows": 1, "l_limit_m": 300.0})
    args.update(kw)
    sim = make_sim(**args)
    run_s(sim, 3.0)
    return sim


def install_contact_route(sim, owner, contact, route):
    from mcastsim.contacts import ContactEntry
    now = sim.kernel.now_us
    sim.contacts.entries(owner)[contact] = ContactEntry(
        contact=contact, route=list(route), last_refresh_us=now,
        approx_pos=sim.kernel.nodes[contact].pos())


def test_groups_sharing_prefix_share_region():
    sim = lar_line_sim()
    sim.rr.sds_on_promote(16, 3)
    run_s(sim, 1.0)
    sim.mcast.start_sender(0, GroupAddress(3, 1))
    sim.mcast.start_sender(0, GroupAddress(3, 200))
    run_s(sim, 1.0)
    records = sim.kernel.nodes[16].sds.records
    assert 0 in records[(3, 1)] and 0 in records[(3, 200)]


def test_delivery_inside_own_region_uses_no_lar_packets():
    sim = lar_line_sim()
    sim.rr.sds_on_promote(16, 3)
    run_s(sim, 1.0)
    got = []
    sim.rr.register_rr_handler("probe", lambda nid, pkt: got.append(nid))
    before = sim.kernel.packet_counts.get(LAR_FORWARD, 0)
    sim.rr.lar_send(16, 3, "probe", {})
    run_s(sim, 1.0)
    assert got == [16]
    assert sim.kernel.packet_counts.get(LAR_FORWARD, 0) == before


def test_contact_chain_distance_strictly_decreases():
    sim = lar_line_sim()
    sim.rr.sds_on_promote(16, 3)
    install_contact_route(sim, 0, 5, [1, 2, 3, 4, 5])
    install_contact_route(sim, 5, 10, [6, 7, 8, 9, 10])
    install_contact_route(sim, 10, 15, [11, 12, 13, 14, 15])
    run_s(sim, 1.0)
    got = []
    sim.rr.register_rr_handler("probe", lambda nid, pkt: got.append(nid))
    sim.rr.lar_send(0, 3, "probe", {})
    run_s(sim, 1.0)
    assert got, "request must reach the rendezvous region"
    rect = sim.rr.grid.rect_of_prefix(3)
    hops = [e for e in sim.kernel.trace_events
            if e[2] == "lar_hop" and e[3]["mode"] == "contact"]
    assert hops, "far origin should use the contact chain"
    dists = []
    for e in hops:
        holder = e[1]
        n = sim.kernel.nodes[holder]
        dists.append(GeoGrid.distance_to_rect((n.x, n.y), rect))
    assert all(a > b for a, b in zip(dists, dists[1:])) or len(dists) == 1


def test_contact_leg_is_relayed_hop_by_hop():
    sim = lar_line_sim()
    sim.rr.sds_on_promote(16, 3)
    for node in sim.kernel.nodes.values():
        node.contacts.entries.clear()
    install_contact_route(sim, 0, 5, [1, 2, 3, 4, 5])
    run_s(sim, 1.0)
    got = []
    sim.rr.register_rr_handler("probe", lambda nid, pkt: got.append((nid, pkt)))
    start = len(sim.kernel.trace_events)
    sim.rr.lar_send(0, 3, "probe", {})
    run_s(sim, 1.0)
    hops = [(e[1], e[3]["mode"], e[3]["to"]) for e in sim.kernel.trace_events[start:]
            if e[2] == "lar_hop"]
    assert hops[0] == (0, "contact", 1)
    assert [m for _, m, _ in hops[1:]] == ["greedy"] * 11
    (nid, pkt), = got
    assert nid == 16
    assert pkt.path_record == list(range(1, 17))


def test_greedy_fallback_matches_shortest_path_oracle():
    sim = lar_line_sim()
    sim.rr.sds_on_promote(16, 3)
    run_s(sim, 1.0)
    got = []
    sim.rr.register_rr_handler("probe", lambda nid, pkt: got.append((nid, pkt)))
    sim.rr.lar_send(0, 3, "probe", {})
    run_s(sim, 2.0)
    assert got
    nid, pkt = got[0]
    greedy_hops = len(pkt.path_record)
    g = nx.Graph()
    for a in sim.kernel.nodes:
        for b in sim.kernel.neighbors(a):
            g.add_edge(a, b)
    sp = nx.shortest_path_length(g, 0, nid)
    assert greedy_hops >= sp
    assert greedy_hops < sim.rr.config.lar_ttl


def test_unreachable_region_traces_delivery_failure():
    pts = line_positions(5, 100.0)   # everything far left; gap to region 3
    sim = make_sim(node_count=5, nodes=pts, radio={"range_m": 120.0},
                   area={"width_m": 2100.0, "height_m": 200.0},
                   rr={"grid_cols": 4, "grid_rows": 1, "l_limit_m": 300.0})
    run_s(sim, 2.0)
    sim.rr.lar_send(0, 3, "probe", {})
    run_s(sim, 1.0)
    fails = [e for e in sim.kernel.trace_events if e[2] == "delivery_failure"]
    assert fails


# -- geocast ------------------------------------------------------------------------------

def test_single_node_region_single_broadcast():
    sim = make_sim(node_count=2, nodes=[[100.0, 100.0], [900.0, 100.0]],
                   area={"width_m": 1000.0, "height_m": 200.0},
                   radio={"range_m": 150.0},
                   rr={"grid_cols": 2, "grid_rows": 1})
    for n in sim.kernel.nodes.values():
        n.sds_capable = False
    run_s(sim, 1.0)
    before = sim.kernel.packet_counts.get(GEOCAST, 0)
    sim.rr.geocast(0, sim.rr.grid.rect_of_prefix(0), "noop", {})
    run_s(sim, 1.0)
    assert sim.kernel.packet_counts.get(GEOCAST, 0) - before == 1


def test_connected_region_fully_covered():
    rng = random.Random(12)
    pts = [[rng.uniform(0, 480), rng.uniform(0, 480)] for _ in range(20)]
    pts += [[rng.uniform(520, 1000), rng.uniform(0, 480)] for _ in range(10)]
    sim = make_sim(node_count=30, nodes=pts, radio={"range_m": 200.0},
                   area={"width_m": 1000.0, "height_m": 480.0},
                   rr={"grid_cols": 2, "grid_rows": 1})
    for n in sim.kernel.nodes.values():
        n.sds_capable = False
    run_s(sim, 1.0)
    reached = []
    sim.rr.register_geocast_handler("cover", lambda nid, pkt, inr:
                                    reached.append(nid) if inr else None)
    rect = sim.rr.grid.rect_of_prefix(0)
    before = sim.kernel.packet_counts.get(GEOCAST, 0)
    sim.rr.geocast(0, rect, "cover", {})
    run_s(sim, 2.0)
    in_region = {nid for nid, n in sim.kernel.nodes.items()
                 if GeoGrid.contains(rect, (n.x, n.y))}
    g = nx.Graph()
    g.add_nodes_from(in_region)
    for a in in_region:
        for b in sim.kernel.neighbors(a):
            if b in in_region:
                g.add_edge(a, b)
    component = nx.node_connected_component(g, 0)
    assert set(reached) | {0} == component   # flood oracle: in-rect component
    assert component <= in_region
    assert sim.kernel.packet_counts.get(GEOCAST, 0) - before <= len(in_region)


def test_split_region_covers_only_seeded_component():
    # two in-region clusters bridged only through an out-of-region node
    pts = [[50.0, 50.0], [150.0, 50.0],          # cluster A (region 0)
           [50.0, 400.0], [150.0, 400.0],        # cluster B (region 0)
           [150.0, 225.0]]                       # bridge, region 1
    sim = make_sim(node_count=5, nodes=pts, radio={"range_m": 180.0},
                   area={"width_m": 1000.0, "height_m": 500.0},
                   rr={"grid_cols": 1, "grid_rows": 2,
                       "expected_population": 1e9})
    run_s(sim, 1.0)
    rect = sim.rr.grid.rect_of_prefix(0)   # bottom half: y in [0, 250]
    assert GeoGrid.contains(rect, (50.0, 50.0))
    assert not GeoGrid.contains(rect, (50.0, 400.0))
    reached = []
    sim.rr.register_geocast_handler("cover", lambda nid, pkt, inr:
                                    reached.append(nid) if inr else None)
    sim.rr.geocast(0, rect, "cover", {})
    run_s(sim, 2.0)
    assert set(reached) == {1, 4}   # bridge heard it; cluster B never rebroadcast


def test_flooded_request_is_handled_once_by_lowest_live_server():
    sim = one_region_sim()
    for n in sim.kernel.nodes.values():
        n.sds_capable = False
    run_s(sim, 2.0)
    servers = (21, 7, 30)
    for sid in servers:
        sim.rr.sds_on_promote(sid, 0)
    run_s(sim, 1.0)
    assert all(set(servers) <= set(sim.kernel.nodes[s].sds.known_sds[0])
               for s in servers)
    got = []
    sim.rr.register_rr_handler("probe", lambda nid, pkt: got.append(
        (nid, pkt.pid, pkt.path_record)))
    # the sender knows no server, so its region request floods the region
    sim.kernel.nodes[0].sds.known_sds.clear()
    before = sim.kernel.packet_counts.get(GEOCAST, 0)
    pid = sim.rr.lar_send(0, 0, "probe", {"origin": 0})
    run_s(sim, 1.0)
    assert sim.kernel.packet_counts.get(GEOCAST, 0) > before
    assert all(pid in sim.kernel.nodes[s].sds.seen_pids for s in servers)
    assert got == [(7, pid, [])]
    # a second flood of the same request is dropped at every server
    inner = {"pkt_payload": {"prefix": 0, "inner_kind": "probe", "inner": {}},
             "path": [], "pid": list(pid)}
    sim.rr.geocast(0, sim.rr.grid.rect_of_prefix(0), "lar_rr", inner)
    run_s(sim, 1.0)
    assert got == [(7, pid, [])]


# -- session registration ------------------------------------------------------------------

def region_sim_with_sds(**kw):
    args = dict(node_count=25, seed=9, duration_s=60.0,
                area={"width_m": 500.0, "height_m": 500.0},
                radio={"range_m": 180.0},
                rr={"grid_cols": 1, "grid_rows": 1, "target_sds": 3})
    args.update(kw)
    sim = make_sim(**args)
    run_s(sim, 10.0)   # promotion settles
    return sim


def test_first_session_gets_lowest_free_suffix():
    sim = region_sim_with_sds()
    sim.rr.register_session(4, "alpha")
    sim.rr.register_session(9, "beta")
    run_s(sim, 3.0)
    # suffix 0 under prefix 0 is the well-known group, so allocation starts at 1
    assert sim.kernel.nodes[4].sds.known_sessions["alpha"] == GroupAddress(0, 1)
    assert sim.kernel.nodes[9].sds.known_sessions["beta"] == GroupAddress(0, 2)


def test_first_session_outside_prefix_zero_gets_suffix_zero():
    sim = make_sim(node_count=20, seed=9, duration_s=60.0,
                   area={"width_m": 1000.0, "height_m": 500.0},
                   radio={"range_m": 220.0},
                   rr={"grid_cols": 2, "grid_rows": 1, "target_sds": 3})
    run_s(sim, 10.0)
    right = [nid for nid, n in sim.kernel.nodes.items() if n.x > 520.0]
    sim.rr.register_session(right[0], "alpha")
    run_s(sim, 5.0)
    addr = sim.kernel.nodes[right[0]].sds.known_sessions["alpha"]
    assert addr.prefix == 1 and addr.suffix == 0


def test_racing_requests_one_confirm_one_alternative():
    sim = region_sim_with_sds()
    want = GroupAddress(0, 7)
    sim.rr.register_session(4, "alpha", requested=want)
    sim.rr.register_session(5, "beta", requested=want)
    run_s(sim, 5.0)
    a = sim.kernel.nodes[4].sds.known_sessions["alpha"]
    b = sim.kernel.nodes[5].sds.known_sessions["beta"]
    assert a != b
    assert 7 in (a.suffix, b.suffix)
    regs = [e for e in sim.kernel.trace_events if e[2] == "session_register"
            and "rejected_requested" in e[3]]
    assert sorted(e[3]["rejected_requested"] for e in regs) == [False, True]


def test_local_registration_uses_no_contact_hops():
    sim = region_sim_with_sds()
    sim.rr.register_session(4, "alpha")
    run_s(sim, 3.0)
    contact_hops = [e for e in sim.kernel.trace_events
                    if e[2] == "lar_hop" and e[3]["mode"] == "contact"]
    assert contact_hops == []


def test_unreachable_rr_falls_back_to_provisional():
    sim = make_sim(node_count=3, nodes=line_positions(3, 100.0),
                   area={"width_m": 2000.0, "height_m": 200.0},
                   radio={"range_m": 120.0}, duration_s=60.0,
                   rr={"grid_cols": 4, "grid_rows": 1,
                       "register_timeout_s": 0.2, "register_max_retries": 2})
    run_s(sim, 2.0)
    sim.rr.register_session(0, "ghost", requested=GroupAddress(3, 0))
    run_s(sim, 10.0)
    sess = sim.kernel.nodes[0].sds.known_sessions.get("ghost")
    assert sess is not None and sess.prefix == 3
    regs = [e for e in sim.kernel.trace_events if e[2] == "session_register"]
    assert any(e[3].get("provisional") for e in regs)


def watch_confirmations(sim):
    """Lists of (node, name) confirmations and of the LAR sends' inner kinds."""
    confirmed, sent = [], []
    sim.rr.on_session_confirmed(lambda nid, name, addr: confirmed.append((nid, name)))
    lar_send = sim.rr.lar_send

    def counting(origin, prefix, inner_kind, *args, **kwargs):
        sent.append(inner_kind)
        return lar_send(origin, prefix, inner_kind, *args, **kwargs)
    sim.rr.lar_send = counting
    return confirmed, sent


def late_reply(sim, nid, name, addr):
    """A session reply for nid arriving after the first one."""
    query = sim.kernel.new_packet("test_query", nid, 1)
    inner = {"name": name, "addr": list(addr), "rejected_requested": False}
    sim.kernel.source_reply(nid, query, SESSION_REPLY, {"inner": inner}, origin=nid)


def test_answered_registration_leaves_no_record():
    sim = region_sim_with_sds()
    confirmed, sent = watch_confirmations(sim)
    sim.rr.register_session(4, "alpha")
    run_s(sim, 3.0)
    assert confirmed == [(4, "alpha")]
    assert sim.rr._pending_sessions == {}
    late_reply(sim, 4, "alpha", (0, 5))
    run_s(sim, 3.0)
    assert confirmed == [(4, "alpha")]
    assert sent.count("session_announce") == 1
    assert sim.kernel.nodes[4].sds.known_sessions["alpha"] == GroupAddress(0, 1)


def test_provisional_registration_leaves_no_record():
    sim = make_sim(node_count=3, nodes=line_positions(3, 100.0),
                   area={"width_m": 2000.0, "height_m": 200.0},
                   radio={"range_m": 120.0}, duration_s=60.0,
                   rr={"grid_cols": 4, "grid_rows": 1,
                       "register_timeout_s": 0.2, "register_max_retries": 2})
    run_s(sim, 2.0)
    confirmed, sent = watch_confirmations(sim)
    sim.rr.register_session(0, "ghost", requested=GroupAddress(3, 0))
    run_s(sim, 10.0)
    assert confirmed == [(0, "ghost")]
    assert sim.rr._pending_sessions == {}
    addr = sim.kernel.nodes[0].sds.known_sessions["ghost"]
    late_reply(sim, 0, "ghost", (3, 0))
    run_s(sim, 1.0)
    assert confirmed == [(0, "ghost")]
    assert sent.count("session_announce") == 1
    assert sim.kernel.nodes[0].sds.known_sessions["ghost"] == addr


def test_confirmed_session_announced_at_well_known_rr():
    sim = region_sim_with_sds()
    sim.rr.register_session(4, "alpha")
    run_s(sim, 5.0)
    holders = [n for n in sim.kernel.nodes.values()
               if 0 in n.sds.prefixes and "alpha" in n.sds.announcements]
    assert holders
    meta = holders[0].sds.announcements["alpha"]
    assert meta["addr"] == [0, 1]
    assert meta["initiator"] == 4


def test_requested_address_validated():
    sim = make_sim(node_count=2, nodes=[[10.0, 10.0], [20.0, 20.0]])
    with pytest.raises(ConfigError):
        sim.rr.register_session(0, "x", requested=GroupAddress(9999, 0))
    with pytest.raises(ConfigError):
        sim.rr.register_session(0, "y", requested=GroupAddress(1, 1 << 20))


def test_concurrent_registrations_get_unique_addresses():
    sim = region_sim_with_sds()
    for i, node in enumerate([4, 5, 9, 12, 17]):
        sim.rr.register_session(node, f"s{i}")
    run_s(sim, 5.0)
    addrs = {}
    for node in sim.kernel.nodes.values():
        addrs.update(node.sds.known_sessions)
    assert len(addrs) == 5
    assert len(set(addrs.values())) == 5
