from mcastsim.kernel import DATA
from mcastsim.multicast import Receiver
from mcastsim.rendezvous import GroupAddress

from conftest import make_sim, line_positions, run_s


def no_self_promotion(sim):
    for n in sim.kernel.nodes.values():
        n.sds_capable = False


def stages(sim, node, key):
    return [(e[3]["stage"], e[3]["status"])
            for e in sim.kernel.trace_events
            if e[2] == "join_stage" and e[1] == node
            and tuple(e[3]["g"]) == key and e[3]["q"] == "group_info"]


def delivered_seqs(sim, node, key):
    return sorted(e[3]["seq"] for e in sim.kernel.trace_events
                  if e[2] == "data_deliver" and e[1] == node
                  and tuple(e[3]["g"]) == key)


# -- sender advertisement -----------------------------------------------------------

def adv_line_sim(n=10, adv_ttl=2, **kw):
    args = dict(node_count=n, nodes=line_positions(n, 100.0),
                radio={"range_m": 120.0}, zone={"radius_R": 2},
                area={"width_m": 1200.0, "height_m": 100.0},
                mcast={"adv_ttl": adv_ttl, "adv_period_s": 5.0},
                rr={"grid_cols": 1, "grid_rows": 1})
    args.update(kw)
    sim = make_sim(**args)
    no_self_promotion(sim)
    run_s(sim, 3.0)
    return sim


def test_adv_ttl_bounds_reach():
    sim = adv_line_sim(adv_ttl=2)
    addr = GroupAddress(0, 1)
    sim.mcast.start_sender(0, addr)
    run_s(sim, 1.0)
    for nid in sim.kernel.nodes:
        cache = sim.kernel.nodes[nid].mcast.adv_cache.get(addr.key(), {})
        if nid == 0:
            continue
        if nid <= 2:          # within 2 hops
            assert 0 in cache, f"node {nid} should have heard the Adv"
        else:
            assert 0 not in cache, f"node {nid} is {nid} hops out"


def test_adv_reaches_sds_and_receiver_inside_disk():
    sim = adv_line_sim(adv_ttl=3)
    addr = GroupAddress(0, 1)
    sim.rr.sds_on_promote(2, 0)   # inside the TTL disk
    sim.rr.sds_on_promote(7, 0)   # outside
    run_s(sim, 1.0)
    sim.mcast.start_sender(0, addr)
    run_s(sim, 1.0)
    assert sim.rr.live_senders(2, addr.key()) == {
        0: sim.rr.live_senders(2, addr.key())[0]}
    assert sim.rr.live_senders(7, addr.key()) == {}


def test_adv_path_record_hop_connected():
    sim = adv_line_sim(adv_ttl=4)
    addr = GroupAddress(0, 1)
    sim.mcast.start_sender(0, addr)
    run_s(sim, 1.0)
    for nid in range(1, 5):
        meta = sim.kernel.nodes[nid].mcast.adv_cache[addr.key()][0]
        route = meta["path"]             # nid back to the sender
        assert len(route) == nid
        assert route[-1] == 0
        prev = nid
        for hop in route:
            assert hop in sim.kernel.neighbors(prev)
            prev = hop


# -- staged discovery ------------------------------------------------------------------

def test_sender_of_two_groups_advertises_both():
    sim = adv_line_sim(n=4, adv_ttl=4)
    sim.mcast.start_sender(0, GroupAddress(0, 1))
    sim.mcast.start_sender(0, GroupAddress(0, 2))
    run_s(sim, 1.0)
    for nid in (1, 2, 3):
        cache = sim.kernel.nodes[nid].mcast.adv_cache
        assert sorted(cache) == [(0, 1), (0, 2)], f"node {nid}"


def test_receiver_near_adv_joins_from_own_cache():
    sim = adv_line_sim(adv_ttl=3)
    addr = GroupAddress(0, 1)
    sim.mcast.start_sender(0, addr)
    run_s(sim, 1.0)
    sim.mcast.receiver_join(2, addr)
    run_s(sim, 1.0)
    assert stages(sim, 2, addr.key()) == [(1, "attempt"), (1, "success")]
    rec = sim.kernel.nodes[2].mcast.groups[addr.key()].receiver
    assert rec.active in rec.paths


def test_receiver_finds_member_by_local_broadcast():
    # R1 heard the Adv; R2 sits beyond the Adv disk but within R hops of R1
    sim = adv_line_sim(n=8, adv_ttl=2)
    addr = GroupAddress(0, 1)
    sim.mcast.start_sender(0, addr)
    run_s(sim, 1.0)
    sim.mcast.receiver_join(2, addr)     # R1: stage-1 from cache
    run_s(sim, 1.0)
    sim.mcast.receiver_join(4, addr)     # R2: no cache, no SDS, no contacts
    run_s(sim, 2.0)
    got = stages(sim, 4, addr.key())
    assert (3, "success") in got
    assert got.index((3, "attempt")) > got.index((2, "attempt")) \
        > got.index((1, "attempt"))
    assert delivered_after_data(sim, addr, senders=[0], receivers=[2, 4])


def delivered_after_data(sim, addr, senders, receivers, count=3):
    base = {r: len(delivered_seqs(sim, r, addr.key())) for r in receivers}
    for i in range(count):
        sim.mcast.send_data(senders[0], addr, seq=1000 + i)
        run_s(sim, 0.5)
    return all(len(delivered_seqs(sim, r, addr.key())) - base[r] == count
               for r in receivers)


def test_receiver_finds_zone_sds_stage_one():
    sim = adv_line_sim(n=10, adv_ttl=2)
    addr = GroupAddress(0, 1)
    sim.rr.sds_on_promote(5, 0)
    run_s(sim, 1.0)
    sim.mcast.start_sender(0, addr)
    run_s(sim, 6.0)   # periodic re-Adv plus rr_update populate the SDS
    assert sim.rr.live_senders(5, addr.key())
    sim.mcast.receiver_join(6, addr)   # node 6 has SDS 5 in its zone
    run_s(sim, 2.0)
    got = stages(sim, 6, addr.key())
    assert got[0] == (1, "attempt")
    assert (1, "success") in got


def test_isolated_receiver_keeps_pending():
    pts = line_positions(4, 100.0) + [[1500.0, 10.0]]
    sim = make_sim(node_count=5, nodes=pts, radio={"range_m": 120.0},
                   area={"width_m": 1600.0, "height_m": 100.0},
                   mcast={"join_backoff_s": 1.0, "stage_rr_timeout_s": 0.3},
                   rr={"grid_cols": 1, "grid_rows": 1})
    no_self_promotion(sim)
    run_s(sim, 2.0)
    addr = GroupAddress(0, 1)
    sim.mcast.receiver_join(4, addr)
    run_s(sim, 3.0)
    got = stages(sim, 4, addr.key())
    assert ("pending" in {s for _, s in got})
    assert not any(s == "success" for _, s in got)
    order = [st for st, s in got if s == "attempt"]
    assert order[:4] == [1, 2, 3, 4]


# -- join requests and the mesh ----------------------------------------------------------

def test_single_candidate_becomes_active():
    sim = adv_line_sim(n=5)
    addr = GroupAddress(0, 1)
    sim.mcast.start_sender(0, addr)
    run_s(sim, 1.0)
    sim.mcast.send_join_request(3, addr.key(),
                                [{"path": [2, 1, 0], "stability": 0.8,
                                  "sender": 0, "pos": None}])
    run_s(sim, 1.0)
    rec = sim.kernel.nodes[3].mcast.groups[addr.key()].receiver
    assert rec.paths == [rec.active]
    mid = sim.kernel.nodes[2].mcast.groups[addr.key()]
    assert mid.links[3].down_members == {3}
    assert mid.links[1].up_for == {3}


def test_candidates_ranked_by_stability():
    sim = diamond_sim(mcast={"max_paths": 2})
    addr = GroupAddress(0, 1)
    sim.mcast.start_sender(0, addr)
    run_s(sim, 1.0)
    cands = [
        {"path": [2, 1, 0], "stability": 0.7, "sender": 0, "pos": None},
        {"path": [1, 0], "stability": 0.4, "sender": 0, "pos": None},
        {"path": [4, 3, 0], "stability": 0.9, "sender": 0, "pos": None},
    ]
    sim.mcast.send_join_request(5, addr.key(), cands)
    run_s(sim, 1.0)
    rec = sim.kernel.nodes[5].mcast.groups[addr.key()].receiver
    picked = [(p.path, p is rec.active) for p in rec.paths]
    assert picked == [([4, 3, 0], True), ([2, 1, 0], False)]


def test_join_walk_break_discards_and_fails_over():
    # best candidate has a bogus hop; the walk discards it and the standby
    # (next best) is activated
    sim = adv_line_sim(n=6)
    addr = GroupAddress(0, 1)
    sim.mcast.start_sender(0, addr)
    run_s(sim, 1.0)
    cands = [
        {"path": [2, 0], "stability": 0.9, "sender": 0, "pos": None},
        {"path": [2, 1, 0], "stability": 0.7, "sender": 0, "pos": None},
    ]
    sim.mcast.send_join_request(3, addr.key(), cands)
    run_s(sim, 1.0)
    rec = sim.kernel.nodes[3].mcast.groups[addr.key()].receiver
    picked = [(p.path, p is rec.active) for p in rec.paths]
    assert picked == [([2, 1, 0], True)]


def test_shared_intermediate_holds_two_branches():
    pts = [[10.0, 10.0], [110.0, 10.0], [210.0, 10.0], [110.0, 110.0]]
    sim = make_sim(node_count=4, nodes=pts, radio={"range_m": 120.0},
                   area={"width_m": 400.0, "height_m": 200.0},
                   rr={"grid_cols": 1, "grid_rows": 1})
    no_self_promotion(sim)
    run_s(sim, 2.0)
    addr = GroupAddress(0, 1)
    sim.mcast.start_sender(0, addr)
    run_s(sim, 1.0)
    sim.mcast.send_join_request(2, addr.key(),
                                [{"path": [1, 0], "stability": 0.8,
                                  "sender": 0, "pos": None}])
    sim.mcast.send_join_request(3, addr.key(),
                                [{"path": [1, 0], "stability": 0.8,
                                  "sender": 0, "pos": None}])
    run_s(sim, 1.0)
    groups1 = sim.kernel.nodes[1].mcast.groups
    assert list(groups1) == [addr.key()]
    links = groups1[addr.key()].links
    assert links[2].down_members == {2}
    assert links[3].down_members == {3}
    assert links[0].up_for == {2, 3}
    assert delivered_after_data(sim, addr, senders=[0], receivers=[2, 3])


# -- data plane ---------------------------------------------------------------------------

def test_forwards_only_on_active_branches():
    sim = adv_line_sim(n=6)
    addr = GroupAddress(0, 1)
    key = addr.key()
    ent = sim.mcast.entry(3, key, create=True)
    for peer, active in ((2, True), (4, True), (1, False)):
        link = sim.mcast._link(3, key, peer)
        if active:
            link.down_members.add(90 + peer)
        else:
            link.standby_down.add(90 + peer)
    pkt = sim.kernel.new_packet(DATA, 9, 16,
                                {"group": list(key), "src": 9, "seq": 1,
                                 "size": 64})
    copies = sim.mcast.forward_data(3, pkt, arrival_from=None)
    assert copies == 2


def test_duplicate_data_forwarded_once():
    sim = adv_line_sim(n=6)
    addr = GroupAddress(0, 1)
    key = addr.key()
    sim.mcast.entry(3, key, create=True).receiver = Receiver(3, key, "group_info")
    link = sim.mcast._link(3, key, 2)
    link.down_members.add(99)
    mk = lambda: sim.kernel.new_packet(DATA, 9, 16,
                                       {"group": list(key), "src": 9,
                                        "seq": 7, "size": 64})
    first = sim.mcast.forward_data(3, mk(), arrival_from=4)
    second = sim.mcast.forward_data(3, mk(), arrival_from=2)
    assert first == 1 and second == 0
    assert delivered_seqs(sim, 3, key) == [7]


def test_static_joined_group_delivers_exactly_once():
    sim = adv_line_sim(n=7, adv_ttl=8)
    addr = GroupAddress(0, 1)
    sim.mcast.start_sender(0, addr)
    run_s(sim, 1.0)
    for r in (3, 5, 6):
        sim.mcast.receiver_join(r, addr)
    run_s(sim, 2.0)
    for i in range(10):
        sim.mcast.send_data(0, addr, seq=i)
    run_s(sim, 2.0)
    for r in (3, 5, 6):
        assert delivered_seqs(sim, r, addr.key()) == list(range(10))


# -- activation rules ------------------------------------------------------------------------

def test_leave_cascades_deactivation_upstream():
    sim = adv_line_sim(n=5, adv_ttl=6)
    addr = GroupAddress(0, 1)
    sim.mcast.start_sender(0, addr)
    run_s(sim, 1.0)
    sim.mcast.receiver_join(4, addr)
    run_s(sim, 2.0)
    for mid in (1, 2, 3):
        ent = sim.kernel.nodes[mid].mcast.groups[addr.key()]
        assert any(l.active() for l in ent.links.values())
    sim.mcast.receiver_leave(4, addr)
    run_s(sim, 2.0)
    run_s(sim, 16.0)   # expiry maintenance prunes emptied entries
    for mid in (1, 2, 3):
        ent = sim.kernel.nodes[mid].mcast.groups.get(addr.key())
        assert ent is None or not any(l.active() for l in ent.links.values())
    deact = [e for e in sim.kernel.trace_events if e[2] == "branch_deactivate"]
    assert deact


def test_leave_ends_a_running_discovery():
    # with no sender yet node 5's discovery is backing off when it leaves;
    # the backoff must not rejoin it once a sender appears
    sim = adv_line_sim(n=7, adv_ttl=8)
    addr = GroupAddress(0, 1)
    key = addr.key()
    sim.mcast.receiver_join(5, addr)
    run_s(sim, 3.0)
    sim.mcast.receiver_leave(5, addr)
    left_us = sim.kernel.now_us
    sim.mcast.start_sender(0, addr)
    run_s(sim, 2.0)
    for seq in (1, 2, 3):
        sim.mcast.send_data(0, addr, seq=seq)
    run_s(sim, 1.0)
    after = [e[2] for e in sim.kernel.trace_events
             if e[0] >= left_us and e[1] == 5
             and e[2] in ("join_stage", "data_deliver")]
    assert after == []
    assert key not in sim.kernel.nodes[5].mcast.groups


def test_probe_answer_after_leave_installs_nothing():
    sim = adv_line_sim(n=7, adv_ttl=8)
    addr = GroupAddress(0, 1)
    key = addr.key()
    sim.mcast.start_sender(0, addr)
    run_s(sim, 1.0)
    sim.mcast.send_join_request(5, key, [
        {"path": None, "stability": 0.5, "sender": 0,
         "pos": sim.kernel.nodes[0].pos()}])
    sim.mcast.receiver_leave(5, addr)   # before the probe's answer is back
    run_s(sim, 1.0)
    assert key not in sim.kernel.nodes[5].mcast.groups
    assert not sim.mcast.mesh_active(4, key)


def test_path_switch_keeps_exactly_one_active():
    sim = adv_line_sim(n=6)
    addr = GroupAddress(0, 1)
    key = addr.key()
    sim.mcast.start_sender(0, addr)
    run_s(sim, 1.0)
    cands = [
        {"path": [2, 1, 0], "stability": 0.9, "sender": 0, "pos": None},
        {"path": [4, 5], "stability": 0.5, "sender": 0, "pos": None},
    ]
    sim.mcast.send_join_request(3, key, cands)
    run_s(sim, 1.0)
    rec = sim.kernel.nodes[3].mcast.groups[key].receiver
    standby = [p for p in rec.paths if p is not rec.active][0]
    sim.mcast._activate_path(rec, standby)
    assert rec.active is standby
    run_s(sim, 1.0)
    assert sim.kernel.nodes[4].mcast.groups[key].links[3].down_members == {3}
    old = sim.kernel.nodes[2].mcast.groups[key].links
    assert 3 not in old[3].down_members
    assert 3 in old[3].standby_down


# -- recovery and handoff ----------------------------------------------------------------------

def diamond_sim(**kw):
    # sender 0 feeds two disjoint two-hop paths (1-2 upper, 3-4 lower) to node 5
    pts = [[10.0, 200.0],
           [110.0, 260.0], [210.0, 260.0],
           [110.0, 140.0], [210.0, 140.0],
           [310.0, 200.0]]
    args = dict(node_count=6, nodes=pts, radio={"range_m": 125.0},
                zone={"radius_R": 1},
                area={"width_m": 500.0, "height_m": 400.0},
                rr={"grid_cols": 1, "grid_rows": 1})
    args.update(kw)
    sim = make_sim(**args)
    no_self_promotion(sim)
    run_s(sim, 2.0)
    return sim


def test_standby_activated_when_active_path_dies():
    sim = diamond_sim()
    addr = GroupAddress(0, 1)
    key = addr.key()
    sim.mcast.start_sender(0, addr)
    run_s(sim, 1.0)
    cands = [
        {"path": [2, 1, 0], "stability": 0.9, "sender": 0, "pos": None},
        {"path": [4, 3, 0], "stability": 0.6, "sender": 0, "pos": None},
    ]
    sim.mcast.send_join_request(5, key, cands)
    run_s(sim, 1.0)
    sim.kernel.nodes[2].alive = False
    sim.kernel.rebuild_links()
    run_s(sim, 1.0)
    rec = sim.kernel.nodes[5].mcast.groups[key].receiver
    assert rec.active in rec.paths
    assert rec.active.path[0] == 4
    sim.mcast.send_data(0, addr, seq=42)
    run_s(sim, 1.0)
    assert delivered_seqs(sim, 5, key) == [42]


def test_local_recovery_splices_through_zone():
    # receiver 5 loses upstream 2; forwarder 4 (lower path, feeding receiver 6)
    # is inside 5's zone and already mesh-active, so 5 splices instead of failing
    pts = [[10.0, 200.0],
           [110.0, 260.0], [210.0, 260.0],
           [110.0, 140.0], [210.0, 140.0],
           [310.0, 200.0], [310.0, 80.0]]
    sim = make_sim(node_count=7, nodes=pts, radio={"range_m": 125.0},
                   zone={"radius_R": 1},
                   area={"width_m": 500.0, "height_m": 400.0},
                   rr={"grid_cols": 1, "grid_rows": 1})
    no_self_promotion(sim)
    run_s(sim, 2.0)
    addr = GroupAddress(0, 1)
    key = addr.key()
    sim.mcast.start_sender(0, addr)
    run_s(sim, 1.0)
    sim.mcast.send_join_request(5, key, [
        {"path": [2, 1, 0], "stability": 0.9, "sender": 0, "pos": None}])
    sim.mcast.send_join_request(6, key, [
        {"path": [4, 3, 0], "stability": 0.9, "sender": 0, "pos": None}])
    run_s(sim, 1.0)
    sim.kernel.nodes[2].alive = False
    sim.kernel.rebuild_links()
    run_s(sim, 1.0)
    repairs = [e for e in sim.kernel.trace_events if e[2] == "local_repair"]
    assert any(e[3]["ok"] for e in repairs)
    sim.mcast.send_data(0, addr, seq=7)
    run_s(sim, 1.0)
    assert delivered_seqs(sim, 5, key) == [7]
    assert delivered_seqs(sim, 6, key) == [7]


def test_failover_survives_reentry_through_forwarded_receiver():
    # receiver 3 holds [2, 1, 0] and [2, 5, 0] and forwards for receiver 4;
    # killing 2 breaks both at once, and walking the first off re-enters
    # _failover for 3, which walks the second off before the outer call does
    pts = [[10.0, 60.0], [110.0, 10.0], [210.0, 60.0], [310.0, 60.0],
           [410.0, 60.0], [110.0, 110.0]]
    sim = make_sim(node_count=6, nodes=pts, radio={"range_m": 120.0},
                   zone={"radius_R": 1},
                   area={"width_m": 500.0, "height_m": 200.0},
                   rr={"grid_cols": 1, "grid_rows": 1})
    no_self_promotion(sim)
    run_s(sim, 2.0)
    addr = GroupAddress(0, 1)
    key = addr.key()
    sim.mcast.start_sender(0, addr)
    run_s(sim, 1.0)
    sim.mcast.send_join_request(3, key, [
        {"path": [2, 1, 0], "stability": 0.9, "sender": 0, "pos": None},
        {"path": [2, 5, 0], "stability": 0.8, "sender": 0, "pos": None}])
    run_s(sim, 1.0)
    sim.mcast.send_join_request(4, key, [
        {"path": [3, 2, 1, 0], "stability": 0.9, "sender": 0, "pos": None}])
    run_s(sim, 1.0)
    rec = sim.kernel.nodes[3].mcast.groups[key].receiver
    assert [(p.path, p is rec.active) for p in rec.paths] == [
        ([2, 1, 0], True), ([2, 5, 0], False)]
    killed_us = sim.kernel.now_us
    sim.kernel.nodes[2].alive = False
    sim.kernel.rebuild_links()
    run_s(sim, 1.0)
    assert all(p.path[0] != 2 for p in rec.paths)
    assert rec.active is None or rec.active in rec.paths
    rejoins = [e for e in sim.kernel.trace_events
               if e[0] >= killed_us and e[1] == 3 and e[2] == "join_stage"
               and e[3]["stage"] == 1 and e[3]["status"] == "attempt"]
    assert len(rejoins) == 1


def test_total_partition_rejoins_pend():
    sim = diamond_sim()
    addr = GroupAddress(0, 1)
    key = addr.key()
    sim.mcast.start_sender(0, addr)
    run_s(sim, 1.0)
    sim.mcast.send_join_request(5, key, [
        {"path": [2, 1, 0], "stability": 0.9, "sender": 0, "pos": None}])
    run_s(sim, 1.0)
    for dead in (1, 2, 3, 4):
        sim.kernel.nodes[dead].alive = False
    sim.kernel.rebuild_links()
    run_s(sim, 3.0)
    rec = sim.kernel.nodes[5].mcast.groups[key].receiver
    assert rec.active is None
    assert not rec.resolved


def test_handoff_grafts_through_new_neighbor():
    sim = adv_line_sim(n=7, adv_ttl=8)
    addr = GroupAddress(0, 1)
    key = addr.key()
    sim.mcast.start_sender(0, addr)
    run_s(sim, 1.0)
    sim.mcast.receiver_join(5, addr)
    run_s(sim, 2.0)
    old_first = sim.kernel.nodes[5].mcast.groups[key].receiver.active.path[0]
    assert old_first == 4
    sim.kernel.nodes[5].x = 150.0   # jump next to forwarder 1
    sim.kernel.nodes[5].y = 10.0
    sim.kernel.rebuild_links()
    run_s(sim, 1.0)
    rec = sim.kernel.nodes[5].mcast.groups[key].receiver
    assert rec.active in rec.paths
    assert len(rec.active.path) == 1
    handoffs = [e for e in sim.kernel.trace_events if e[2] == "handoff"]
    assert handoffs and handoffs[0][1] == 5
    sim.mcast.send_data(0, addr, seq=3)
    run_s(sim, 1.0)
    assert delivered_seqs(sim, 5, key) == [3]


def test_handoff_noop_without_mesh_neighbor():
    sim = adv_line_sim(n=7, adv_ttl=8)
    addr = GroupAddress(0, 1)
    key = addr.key()
    sim.mcast.start_sender(0, addr)
    run_s(sim, 1.0)
    sim.mcast.receiver_join(3, addr)
    run_s(sim, 2.0)
    before = [list(p.path) for p in
              sim.kernel.nodes[3].mcast.groups[key].receiver.paths]
    sim.kernel.nodes[3].y = 95.0    # sideways: neighbor set shifts, no mesh there
    sim.kernel.rebuild_links()
    run_s(sim, 1.0)
    handoffs = [e for e in sim.kernel.trace_events if e[2] == "handoff"]
    assert handoffs == []


# -- popularity adaptation -------------------------------------------------------------------

def test_popularity_ratio_promotes():
    sim = adv_line_sim(n=6)
    sim.kernel.nodes[3].sds_capable = True
    key = (0, 1)
    sim.kernel.nodes[3].mcast.pop[key] = {
        "count": 5.0, "last_us": sim.kernel.now_us, "pending": True,
        "replies": {"members": {10, 11, 12, 13, 14, 15}, "sds": {20, 21}},
        "promoted": False}
    sim.mcast.popularity_update(3, key)
    assert key in sim.kernel.nodes[3].sds.local_groups
    promo = [e for e in sim.kernel.trace_events if e[2] == "pop_promote"]
    assert promo and promo[0][3]["pop"] == 3.0


def test_popularity_self_limits_with_many_sds():
    sim = adv_line_sim(n=6)
    sim.kernel.nodes[3].sds_capable = True
    key = (0, 1)
    sim.kernel.nodes[3].mcast.pop[key] = {
        "count": 5.0, "last_us": sim.kernel.now_us, "pending": True,
        "replies": {"members": {10, 11, 12, 13, 14, 15},
                    "sds": {20, 21, 22, 23, 24, 25}},
        "promoted": False}
    sim.mcast.popularity_update(3, key)
    assert key not in sim.kernel.nodes[3].sds.local_groups


# -- bootstrap --------------------------------------------------------------------------------

def test_bootstrap_empty_registry_returns_empty():
    sim = adv_line_sim(n=6)
    sim.rr.sds_on_promote(2, 0)    # registry server with nothing registered
    run_s(sim, 1.0)
    found = []
    sim.mcast.bootstrap_discover_sessions(4, on_done=found.append)
    run_s(sim, 2.0)
    assert found == [{}]


def test_second_bootstrap_ends_the_first_discovery():
    # no registry anywhere: every discovery runs its stages and backs off
    sim = make_sim(node_count=4, nodes=line_positions(4, 100.0),
                   radio={"range_m": 120.0}, zone={"radius_R": 2},
                   area={"width_m": 1200.0, "height_m": 100.0},
                   rr={"grid_cols": 1, "grid_rows": 1})
    no_self_promotion(sim)
    run_s(sim, 2.0)
    first = sim.mcast.bootstrap_discover_sessions(3)
    run_s(sim, 0.5)
    second = sim.mcast.bootstrap_discover_sessions(3)
    run_s(sim, 5.5)
    attempts = [e[0] for e in sim.kernel.trace_events
                if e[2] == "join_stage" and e[1] == 3 and e[3]["stage"] == 1
                and e[3]["status"] == "attempt"]
    assert first.resolved and not second.resolved
    # one attempt per bootstrap, then only the newest record backs off
    assert attempts == [2_000_000, 2_500_000, 6_054_000]


def test_bootstrap_discovers_registered_session():
    sim = make_sim(node_count=30, seed=13, duration_s=90.0,
                   area={"width_m": 600.0, "height_m": 600.0},
                   radio={"range_m": 200.0},
                   rr={"grid_cols": 1, "grid_rows": 1, "target_sds": 3})
    run_s(sim, 10.0)
    sim.rr.register_session(4, "news")
    run_s(sim, 5.0)
    addr = sim.kernel.nodes[4].sds.known_sessions["news"]
    found = []
    sim.mcast.bootstrap_discover_sessions(17, on_done=found.append)
    run_s(sim, 4.0)
    assert found and found[0].get("news") == addr


def test_scope_ttl_caps_advertisement_reach():
    sim = adv_line_sim(n=8, adv_ttl=5)
    addr = GroupAddress(0, 1)
    sim.mcast.start_sender(0, addr, scope_ttl=1)
    run_s(sim, 1.0)
    caches = [nid for nid in sim.kernel.nodes
              if 0 in sim.kernel.nodes[nid].mcast.adv_cache.get(addr.key(), {})]
    assert caches == [1]   # one hop only, despite adv_ttl=5


def test_second_sender_shares_the_mesh():
    sim = adv_line_sim(n=5, adv_ttl=6)
    addr = GroupAddress(0, 1)
    key = addr.key()
    sim.mcast.start_sender(0, addr)
    run_s(sim, 1.0)
    sim.mcast.receiver_join(4, addr)
    run_s(sim, 2.0)
    # node 2 sits on the active mesh; its data follows the active links both ways
    sim.mcast.send_data(2, addr, seq=55)
    run_s(sim, 1.0)
    assert delivered_seqs(sim, 4, key) == [55]


def test_bootstrap_resolves_locally_once_cached():
    sim = make_sim(node_count=30, seed=13, duration_s=90.0,
                   area={"width_m": 600.0, "height_m": 600.0},
                   radio={"range_m": 200.0},
                   rr={"grid_cols": 1, "grid_rows": 1, "target_sds": 3})
    run_s(sim, 10.0)
    sim.rr.register_session(4, "news")
    run_s(sim, 5.0)
    found = []
    sim.mcast.bootstrap_discover_sessions(17, on_done=found.append)
    run_s(sim, 4.0)
    assert found
    # node 17 now caches the registry; a neighbor's bootstrap resolves off it
    nbr = sorted(sim.kernel.neighbors(17))[0]
    mark = len(sim.kernel.trace_events)
    found2 = []
    sim.mcast.bootstrap_discover_sessions(nbr, on_done=found2.append)
    run_s(sim, 4.0)
    assert found2 and found2[0] == found[0]
    hops = [e[3].get("hops") for e in sim.kernel.trace_events[mark:]
            if e[2] == "join_stage" and e[1] == nbr
            and e[3]["status"] == "success"]
    assert hops and hops[0] <= 2 * sim.zone.config.radius_R
