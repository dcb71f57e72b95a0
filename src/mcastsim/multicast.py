"""Multicast service: sender push (Adv with backward learning), staged receiver
pull (zone SDS, contacts, local member broadcast, RR fallback), mesh forwarding
with exactly-one-active upstream per receiver, local recovery and handoff, and
popularity-driven local SDS promotion.

Mesh state is kept per (node, group) as refcounted links: a link carries the
set of receiver ids whose active path traverses it (down toward the member,
up toward the sender) plus standby sets for precomputed alternate paths. A
link is active exactly while an active reference exists, so the no-black-hole
rule (members below imply an active branch) holds by construction, and a leave
deactivates branches exactly as the emptied subtree unwinds.

A member holds one Receiver record per group: its staged discovery, its
candidate upstream paths and a reference to the one path that carries data, so
a receiver cannot have two active upstreams. The record lives exactly as long
as the membership; a leave drops it and ends its discovery. Bootstrap session
discovery runs on a Receiver of its own, outside any group.
"""

from .kernel import (US, ADV, BRANCH_BREAK, DATA, GROUP_QUERY,
                     GROUP_QUERY_REPLY, JOIN_QUERY, JOIN_REPLY, JOIN_REQUEST,
                     MESH_LEAVE, SDS_ADVERT, reverse_route)
from .rendezvous import GeoGrid, GroupAddress, WELL_KNOWN_PREFIX


def senders_detail(senders):
    """Discovery answer listing SDS sender records (no stability known)."""
    return {"senders": {sid: {"pos": m["pos"], "route": m["route"], "stab": None}
                        for sid, m in senders.items()}}


class Link:
    """One mesh adjacency for a group at a node."""

    __slots__ = ("down_members", "up_for", "standby_down", "standby_up", "last_us")

    def __init__(self, now_us):
        self.down_members = set()   # receiver ids actively served below via this peer
        self.up_for = set()         # receiver ids whose active path continues above
        self.standby_down = set()
        self.standby_up = set()
        self.last_us = now_us

    def active(self):
        return bool(self.down_members) or bool(self.up_for)

    def empty(self):
        return not (self.down_members or self.up_for or self.standby_down
                    or self.standby_up)


class Upstream:
    """One of a receiver's candidate paths toward the mesh (first hop first)."""

    __slots__ = ("path", "stability")

    def __init__(self, path, stability):
        self.path = path
        self.stability = stability


class Receiver:
    """A member's discovery and upstream paths, or a bootstrap's discovery.

    resolved is True while no discovery runs (none started, answered, or the
    member left); every scheduled stage callback checks waiting_at before acting.
    """

    __slots__ = ("nid", "key", "query_kind", "stage", "attempts", "timer",
                 "resolved", "on_sessions", "paths", "active")

    def __init__(self, nid, key, query_kind):
        self.nid = nid                 # the member, or the bootstrapping node
        self.key = key
        self.query_kind = query_kind   # "group_info" or "session_registry"
        self.stage = 0
        self.attempts = 0
        self.timer = None
        self.resolved = True
        self.on_sessions = None
        self.paths = []                # Upstream candidates
        self.active = None             # the one of paths that carries data

    def waiting_at(self, stage):
        """True while the discovery runs and waits for an answer at stage."""
        return not self.resolved and self.stage == stage

    def upstream(self, path):
        """The candidate whose path equals path, or None (paths are unique)."""
        for p in self.paths:
            if p.path == path:
                return p
        return None

    def best_standby(self, live):
        """The most stable, then shortest, inactive path of live; the earliest on ties."""
        return min((p for p in live if p is not self.active),
                   key=lambda p: (-p.stability, len(p.path)), default=None)


class MeshEntry:
    __slots__ = ("roles", "links", "receiver", "seen_data", "adv_seq")

    def __init__(self):
        self.roles = set()          # {"sender", "forwarder"}
        self.links = {}             # peer -> Link
        self.receiver = None        # Receiver while this node is a member
        self.seen_data = set()      # (src, seq)
        self.adv_seq = 0


class McastState:
    def __init__(self):
        self.groups = {}        # group key -> MeshEntry
        self.adv_cache = {}     # group key -> {sender -> {"path","stab","t_us","pos"}}
        self.bootstrap = None   # Receiver of the latest session discovery
        self.pop = {}           # group key -> popularity bookkeeping
        self.seen = set()       # pids of the zone floods handled here


class MulticastService:
    def __init__(self, kernel, config, zone_mgr, contacts_mgr, rendezvous_mgr,
                 mobility_mgr):
        self.kernel = kernel
        self.config = config
        self.zone = zone_mgr
        self.contacts = contacts_mgr
        self.rr = rendezvous_mgr
        self.mobility = mobility_mgr
        R = zone_mgr.config.radius_R
        lat = kernel.latency_us / US
        self._stage_timeouts = {
            1: 4 * R * lat + 0.05,
            2: 4 * (2 * R + 1) * lat + 0.05,
            3: 2 * R * lat + 0.05,
            4: config.stage_rr_timeout_s,
        }
        self.mesh_nodes = {}     # group key -> set of node ids holding entries
        for node in kernel.nodes.values():
            node.mcast = McastState()
        kernel.register_handler(ADV, self._on_adv)
        kernel.register_handler(JOIN_QUERY, self._on_join_query)
        kernel.register_handler(JOIN_REQUEST, self._on_join_request)
        kernel.register_handler(MESH_LEAVE, self._on_mesh_walk)
        kernel.register_handler(BRANCH_BREAK, self._on_branch_break)
        kernel.register_handler(DATA, self._on_data)
        kernel.register_handler(GROUP_QUERY, self._on_group_query)
        kernel.register_handler(GROUP_QUERY_REPLY, self._on_answer)
        kernel.register_handler(JOIN_REPLY, self._on_answer)
        kernel.register_handler(SDS_ADVERT, self._on_local_sds_advert)
        kernel.on_link_change(self._on_link_change)
        zone_mgr.register_evaluator("group_info", self._eval_group_info)
        zone_mgr.register_evaluator("session_registry", self._eval_session_registry)
        rendezvous_mgr.register_rr_handler("join_query", self._rr_join_query)
        rendezvous_mgr.register_rr_handler("rr_update", self._rr_sender_update)
        rendezvous_mgr.register_rr_handler("group_sync", self._rr_group_sync)
        rendezvous_mgr.register_rr_handler("session_query", self._rr_session_query)

    def start(self):
        self.kernel.schedule_in(int(self.config.adv_period_s * US),
                                self._maintenance)

    # -- state helpers -----------------------------------------------------------

    def entry(self, nid, key, create=False):
        groups = self.kernel.nodes[nid].mcast.groups
        ent = groups.get(key)
        if ent is None and create:
            ent = MeshEntry()
            groups[key] = ent
            self.mesh_nodes.setdefault(key, set()).add(nid)
        return ent

    def _gc_entry(self, nid, key):
        ent = self.kernel.nodes[nid].mcast.groups.get(key)
        if ent is None:
            return
        for peer in [p for p, l in ent.links.items() if l.empty()]:
            del ent.links[peer]
        if not ent.links and not ent.roles and ent.receiver is None:
            del self.kernel.nodes[nid].mcast.groups[key]
            self.mesh_nodes.get(key, set()).discard(nid)

    def mesh_active(self, nid, key):
        ent = self.kernel.nodes[nid].mcast.groups.get(key)
        if ent is None:
            return False
        if "sender" in ent.roles:
            return True
        return any(l.active() for l in ent.links.values())

    def _link(self, nid, key, peer):
        ent = self.entry(nid, key, create=True)
        link = ent.links.get(peer)
        if link is None:
            link = Link(self.kernel.now_us)
            ent.links[peer] = link
        return link

    # -- zone-scoped floods: Advs, the stage-3 member query, the popularity query
    # and local-SDS adverts. A node handles each flooded packet once; the handler
    # works on its own copy, with itself recorded, and rebroadcasts that copy
    # (the one copy per flood hop).

    def _flood_out(self, nid, kind, ttl, payload):
        pkt = self.kernel.new_packet(kind, nid, ttl, payload)
        self.kernel.nodes[nid].mcast.seen.add(pkt.pid)
        self.kernel.transmit(nid, pkt)

    def _flood_in(self, nid, pkt):
        """nid's recorded copy of a flooded packet, or None when already seen."""
        seen = self.kernel.nodes[nid].mcast.seen
        if pkt.pid in seen:
            return None
        seen.add(pkt.pid)
        pkt = pkt.hop_copy()
        pkt.path_record.append(nid)
        return pkt

    # -- sender side ----------------------------------------------------------------

    def start_sender(self, nid, addr, scope_ttl=None):
        """Make nid an advertising sender of the group (idempotent)."""
        key = addr.key()
        ent = self.entry(nid, key, create=True)
        if "sender" in ent.roles:
            return
        ent.roles.add("sender")
        self._advertise(nid, key, first=True, scope_ttl=scope_ttl)

    def _advertise(self, nid, key, first=False, scope_ttl=None):
        node = self.kernel.nodes[nid]
        if not node.alive:
            return
        ent = self.kernel.nodes[nid].mcast.groups.get(key)
        if ent is None or "sender" not in ent.roles:
            return
        ent.adv_seq += 1
        ttl = min(self.config.adv_ttl, scope_ttl) if scope_ttl else self.config.adv_ttl
        payload = {"group": list(key), "sender": nid, "seq": ent.adv_seq,
                   "pos": node.pos(), "stab": 1.0}
        self.kernel.trace(nid, "adv_send", {"g": list(key), "seq": ent.adv_seq})
        self._flood_out(nid, ADV, ttl, payload)
        rect = self.rr.grid.rect_of_prefix(key[0])
        dist = GeoGrid.distance_to_rect(node.pos(), rect)
        if first or dist > self.rr.config.l_limit_m:
            self.rr.lar_send(nid, key[0], "rr_update",
                             {"group": list(key), "sender": nid, "pos": node.pos()})
        self.kernel.schedule_in(int(self.config.adv_period_s * US),
                                self._advertise, nid, key, False, scope_ttl)

    def _on_adv(self, nid, pkt, rx_power, sender):
        pkt = self._flood_in(nid, pkt)
        if pkt is None:
            return
        key = tuple(pkt.payload["group"])
        origin = pkt.payload["sender"]
        stab = min(pkt.payload["stab"], self.mobility.stability(nid, sender))
        route = reverse_route(pkt.path_record, origin)
        cache = self.kernel.nodes[nid].mcast.adv_cache.setdefault(key, {})
        cache[origin] = {"path": route, "stab": stab, "t_us": self.kernel.now_us,
                         "pos": tuple(pkt.payload["pos"])}
        sds = self.kernel.nodes[nid].sds
        if key[0] in sds.prefixes or key in sds.local_groups:
            self.rr.record_sender(nid, key, origin, pkt.payload["pos"], route)
        self._pop_observe(nid, key)
        pkt.payload = dict(pkt.payload, stab=stab)
        self.kernel.forward(nid, pkt, None)

    # -- receiver discovery ------------------------------------------------------------

    def receiver_join(self, nid, addr):
        """Run the staged discovery and join the group; progress is async."""
        key = addr.key()
        ent = self.entry(nid, key, create=True)
        rec = ent.receiver
        if rec is not None and not rec.resolved:
            return rec
        if rec is None:
            rec = ent.receiver = Receiver(nid, key, "group_info")
        rec.attempts = 0
        self.contacts.record_discovery(nid)
        self._discover(rec)
        return rec

    def bootstrap_discover_sessions(self, nid, on_done=None):
        """Discover active sessions via the well-known session-advertisement group."""
        rec = Receiver(nid, (WELL_KNOWN_PREFIX, 0), "session_registry")
        rec.on_sessions = on_done
        state = self.kernel.nodes[nid].mcast
        if state.bootstrap is not None:
            state.bootstrap.resolved = True   # the newest discovery replaces it
        state.bootstrap = rec
        self.contacts.record_discovery(nid)
        self._discover(rec)
        return rec

    def _discover(self, rec):
        """Start the staged discovery from stage 1; attempts sets the backoff."""
        rec.stage = 0
        rec.resolved = False
        self._stage_advance(rec)

    def _trace_stage(self, rec, status, **extra):
        self.kernel.trace(rec.nid, "join_stage",
                          {"g": list(rec.key), "stage": rec.stage, "status": status,
                           "q": rec.query_kind, **extra})

    def _stage_advance(self, rec):
        """Run the stages after rec.stage until one sends a query and arms its
        timer; after stage 4, back off and start over from stage 1."""
        if rec.resolved or not self.kernel.nodes[rec.nid].alive:
            return
        rec.stage += 1
        while rec.stage <= 4:
            stage = rec.stage
            self._trace_stage(rec, "attempt")
            run = (self._stage_zone, self._stage_contacts, self._stage_local,
                   self._stage_rr)[stage - 1]
            if run(rec):
                rec.timer = self.kernel.schedule_in(
                    int(self._stage_timeouts[stage] * US), self._stage_timeout,
                    rec, stage)
                return
            if not rec.waiting_at(stage):
                return  # answered without a query; _stage_success took over
            self._trace_stage(rec, "miss")
            rec.stage += 1
        self._trace_stage(rec, "pending")
        backoff = min(self.config.join_backoff_s * (2 ** rec.attempts),
                      self.config.join_max_backoff_s)
        rec.attempts += 1
        rec.stage = 0
        self.kernel.schedule_in(int(backoff * US), self._stage_advance, rec)

    def _stage_timeout(self, rec, stage):
        if rec.waiting_at(stage):
            self._trace_stage(rec, "timeout")
            self._stage_advance(rec)

    def _stage_zone(self, rec):
        nid, key = rec.nid, rec.key
        if rec.query_kind == "group_info":
            detail = self._local_group_info(nid, key)
        else:
            detail = self._eval_session_registry(nid)
        if detail is not None:
            self._stage_success(rec, detail, [])
            return False
        sds = self._known_zone_sds(nid, key)
        route = self.zone.intra_zone_route(nid, sds) if sds is not None else None
        if not route:
            return False
        pred = {"kind": rec.query_kind, "group": key}
        payload = {"pred": pred, "origin": nid, "join_key": list(key),
                   "stage": rec.stage}
        self.kernel.source_route(nid, GROUP_QUERY, route, payload)
        return True

    def _local_group_info(self, nid, key):
        """Stage-1 knowledge: own adv cache, then own SDS records."""
        cache = self._live_adv_senders(nid, key)
        if cache:
            return {"senders": {sid: {"pos": meta["pos"], "route": meta["path"],
                                      "stab": meta["stab"]}
                                for sid, meta in cache.items()}}
        sds = self.kernel.nodes[nid].sds
        if key[0] in sds.prefixes or key in sds.local_groups:
            senders = self.rr.live_senders(nid, key)
            if senders:
                return senders_detail(senders)
        return None

    def _live_adv_senders(self, nid, key):
        cache = self.kernel.nodes[nid].mcast.adv_cache.get(key, {})
        horizon = self.kernel.now_us - int(self.config.member_expiry_s * US)
        return {sid: m for sid, m in cache.items() if m["t_us"] >= horizon}

    def _known_zone_sds(self, nid, key):
        node = self.kernel.nodes[nid]
        members = node.zone.table.members
        horizon = self.kernel.now_us - int(self.rr.config.peer_ttl_s * US)
        local = node.sds.known_local_sds.get(key, {})
        for sid in sorted(local):
            if local[sid] >= horizon and sid in members:
                return sid
        detail = self.zone.evaluate(nid, {"kind": "sds_for", "prefix": key[0]})
        if detail is not None and detail["sds"] != nid:
            return detail["sds"]
        return None

    def _stage_contacts(self, rec):
        if not self.kernel.nodes[rec.nid].contacts.entries:
            return False
        pred = {"kind": rec.query_kind, "group": rec.key}
        stage = rec.stage

        def on_reply(detail, qpath):
            if rec.waiting_at(stage):
                self._stage_success(rec, detail, qpath)

        self.contacts.contact_query(rec.nid, pred, on_reply,
                                    timeout_s=self._stage_timeouts[2])
        return True

    def _stage_local(self, rec):
        R = self.zone.config.radius_R
        payload = {"group": list(rec.key), "origin": rec.nid, "stab": 1.0,
                   "q": rec.query_kind, "stage": rec.stage}
        self._flood_out(rec.nid, JOIN_QUERY, R, payload)
        return True

    def _stage_rr(self, rec):
        kind = "join_query" if rec.query_kind == "group_info" else "session_query"
        self.rr.lar_send(rec.nid, rec.key[0], kind,
                         {"group": list(rec.key), "origin": rec.nid,
                          "stage": rec.stage})
        return True

    def _stage_success(self, rec, detail, query_path):
        if rec.resolved:
            return
        if rec.timer is not None:
            self.kernel.cancel(rec.timer)
        if rec.query_kind == "group_info":
            candidates = self._candidates_from_detail(rec.nid, detail, query_path)
            if self.send_join_request(rec.nid, rec.key, candidates) == 0:
                # the answer offered nothing joinable (e.g. stale paths); keep looking
                self._trace_stage(rec, "unusable")
                self._stage_advance(rec)
                return
        rec.resolved = True
        self._trace_stage(rec, "success", hops=len(query_path))
        if rec.query_kind == "session_registry":
            sessions = detail.get("sessions", {})
            for name, meta in sessions.items():
                self.kernel.nodes[rec.nid].sds.announcements.setdefault(name, dict(meta))
            if rec.on_sessions is not None:
                rec.on_sessions({name: GroupAddress(*meta["addr"])
                                 for name, meta in sessions.items()})

    # -- query evaluation (runs at remote nodes) --------------------------------------

    def _eval_group_info(self, nid, pred):
        key = tuple(pred["group"])
        detail = self._local_group_info(nid, key)
        if detail is not None:
            return detail
        if self.mesh_active(nid, key):
            return {"graft": nid}
        return None

    def _eval_session_registry(self, nid, pred=None):
        ann = self.kernel.nodes[nid].sds.announcements
        if not ann:
            return None
        return {"sessions": {name: dict(meta) for name, meta in sorted(ann.items())}}

    def _on_group_query(self, receivers, pkt, rx_power, sender):
        """A popularity-query flood, heard by receivers, or a source-routed
        stage query at its one receiver."""
        if pkt.payload.get("q") == "pop":
            self._flood_pop_query(receivers, pkt)
            return
        nid, = receivers
        if self.kernel.relay(nid, pkt):
            return
        self.contacts.record_discovery(nid)
        detail = self.zone.evaluate(nid, pkt.payload["pred"])
        if detail is None:
            return
        self._answer(nid, pkt, GROUP_QUERY_REPLY, pkt.payload, detail,
                     pkt.payload.get("join_key"))

    def _reply(self, nid, query, kind, inner, origin):
        """Answer query at origin; reply handlers read payload["inner"]."""
        self.kernel.source_reply(nid, query, kind, {"inner": inner}, origin)

    def _answer(self, nid, query, kind, asked, detail, join_key, **extra):
        """Discovery answer for the join waiting at the stage the query asked
        for; asked is the query's payload (or its RR inner) with "origin"."""
        inner = {"detail": detail, "join_key": join_key, **extra,
                 "stage": asked.get("stage"), "qpath": list(query.path_record)}
        self._reply(nid, query, kind, inner, asked["origin"])

    def _on_answer(self, nid, pkt, rx_power, sender):
        """Group-query and join replies: popularity, group sync, probe, discovery."""
        if self.kernel.relay(nid, pkt):
            return
        inner = pkt.payload["inner"]
        key = tuple(inner["join_key"]) if inner.get("join_key") else None
        if inner.get("pop") is not None:
            self._collect_pop_reply(nid, key, inner["pop"])
        elif inner.get("sync_for") is not None:
            self._absorb_group_sync(nid, key, inner["detail"])
        elif inner.get("probe"):
            self._probe_result(nid, key, inner)
        else:
            self._resume_join(nid, key, inner)

    def _resume_join(self, nid, key, inner):
        """Hand a discovery answer to the discovery still waiting at its stage."""
        state = self.kernel.nodes[nid].mcast
        ent = state.groups.get(key)
        for rec in (ent and ent.receiver, state.bootstrap):
            if rec is not None and rec.key == key and rec.waiting_at(inner.get("stage")):
                self._stage_success(rec, inner["detail"], inner.get("qpath", []))
                return

    def _on_join_query(self, nid, pkt, rx_power, sender):
        if pkt.payload.get("q") == "probe":
            self._probe_step(nid, pkt, sender)
            return
        pkt = self._flood_in(nid, pkt)
        if pkt is None:
            return
        self.contacts.record_discovery(nid)
        key = tuple(pkt.payload["group"])
        stab = min(pkt.payload["stab"], self.mobility.stability(nid, sender))
        if pkt.payload["q"] == "group_info":
            self._pop_observe(nid, key)
        detail = self.zone.evaluate(nid, {"kind": pkt.payload["q"], "group": key})
        if detail is not None:
            self._answer(nid, pkt, GROUP_QUERY_REPLY, pkt.payload, detail,
                         list(key), stab=stab)
            return
        pkt.payload = dict(pkt.payload, stab=stab)
        self.kernel.forward(nid, pkt, None)

    def _rr_join_query(self, nid, pkt):
        inner = pkt.payload["inner"]
        key = tuple(inner["group"])
        senders = self.rr.live_senders(nid, key)
        if senders:
            detail = senders_detail(senders)
        elif self.mesh_active(nid, key):
            detail = {"graft": nid}
        else:
            return  # nothing to offer; the querier times out and retries
        self._answer(nid, pkt, JOIN_REPLY, inner, detail, list(key))

    def _rr_sender_update(self, nid, pkt):
        inner = pkt.payload["inner"]
        self.rr.record_sender(nid, tuple(inner["group"]), inner["sender"],
                              inner["pos"], None)

    def _rr_session_query(self, nid, pkt):
        inner = pkt.payload["inner"]
        detail = self._eval_session_registry(nid) or {"sessions": {}}
        self._answer(nid, pkt, JOIN_REPLY, inner, detail, list(inner["group"]))

    # -- join requests and mesh construction -------------------------------------------

    def _candidates_from_detail(self, nid, detail, query_path):
        out = []
        to_replier = list(query_path)
        if detail.get("graft") is not None:
            graft = detail["graft"]
            path = [graft] if graft in self.kernel.neighbors(nid) else to_replier
            if path:
                out.append({"path": path, "stability": detail.get("stab", 0.5),
                            "sender": None, "pos": None})
        for sid in sorted(detail.get("senders", {})):
            meta = detail["senders"][sid]
            stab = meta.get("stab")
            path = None
            if meta.get("route"):
                path = to_replier + list(meta["route"])
                if len(set(path)) != len(path) or nid in path:
                    path = None
            out.append({"path": path,
                        "stability": stab if stab is not None else 0.5,
                        "sender": sid,
                        "pos": tuple(meta["pos"]) if meta.get("pos") else None})
        return out

    def send_join_request(self, nid, key, candidates):
        """Join along up to max_paths candidates; the most stable one is active."""
        floor = self.config.route_quality_floor
        concrete = []
        probes = []
        for c in candidates:
            if c["path"] and c["stability"] >= floor:
                concrete.append(c)
            elif c["pos"] is not None:
                probes.append(c)
        concrete.sort(key=lambda c: (-c["stability"], len(c["path"]), tuple(c["path"])))
        ent = self.entry(nid, key, create=True)
        if ent.receiver is None:
            ent.receiver = Receiver(nid, key, "group_info")
        rec = ent.receiver
        launched = 0
        if concrete:
            picked = concrete[:self.config.max_paths]
            self.kernel.trace(nid, "join_request",
                              {"g": list(key), "n": len(picked)})
            for c in picked:
                want_active = launched == 0 and rec.active is None
                if self._install_upstream(rec, c["path"], c["stability"],
                                          active=want_active):
                    launched += 1
        if launched:
            return launched
        seen_senders = set()
        for c in probes:
            if c["sender"] in seen_senders:
                continue
            seen_senders.add(c["sender"])
            if len(seen_senders) > self.config.max_paths:
                break
            self._send_probe(nid, key, c["sender"], c["pos"])
            launched += 1
        return launched

    def _install_upstream(self, rec, path, stability, active):
        """Record a candidate path at the receiver and walk a join along it.

        Returns False when the path is unusable (first hop not adjacent)."""
        nid, key = rec.nid, rec.key
        if not path or not self.kernel.are_neighbors(nid, path[0]):
            return False
        path = list(path)
        known = rec.upstream(path)
        if known is not None:
            if active and known is not rec.active:
                self._activate_path(rec, known)
            return True
        up = Upstream(path, stability)
        rec.paths.append(up)
        if active:
            rec.active = up
            self.kernel.trace(nid, "branch_activate",
                              {"g": list(key), "via": path[0]})
        self._walk_join(nid, key, path, nid, active)
        return True

    def _mark_link(self, nid, key, peer, r, active, up):
        """Record receiver r on the link to peer: active or standby, up or down."""
        link = self._link(nid, key, peer)
        if up:
            (link.up_for if active else link.standby_up).add(r)
        else:
            (link.down_members if active else link.standby_down).add(r)
        link.last_us = self.kernel.now_us

    def _walk_join(self, nid, key, path, r, active):
        """Mark the first hop up for receiver r and walk a join along path."""
        self._mark_link(nid, key, path[0], r, active, up=True)
        payload = {"group": list(key), "receiver": r, "active": active}
        self.kernel.source_route(nid, JOIN_REQUEST, path, payload)

    def _on_join_request(self, nid, pkt, rx_power, sender):
        key = tuple(pkt.payload["group"])
        r = pkt.payload["receiver"]
        active = pkt.payload["active"]
        prev, nxt = self.kernel.route_hop(nid, pkt)
        self._mark_link(nid, key, prev, r, active, up=False)
        ent = self.entry(nid, key)
        if not (ent.roles or ent.receiver):
            ent.roles.add("forwarder")
        if nxt is None:
            self._ensure_upstream(nid, key)
            return
        self._mark_link(nid, key, nxt, r, active, up=True)
        if self.kernel.are_neighbors(nid, nxt):
            self.kernel.forward(nid, pkt, nxt)
        else:
            self.kernel.schedule_in(0, self._notify_join_break, r, key,
                                    list(pkt.payload["route"]))

    def _notify_join_break(self, receiver, key, route):
        """A join walk hit a vanished hop: discard the branch at the receiver."""
        node = self.kernel.nodes.get(receiver)
        if node is None:
            return
        ent = node.mcast.groups.get(key)
        rec = ent and ent.receiver
        dead = rec and rec.upstream(route)
        if dead is None:
            return
        if self._walk_off(rec, dead):
            self._failover(rec)

    # -- mesh walks: explicit-route mark moves ------------------------------------------

    def _walk_mode(self, nid, key, path, mode):
        """Apply a mark move locally then walk it along the explicit path."""
        if not path:
            return
        self._apply_mode(nid, key, nid, mode, prev=None, nxt=path[0])
        payload = {"group": list(key), "receiver": nid, "mode": mode}
        self.kernel.source_route(nid, MESH_LEAVE, path, payload)

    def _on_mesh_walk(self, nid, pkt, rx_power, sender):
        r = pkt.payload["receiver"]
        key = tuple(pkt.payload["group"])
        mode = pkt.payload["mode"]
        if mode == "ref_leave":
            ent = self.kernel.nodes[nid].mcast.groups.get(key)
            if ent is None:
                return
            link = ent.links.get(sender)
            if link is not None:
                link.down_members.discard(r)
                link.standby_down.discard(r)
            self._ref_leave_up(nid, key, r)
            return
        prev, nxt = self.kernel.route_hop(nid, pkt)
        self._apply_mode(nid, key, r, mode, prev=prev, nxt=nxt)
        if nxt is not None and self.kernel.are_neighbors(nid, nxt):
            self.kernel.forward(nid, pkt, nxt)

    def _apply_mode(self, nid, key, r, mode, prev, nxt):
        ent = self.kernel.nodes[nid].mcast.groups.get(key)
        if ent is None:
            return
        def move(link, down):
            was = link.active()
            act = link.down_members if down else link.up_for
            sby = link.standby_down if down else link.standby_up
            if mode == "upgrade":
                sby.discard(r)
                act.add(r)
            elif mode == "downgrade":
                act.discard(r)
                sby.add(r)
            elif mode == "leave_path":
                act.discard(r)
                sby.discard(r)
            if was and not link.active():
                self.kernel.trace(nid, "branch_deactivate", {"g": list(key)})
            elif not was and link.active():
                self.kernel.trace(nid, "branch_activate", {"g": list(key)})
        if prev is not None and prev in ent.links:
            move(ent.links[prev], down=True)
        if nxt is not None:
            if mode == "upgrade":
                move(self._link(nid, key, nxt), down=False)
            elif nxt in ent.links:
                move(ent.links[nxt], down=False)
        self._gc_entry(nid, key)
        if mode in ("downgrade", "leave_path"):
            self._ensure_upstream(nid, key)

    def receiver_leave(self, nid, addr):
        """Drop the membership: its paths are walked off, its discovery ends."""
        key = addr.key()
        ent = self.kernel.nodes[nid].mcast.groups.get(key)
        rec = ent and ent.receiver
        if rec is not None:
            ent.receiver = None
            rec.resolved = True
            for p in list(rec.paths):
                self._walk_off(rec, p)
        self._gc_entry(nid, key)

    def _walk_off(self, rec, up):
        """Forget candidate path up and walk its marks off; True if it was active."""
        rec.paths.remove(up)
        was_active = up is rec.active
        if was_active:
            rec.active = None
        self._walk_mode(rec.nid, rec.key, up.path, "leave_path")
        return was_active

    def _activate_path(self, rec, up):
        """Make-before-break switch of the receiver's active upstream path."""
        nid, key = rec.nid, rec.key
        old, rec.active = rec.active, up
        self._walk_mode(nid, key, up.path, "upgrade")
        self.kernel.trace(nid, "branch_activate", {"g": list(key), "via": up.path[0]})
        if old is not None and old is not up:
            self._walk_mode(nid, key, old.path, "downgrade")

    # -- data plane -----------------------------------------------------------------

    def send_data(self, nid, addr, seq, size=512):
        key = addr.key()
        ent = self.entry(nid, key, create=True)
        if "sender" not in ent.roles:
            self.start_sender(nid, addr)
        payload = {"group": list(key), "src": nid, "seq": seq, "size": size}
        self.kernel.trace(nid, "data_send", {"g": list(key), "seq": seq})
        pkt = self.kernel.new_packet(DATA, nid, self.config.data_ttl, payload)
        self.forward_data(nid, pkt, arrival_from=None)

    def _on_data(self, nid, pkt, rx_power, sender):
        self.forward_data(nid, pkt, arrival_from=sender)

    def forward_data(self, nid, pkt, arrival_from):
        """Deliver locally and copy along every other active mesh link (deduped)."""
        key = tuple(pkt.payload["group"])
        ent = self.kernel.nodes[nid].mcast.groups.get(key)
        if ent is None:
            return 0
        dd = (pkt.payload["src"], pkt.payload["seq"])
        if dd in ent.seen_data:
            return 0
        ent.seen_data.add(dd)
        if ent.receiver is not None and nid != pkt.payload["src"]:
            self.kernel.trace(nid, "data_deliver",
                              {"g": list(key), "src": pkt.payload["src"],
                               "seq": pkt.payload["seq"]})
        if pkt.ttl_hops <= 1:
            return 0
        copies = 0
        for peer in sorted(ent.links):
            if peer != arrival_from and ent.links[peer].active():
                self.kernel.forward(nid, pkt.hop_copy(), peer)
                copies += 1
        return copies

    # -- recovery and handoff ----------------------------------------------------------

    def _on_link_change(self, nid, added, removed):
        node = self.kernel.nodes[nid]
        if node.mcast is None or not node.alive:
            return
        state = node.mcast
        for key in sorted(state.groups):
            ent = state.groups.get(key)
            if ent is None:
                continue
            for peer in removed:
                link = ent.links.get(peer)
                if link is None:
                    continue
                if link.up_for or (ent.receiver is not None and link.standby_up):
                    self.local_recovery(nid, key, peer)
                elif link.down_members:
                    self._upstream_side_break(nid, key, peer)
                else:
                    del ent.links[peer]
                    self._gc_entry(nid, key)
            ent = state.groups.get(key)
            if ent is not None and ent.receiver is not None:
                for peer in added:
                    self.handoff_on_move(nid, key, peer)
                if added or removed:
                    self.kernel.trace(nid, "mesh_distance",
                                      {"g": list(key),
                                       "hops": self._hops_to_mesh(nid, key)})

    def local_recovery(self, nid, key, broken_peer):
        """Active upstream vanished: splice to a zone mesh node or fail over."""
        ent = self.kernel.nodes[nid].mcast.groups.get(key)
        if ent is None:
            return "failed"
        self._drop_up_marks(ent, broken_peer)
        subtree = set().union(*(l.down_members for l in ent.links.values()))
        if ent.receiver is not None:
            subtree.add(nid)
        patch, route = self._find_zone_splice(nid, key,
                                              exclude={broken_peer} | subtree | {nid})
        if patch is not None:
            for r in sorted(subtree):
                self._walk_join(nid, key, route, r, active=True)
            self.kernel.trace(nid, "local_repair",
                              {"g": list(key), "ok": True, "via": patch})
            return "repaired"
        self.kernel.trace(nid, "local_repair", {"g": list(key), "ok": False})
        if ent.receiver is not None:
            self._failover(ent.receiver)
        for peer in sorted(ent.links):
            l = ent.links[peer]
            if l.down_members and self.kernel.are_neighbors(nid, peer):
                pkt = self.kernel.new_packet(BRANCH_BREAK, nid, 2,
                                             {"group": list(key)}, dst=peer)
                self.kernel.transmit(nid, pkt)
        return "failed"

    @staticmethod
    def _drop_up_marks(ent, peer):
        """Forget the upstream marks on the link to peer; drop it once empty."""
        link = ent.links.get(peer)
        if link is not None:
            link.up_for.clear()
            link.standby_up.clear()
            if link.empty():
                del ent.links[peer]

    def _find_zone_splice(self, nid, key, exclude):
        """Nearest mesh-active zone member with a route that still probes through."""
        members = self.kernel.nodes[nid].zone.table.members
        for m in sorted(members):
            if m in exclude:
                continue
            mn = self.kernel.nodes.get(m)
            if mn is None or not mn.alive:
                continue
            if not self.mesh_active(m, key):
                continue
            route = self.zone.intra_zone_route(nid, m)
            if route and self.kernel.route_intact(nid, route):
                return m, route
        return None, None

    def _upstream_side_break(self, nid, key, peer):
        """Downstream subtree detached; clear its marks from our up-chain."""
        ent = self.kernel.nodes[nid].mcast.groups.get(key)
        link = ent.links.get(peer)
        if link is None:
            return
        ids = sorted(link.down_members | link.standby_down)
        del ent.links[peer]
        for r in ids:
            self._ref_leave_up(nid, key, r)
        self._gc_entry(nid, key)

    def _ref_leave_up(self, nid, key, r):
        """Remove r's marks from this node's upstream links and propagate up."""
        ent = self.kernel.nodes[nid].mcast.groups.get(key)
        if ent is None:
            return
        for peer in sorted(ent.links):
            link = ent.links[peer]
            if r not in link.up_for and r not in link.standby_up:
                continue
            was = link.active()
            link.up_for.discard(r)
            link.standby_up.discard(r)
            if was and not link.active():
                self.kernel.trace(nid, "branch_deactivate", {"g": list(key)})
            if self.kernel.are_neighbors(nid, peer):
                payload = {"group": list(key), "receiver": r, "mode": "ref_leave"}
                pkt = self.kernel.new_packet(MESH_LEAVE, nid, 2, payload, dst=peer)
                self.kernel.transmit(nid, pkt)
        self._gc_entry(nid, key)
        self._ensure_upstream(nid, key)

    def _ensure_upstream(self, nid, key):
        """A node still serving members below must keep an upstream; repair if lost."""
        node = self.kernel.nodes.get(nid)
        if node is None or not node.alive:
            return
        ent = node.mcast.groups.get(key)
        if ent is None or "sender" in ent.roles:
            return
        if any(l.up_for for l in ent.links.values()):
            return
        if ent.receiver and ent.receiver.active:
            return
        if not any(l.down_members for l in ent.links.values()):
            return
        self.local_recovery(nid, key, broken_peer=None)

    def _on_branch_break(self, nid, pkt, rx_power, sender):
        key = tuple(pkt.payload["group"])
        ent = self.kernel.nodes[nid].mcast.groups.get(key)
        if ent is None:
            return
        self._drop_up_marks(ent, sender)
        if ent.receiver is not None:
            self._failover(ent.receiver)
            return
        self.local_recovery(nid, key, sender)

    def _failover(self, rec):
        """Receiver lost its active path: activate the next-best standby or rejoin."""
        # the choice is made among the paths live before the dead ones are
        # walked off: a walk can re-enter _failover and install a new path
        live = [p for p in rec.paths
                if p.path and self.kernel.are_neighbors(rec.nid, p.path[0])]
        for p in [p for p in rec.paths if p not in live]:
            if p not in rec.paths:
                continue  # a re-entered call has walked it off already
            self._walk_off(rec, p)
        if rec.active in live:
            return
        standby = rec.best_standby(live)
        if standby is not None:
            self._activate_path(rec, standby)
            return
        if rec.resolved:
            rec.attempts = 0
            self._discover(rec)

    def handoff_on_move(self, nid, key, new_peer):
        """Graft through a newly adjacent mesh node; make-before-break."""
        ent = self.kernel.nodes[nid].mcast.groups.get(key)
        rec = ent and ent.receiver
        if rec is None or not self.mesh_active(new_peer, key):
            return
        old = rec.active
        if old is not None and (len(old.path) <= 1 or old.path[0] == new_peer):
            return
        if rec.upstream([new_peer]) is not None:
            return
        hops = self._hops_to_mesh(nid, key)
        rec.active = Upstream([new_peer], 1.0)
        rec.paths.append(rec.active)
        self._walk_join(nid, key, [new_peer], nid, active=True)
        if old is not None:
            self._walk_mode(nid, key, old.path, "downgrade")
        self.kernel.trace(nid, "handoff",
                          {"g": list(key), "via": new_peer, "hops_to_mesh": hops})

    def _hops_to_mesh(self, nid, key, max_depth=8):
        """BFS distance to the nearest active mesh node (harness statistic)."""
        holders = self.mesh_nodes.get(key, set())
        seen = {nid}
        frontier = [nid]
        for depth in range(1, max_depth + 1):
            nxt = []
            for u in frontier:
                for v in self.kernel.sorted_neighbors(u):
                    if v in seen:
                        continue
                    seen.add(v)
                    if v in holders and self.mesh_active(v, key):
                        return depth
                    nxt.append(v)
            frontier = nxt
        return max_depth + 1

    # -- probes toward a located sender ------------------------------------------------

    def _send_probe(self, nid, key, sender_id, pos):
        payload = {"group": list(key), "origin": nid, "target": sender_id,
                   "pos": tuple(pos), "stab": 1.0, "q": "probe"}
        pkt = self.kernel.new_packet(JOIN_QUERY, nid, self.config.data_ttl, payload)
        self._probe_forward(nid, pkt)

    def _probe_step(self, nid, pkt, sender):
        pkt.path_record.append(nid)
        key = tuple(pkt.payload["group"])
        stab = min(pkt.payload["stab"], self.mobility.stability(nid, sender))
        pkt.payload = dict(pkt.payload, stab=stab)
        if self.mesh_active(nid, key) or nid == pkt.payload["target"]:
            inner = {"detail": {"graft": nid, "stab": stab},
                     "join_key": list(key), "probe": True,
                     "qpath": list(pkt.path_record)}
            self._reply(nid, pkt, JOIN_REPLY, inner, pkt.payload["origin"])
            return
        self._probe_forward(nid, pkt)

    def _probe_forward(self, nid, pkt):
        """Greedy step toward the sender's last position, else to the sender itself."""
        nxt = self.kernel.closer_node(nid, pkt.payload["pos"])
        if nxt is None and self.kernel.are_neighbors(nid, pkt.payload["target"]):
            nxt = pkt.payload["target"]
        if nxt is not None:
            self.kernel.forward(nid, pkt, nxt)

    def _probe_result(self, nid, key, inner):
        path = list(inner.get("qpath", []))
        ent = self.kernel.nodes[nid].mcast.groups.get(key)
        rec = ent and ent.receiver
        if not path or rec is None or rec.upstream(path) is not None:
            return  # nothing to install, the receiver has left, or known
        active = rec.active is None
        if not active and len(rec.paths) >= self.config.max_paths:
            return
        self._install_upstream(rec, path, inner["detail"].get("stab", 0.5),
                               active=active)

    # -- popularity adaptation ----------------------------------------------------------

    def _pop_observe(self, nid, key):
        """Count Advs/queries heard; over threshold, measure and maybe promote."""
        node = self.kernel.nodes[nid]
        if not self.rr.eligible(nid):
            return
        sds = node.sds
        if key in sds.local_groups or key[0] in sds.prefixes:
            return
        state = node.mcast
        pop = state.pop.get(key)
        if pop is None:
            pop = {"count": 0.0, "last_us": self.kernel.now_us, "pending": False,
                   "replies": None, "promoted": False}
            state.pop[key] = pop
        dt = (self.kernel.now_us - pop["last_us"]) / US
        if dt > 0:
            pop["count"] *= 2.0 ** (-dt / self.config.pop_half_life_s)
            pop["last_us"] = self.kernel.now_us
        pop["count"] += 1.0
        if pop["promoted"] or pop["pending"]:
            return
        if pop["count"] > self.config.pop_query_th:
            pop["pending"] = True
            self._pop_group_query(nid, key)

    def _pop_group_query(self, nid, key):
        pop = self.kernel.nodes[nid].mcast.pop[key]
        pop["replies"] = {"members": set(), "sds": set()}
        self._collect_pop_reply(nid, key, self._pop_eval(nid, key) or {})
        R = self.zone.config.radius_R
        payload = {"group": list(key), "origin": nid, "q": "pop", "stab": 1.0}
        self._flood_out(nid, GROUP_QUERY, R, payload)
        pred = {"kind": "pop_query", "group": key}
        self.contacts.contact_query(
            nid, pred, lambda detail, qpath: self._collect_pop_reply(nid, key, detail),
            timeout_s=self.config.group_query_window_s)
        self.kernel.schedule_in(int(self.config.group_query_window_s * US),
                                self.popularity_update, nid, key)

    def _flood_pop_query(self, receivers, pkt):
        """Each live receiver that has not seen the query answers it when it
        can and relays its own copy."""
        pid = pkt.pid
        nodes = self.kernel.nodes
        key = tuple(pkt.payload["group"])
        for nid in receivers:
            node = nodes[nid]
            if not node.alive or pid in node.mcast.seen:
                continue
            mine = self._flood_in(nid, pkt)
            detail = self._pop_eval(nid, key)
            if detail is not None:
                inner = {"pop": detail, "join_key": list(key)}
                self._reply(nid, mine, GROUP_QUERY_REPLY, inner, pkt.payload["origin"])
            self.kernel.forward(nid, mine, None)

    def _pop_eval(self, nid, key):
        node = self.kernel.nodes[nid]
        ent = node.mcast.groups.get(key)
        out = {}
        if ent is not None and (ent.receiver or "sender" in ent.roles):
            out["member"] = nid
        sds = node.sds
        if key in sds.local_groups or (key[0] in sds.prefixes
                                       and self.rr.live_senders(nid, key)):
            out["sds"] = nid
        return out or None

    def _collect_pop_reply(self, nid, key, detail):
        """Count one answer to an open popularity query (own, flood or contact)."""
        pop = self.kernel.nodes[nid].mcast.pop.get(key)
        if pop is None or not pop.get("pending"):
            return
        if detail.get("member") is not None:
            pop["replies"]["members"].add(detail["member"])
        if detail.get("sds") is not None:
            pop["replies"]["sds"].add(detail["sds"])

    def popularity_update(self, nid, key):
        """Close the group query window; promote when pop_est exceeds the threshold."""
        pop = self.kernel.nodes[nid].mcast.pop.get(key)
        if pop is None or not pop.get("pending"):
            return
        pop["pending"] = False
        grp_est = len(pop["replies"]["members"])
        sds_est = max(1, len(pop["replies"]["sds"]))
        pop_est = grp_est / sds_est
        if pop_est <= self.config.pop_th:
            return
        pop["promoted"] = True
        sds = self.kernel.nodes[nid].sds
        sds.local_groups.add(key)
        sds.known_local_sds.setdefault(key, {})[nid] = self.kernel.now_us
        self.kernel.trace(nid, "pop_promote",
                          {"g": list(key), "grp": grp_est, "sds": sds_est,
                           "pop": pop_est})
        self._advertise_local_sds(nid, key)
        self.rr.lar_send(nid, key[0], "group_sync",
                         {"group": list(key), "origin": nid,
                          "pos": self.kernel.nodes[nid].pos()})

    def _advertise_local_sds(self, nid, key):
        R = self.zone.config.radius_R
        payload = {"origin": nid, "group": list(key)}
        self._flood_out(nid, SDS_ADVERT, R, payload)
        entries = self.kernel.nodes[nid].contacts.entries
        for cid in sorted(entries):
            self.kernel.source_route(nid, SDS_ADVERT, entries[cid].route,
                                     dict(payload))

    def _on_local_sds_advert(self, nid, pkt, rx_power, sender):
        """Zone-scoped flood, or a source-routed copy to a contact."""
        routed = "route" in pkt.payload
        if routed and self.kernel.relay(nid, pkt):
            return
        pkt = self._flood_in(nid, pkt)
        if pkt is None:
            return
        key = tuple(pkt.payload["group"])
        self.kernel.nodes[nid].sds.known_local_sds.setdefault(key, {})[
            pkt.payload["origin"]] = self.kernel.now_us
        if not routed:
            self.kernel.forward(nid, pkt, None)

    def _rr_group_sync(self, nid, pkt):
        """A popularity-promoted local SDS pulls the region's sender records."""
        inner = pkt.payload["inner"]
        key = tuple(inner["group"])
        detail = senders_detail(self.rr.live_senders(nid, key))
        reply = {"detail": detail, "join_key": list(key),
                 "sync_for": inner["origin"]}
        self._reply(nid, pkt, GROUP_QUERY_REPLY, reply, inner["origin"])

    def _absorb_group_sync(self, nid, key, detail):
        for sid in sorted(detail.get("senders", {})):
            meta = detail["senders"][sid]
            self.rr.record_sender(nid, key, int(sid), meta["pos"], meta["route"])

    # -- maintenance / debug -----------------------------------------------------------

    def _maintenance(self):
        horizon = self.kernel.now_us - int(self.config.member_expiry_s * US)
        for nid in sorted(self.kernel.nodes):
            node = self.kernel.nodes[nid]
            if not node.alive:
                continue
            for key in sorted(node.mcast.groups):
                ent = node.mcast.groups[key]
                stale = [p for p, l in ent.links.items()
                         if l.empty() or (not l.active() and l.last_us < horizon)]
                for p in stale:
                    del ent.links[p]
                self._gc_entry(nid, key)
        self.kernel.schedule_in(int(self.config.adv_period_s * US), self._maintenance)

    def sweep_invariants(self):
        """Debug-mode global mesh sweep: no black holes, exactly one active path."""
        problems = []
        for key in sorted(self.mesh_nodes):
            for nid in sorted(self.mesh_nodes[key]):
                node = self.kernel.nodes.get(nid)
                if node is None or not node.alive:
                    continue
                ent = node.mcast.groups.get(key)
                if ent is None:
                    continue
                for peer, link in ent.links.items():
                    if link.down_members and not link.active():
                        problems.append((nid, key, peer, "black_hole"))
                rec = ent.receiver
                if rec is not None and rec.paths and rec.active not in rec.paths:
                    problems.append((nid, key, None, "active=0"))
        return problems
