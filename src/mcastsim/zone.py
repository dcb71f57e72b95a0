"""Two-level routing substrate, level one: proactive link-state zones of radius R
with border-node identification; reactive bordercast queries beyond the zone.

Every node floods a link-state advert R hops on neighbor-set change (plus a
cheap same-sequence refresh each hello interval, which duplicate suppression
keeps to one hop). A node joining a link additionally receives the peer's
zone adverts, so newcomers converge without waiting for refloods. Zone tables
are rebuilt by bounded BFS over the advert set; an edge is accepted only when
both endpoints' adverts (or the owner's own neighbor set) confirm it, which
purges stale members as soon as the fresher side updates. Bordercast queries
and their replies travel as kernel source-routed packets; a reply retraces
the query's recorded path (kernel.reverse_route).
"""

from dataclasses import dataclass, field

from .kernel import (US, BORDERCAST_QUERY, BORDERCAST_REPLY, HELLO,
                     ZONE_LINK_STATE, reverse_route)


@dataclass
class ZoneTable:
    members: dict = field(default_factory=dict)   # nid -> (hop_distance, next_hop)
    border_set: set = field(default_factory=set)
    version: int = 0


class ZoneState:
    """Per-node zone-routing state."""

    __slots__ = ("table", "adverts", "parents", "my_seq", "dirty", "recompute_pending",
                 "advert_dirty", "seen_queries")

    def __init__(self):
        self.table = ZoneTable()
        self.adverts = {}      # origin -> (seq, sorted neighbor tuple, contact_count)
        self.parents = {}      # member -> predecessor on shortest path from owner
        self.my_seq = 0
        self.dirty = False
        self.recompute_pending = False
        self.advert_dirty = False
        self.seen_queries = set()


class ZoneRouting:
    """Owns the hello/advert cycle and all per-node zone tables."""

    def __init__(self, kernel, config, mobility=None):
        self.kernel = kernel
        self.config = config
        self.mobility = mobility
        self.contact_count_fn = lambda nid: 0   # wired up by the contacts layer
        self.activity_fn = lambda nid: None     # likewise: discovery-rate counter
        self.zone_update_listeners = []          # fn(nid, old_members, table)
        self.evaluators = {}                     # kind -> fn(nid, pred) -> detail | None
        self.query_callbacks = {}                # qid -> fn(detail, reply_path)
        self._qid = 0
        for node in kernel.nodes.values():
            node.zone = ZoneState()
        kernel.register_handler(HELLO, self._on_hello)
        kernel.register_handler(ZONE_LINK_STATE, self._on_advert)
        kernel.register_handler(BORDERCAST_QUERY, self._on_query)
        kernel.register_handler(BORDERCAST_REPLY, self._on_reply)
        kernel.on_link_change(self._on_link_change)
        self.register_evaluator("find_node", self._eval_find_node)

    # -- periodic cycle -------------------------------------------------------

    def start(self):
        self.kernel.schedule_in(0, self._cycle)

    def _cycle(self):
        for nid in sorted(self.kernel.nodes):
            node = self.kernel.nodes[nid]
            if not node.alive:
                continue
            self.kernel.transmit(nid, self.kernel.new_packet(HELLO, nid, 1))
            self._send_advert(nid, bump=node.zone.advert_dirty)
            node.zone.advert_dirty = False
        self.kernel.schedule_in(int(self.config.hello_interval_s * US), self._cycle)

    def _send_advert(self, nid, bump):
        zone = self.kernel.nodes[nid].zone
        if bump:
            zone.my_seq += 1
        payload = {
            "origin": nid,
            "seq": zone.my_seq,
            "nbrs": self.kernel.sorted_neighbors(nid),
            "contacts": self.contact_count_fn(nid),
        }
        pkt = self.kernel.new_packet(ZONE_LINK_STATE, nid, self.config.radius_R, payload)
        self.kernel.transmit(nid, pkt)

    def _on_hello(self, nid, pkt, rx_power, sender):
        if self.mobility is not None:
            self.mobility.record_power_sample(nid, sender, rx_power)

    # -- advert propagation -----------------------------------------------------

    def _on_advert(self, receivers, pkt, rx_power, sender):
        """One advert transmission: each live receiver but the origin that holds an
        older advert (or none) stores it, marks its zone dirty and relays a copy."""
        payload = pkt.payload
        origin = payload["origin"]
        seq = payload["seq"]
        entry = (seq, payload["nbrs"], payload["contacts"])
        nodes = self.kernel.nodes
        relay = pkt.ttl_hops > 1
        for nid in receivers:
            if nid == origin:
                continue
            node = nodes[nid]
            if not node.alive:
                continue
            adverts = node.zone.adverts
            cur = adverts.get(origin)
            if cur is not None and cur[0] >= seq:
                continue
            adverts[origin] = entry
            self._mark_dirty(nid)
            if relay:
                self.kernel.forward(nid, pkt.hop_copy(), None)

    def _on_link_change(self, nid, added, removed):
        node = self.kernel.nodes[nid]
        if node.zone is None:
            return
        node.zone.advert_dirty = True
        self._mark_dirty(nid)
        # advert bursts ride the next cycle; a fresh link also hands over the
        # peer's zone adverts so a node entering an established zone learns its
        # members immediately
        for peer in added:
            pnode = self.kernel.nodes.get(peer)
            if pnode is None or pnode.zone is None or not pnode.alive:
                continue
            padverts = pnode.zone.adverts
            snapshot = [(o, *padverts[o]) for o in sorted(pnode.zone.table.members)
                        if o in padverts]
            snapshot.append((peer, pnode.zone.my_seq, self.kernel.sorted_neighbors(peer),
                             self.contact_count_fn(peer)))
            self._merge_snapshot(nid, snapshot)

    def _merge_snapshot(self, nid, snapshot):
        zone = self.kernel.nodes[nid].zone
        changed = False
        for origin, seq, nbrs, contacts in snapshot:
            if origin == nid:
                continue
            cur = zone.adverts.get(origin)
            if cur is None or cur[0] < seq:
                zone.adverts[origin] = (seq, nbrs, contacts)
                changed = True
        if changed:
            self._mark_dirty(nid)

    def _mark_dirty(self, nid):
        zone = self.kernel.nodes[nid].zone
        zone.dirty = True
        if not zone.recompute_pending:
            zone.recompute_pending = True
            self.kernel.schedule_in(int(self.config.recompute_delay_s * US),
                                    self._recompute_event, nid)

    def _recompute_event(self, nid):
        zone = self.kernel.nodes[nid].zone
        zone.recompute_pending = False
        if zone.dirty and self.kernel.nodes[nid].alive:
            self.update_zone(nid)

    # -- zone table -------------------------------------------------------------

    def update_zone(self, nid):
        """Rebuild the zone table by BFS over confirmed advert edges."""
        node = self.kernel.nodes[nid]
        zone = node.zone
        zone.dirty = False
        R = self.config.radius_R
        adverts = zone.adverts
        old_members = zone.table.members
        members = {}
        parents = {}
        frontier = []
        for m in self.kernel.sorted_neighbors(nid):
            members[m] = (1, m)
            parents[m] = nid
            frontier.append(m)
        for depth in range(2, R + 1):
            nxt = []
            for u in frontier:
                adv_u = adverts.get(u)
                if adv_u is None:
                    continue
                next_hop = members[u][1]
                for v in adv_u[1]:
                    if v == nid or v in members:
                        continue
                    adv_v = adverts.get(v)
                    if adv_v is None or u not in adv_v[1]:
                        continue
                    members[v] = (depth, next_hop)
                    parents[v] = u
                    nxt.append(v)
            frontier = nxt
        border = set()
        for m, (dist, _) in members.items():
            if dist == R:
                border.add(m)
                continue
            adv_m = adverts.get(m)
            if adv_m is not None:
                for w in adv_m[1]:
                    if w != nid and w not in members:
                        border.add(m)
                        break
        changed = (members != old_members or border != zone.table.border_set)
        zone.parents = parents
        table = zone.table
        old = dict(old_members)
        table.members = members
        table.border_set = border
        if changed:
            table.version += 1
            self.kernel.trace(nid, "zone_update",
                              {"v": table.version, "n": len(members)})
            for fn in self.zone_update_listeners:
                fn(nid, old, table)
        return table

    def table(self, nid):
        return self.kernel.node(nid).zone.table

    def intra_zone_route(self, nid, dest):
        """Shortest path owner->dest inside the zone, excluding the owner; None if outside."""
        zone = self.kernel.node(nid).zone
        if dest not in zone.table.members:
            return None
        path = []
        cur = dest
        while cur != nid:
            path.append(cur)
            cur = zone.parents[cur]
        path.reverse()
        return path

    # -- bordercast ---------------------------------------------------------------

    def register_evaluator(self, kind, fn):
        self.evaluators[kind] = fn

    def evaluate(self, nid, pred):
        fn = self.evaluators.get(pred["kind"])
        return fn(nid, pred) if fn is not None else None

    def _eval_find_node(self, nid, pred):
        target = pred["target"]
        if target == nid:
            return {"route": [], "at": nid}
        route = self.intra_zone_route(nid, target)
        if route is None:
            return None
        return {"route": route, "at": nid}

    def bordercast_query(self, nid, pred, budget_rounds=None, on_reply=None):
        """Start a bordercast; replies arrive via on_reply(detail, reply_path).

        Local zone answers short-circuit with zero packets. Returns the query id.
        """
        if budget_rounds is None:
            budget_rounds = self.config.bordercast_rounds
        self._qid += 1
        qid = (nid, self._qid, "bc")
        if on_reply is not None:
            self.query_callbacks[qid] = on_reply
        self.activity_fn(nid)
        local = self.evaluate(nid, pred)
        if local is not None:
            if on_reply is not None:
                on_reply(local, [])
            return qid
        self.kernel.nodes[nid].zone.seen_queries.add(qid)
        self._fan_out(nid, qid, pred, budget_rounds, origin=nid, prior_path=[])
        return qid

    def _fan_out(self, nid, qid, pred, budget, origin, prior_path):
        zone = self.kernel.nodes[nid].zone
        self.kernel.trace(nid, "bordercast_send",
                          {"qid": list(qid[:2]), "budget": budget})
        for b in sorted(zone.table.border_set):
            route = self.intra_zone_route(nid, b)
            if not route:
                continue
            payload = {"qid": qid, "pred": pred, "budget": budget,
                       "origin": origin}
            self.kernel.source_route(nid, BORDERCAST_QUERY, route, payload,
                                     prior_path)

    def _on_query(self, nid, pkt, rx_power, sender):
        if nid in pkt.path_record:
            return  # keep query paths simple; a revisit would loop
        if self.kernel.relay(nid, pkt):
            return
        # reached a border node: evaluate, else re-bordercast
        qid = pkt.payload["qid"]
        zone = self.kernel.nodes[nid].zone
        if qid in zone.seen_queries:
            return
        zone.seen_queries.add(qid)
        self.activity_fn(nid)
        detail = self.evaluate(nid, pkt.payload["pred"])
        if detail is not None:
            self._send_reply(nid, pkt, detail)
        elif pkt.payload["budget"] > 1:
            self._fan_out(nid, qid, pkt.payload["pred"], pkt.payload["budget"] - 1,
                          pkt.payload["origin"], pkt.path_record)

    def _send_reply(self, nid, query_pkt, detail):
        back = reverse_route(query_pkt.path_record, query_pkt.payload["origin"])
        payload = {"qid": query_pkt.payload["qid"], "detail": detail,
                   "query_path": list(query_pkt.path_record)}
        self.kernel.trace(nid, "bordercast_reply", {"hops": len(back)})
        self.kernel.source_route(nid, BORDERCAST_REPLY, back, payload)

    def _on_reply(self, nid, pkt, rx_power, sender):
        if self.kernel.relay(nid, pkt):
            return
        cb = self.query_callbacks.get(pkt.payload["qid"])
        if cb is not None:
            cb(pkt.payload["detail"], pkt.payload["query_path"])
