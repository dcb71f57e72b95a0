"""Geographic rendezvous layer: grid address mapping, SDS promotion inside each
rendezvous region, lollipop-LAR forwarding toward a region, and scoped geocast.

The address prefix space is a uniform grid over the area; the cell holding a
position is that position's prefix, so any node can locate any group's region
from shared configuration alone. A small, probabilistically self-limiting pool
of sender discovery servers per region holds group/session soft state.
"""

import math
from dataclasses import dataclass

from .kernel import (US, GEOCAST, LAR_FORWARD, SDS_SYNC, SESSION_REPLY,
                     ConfigError)

WELL_KNOWN_PREFIX = 0
WELL_KNOWN_SUFFIX = 0


@dataclass(frozen=True)
class GroupAddress:
    prefix: int
    suffix: int

    def key(self):
        return (self.prefix, self.suffix)


WELL_KNOWN_GROUP = GroupAddress(WELL_KNOWN_PREFIX, WELL_KNOWN_SUFFIX)


class GeoGrid:
    """Uniform-grid instantiation of the position -> prefix mapping."""

    def __init__(self, area_w, area_h, cols, rows):
        self.area_w = float(area_w)
        self.area_h = float(area_h)
        self.cols = cols
        self.rows = rows
        # closed right/top edges so the cells tile the area exactly
        self.x_edges = [area_w * i / cols for i in range(cols)] + [float(area_w)]
        self.y_edges = [area_h * i / rows for i in range(rows)] + [float(area_h)]

    def prefix_of_position(self, pos):
        x, y = pos
        if not (0 <= x <= self.area_w and 0 <= y <= self.area_h):
            raise ConfigError(f"position {pos} outside area")
        col = min(int(x * self.cols / self.area_w), self.cols - 1)
        row = min(int(y * self.rows / self.area_h), self.rows - 1)
        return col + self.cols * row

    def rect_of_prefix(self, prefix):
        if not (0 <= prefix < self.cols * self.rows):
            raise ConfigError(f"prefix {prefix} outside grid")
        col = prefix % self.cols
        row = prefix // self.cols
        return (self.x_edges[col], self.x_edges[col + 1],
                self.y_edges[row], self.y_edges[row + 1])

    @staticmethod
    def distance_to_rect(pos, rect):
        x, y = pos
        x1, x2, y1, y2 = rect
        dx = max(x1 - x, 0.0, x - x2)
        dy = max(y1 - y, 0.0, y - y2)
        return math.hypot(dx, dy)

    @staticmethod
    def contains(rect, pos):
        x1, x2, y1, y2 = rect
        return x1 <= pos[0] <= x2 and y1 <= pos[1] <= y2


class SdsState:
    """Per-node discovery-server state (rendezvous role plus cached soft state)."""

    def __init__(self):
        self.prefixes = set()        # prefixes this node serves as RR SDS
        self.local_groups = set()    # group keys served as popularity-promoted SDS
        self.records = {}            # group key -> {sender id -> {"pos","t_us","route"}}
        self.sessions = {}           # prefix -> {suffix -> session meta}
        self.announcements = {}      # session name -> meta (well-known RR registry)
        self.known_sds = {}          # prefix -> {nid -> (t_us, pos)}
        self.known_local_sds = {}    # group key -> {nid -> t_us}
        self.known_sessions = {}     # session name -> GroupAddress (own confirmations)
        self.suppress_until_us = 0
        self.last_advert_us = 0
        self.seen_pids = set()


class RendezvousManager:
    def __init__(self, kernel, config, zone_mgr, contacts_mgr, mobility_mgr):
        self.kernel = kernel
        self.config = config
        self.zone = zone_mgr
        self.contacts = contacts_mgr
        self.mobility = mobility_mgr
        self.grid = GeoGrid(kernel.area_w, kernel.area_h,
                            config.grid_cols, config.grid_rows)
        self.rr_handlers = {}        # inner_kind -> fn(nid, pkt) at the RR
        self.geocast_handlers = {}   # inner_kind -> fn(nid, pkt, in_region)
        self._pending_sessions = {}  # (initiator, name) -> record until answered
        self._session_listeners = []
        for node in kernel.nodes.values():
            node.sds = SdsState()
        kernel.register_handler(GEOCAST, self._on_geocast)
        kernel.register_handler(LAR_FORWARD, self._on_lar)
        kernel.register_handler(SDS_SYNC, self._on_lar)
        kernel.register_handler(SESSION_REPLY, self._on_session_reply)
        self.register_geocast_handler("sds_advert", self._geo_sds_advert)
        self.register_geocast_handler("sds_leave", self._geo_sds_leave)
        self.register_geocast_handler("session_update", self._geo_session_update)
        self.register_geocast_handler("session_update_announce",
                                      self._geo_session_update_announce)
        self.register_geocast_handler("lar_rr", self._geo_lar_rr)
        self.register_rr_handler("session_register", self._rr_session_register)
        self.register_rr_handler("session_announce", self._rr_session_announce)
        self.register_rr_handler("sds_leave_rr", self._rr_sds_leave)
        zone_mgr.register_evaluator("sds_for", self._eval_sds_for)

    # -- registration points for other layers ------------------------------------

    def register_rr_handler(self, kind, fn):
        self.rr_handlers[kind] = fn

    def register_geocast_handler(self, kind, fn):
        self.geocast_handlers[kind] = fn

    def on_session_confirmed(self, fn):
        self._session_listeners.append(fn)

    # -- pure mapping ------------------------------------------------------------

    def prefix_of_position(self, pos):
        return self.grid.prefix_of_position(pos)

    # -- SDS promotion / retirement ------------------------------------------------

    def start(self):
        period = int(self.config.decision_period_s * US)
        n = max(1, len(self.kernel.nodes))
        for i, nid in enumerate(sorted(self.kernel.nodes)):
            offset = (i * period) // n
            self.kernel.schedule_in(offset + 1000, self._decision_loop, nid)

    def _decision_loop(self, nid):
        node = self.kernel.nodes[nid]
        if node.alive:
            self.sds_leave(nid)
            self.sds_promotion_decide(nid)
            self._readvert_if_due(nid)
        self.kernel.schedule_in(int(self.config.decision_period_s * US),
                                self._decision_loop, nid)

    def eligible(self, nid):
        node = self.kernel.nodes[nid]
        if not node.sds_capable or node.energy_j <= 0:
            return False
        return self.kernel.energy_left(nid) / node.energy_j >= self.config.min_energy_ratio

    def observed_sds(self, nid, prefix):
        state = self.kernel.nodes[nid].sds
        horizon = self.kernel.now_us - int(self.config.peer_ttl_s * US)
        peers = state.known_sds.get(prefix, {})
        count = sum(1 for sid, (t, pos) in peers.items()
                    if t >= horizon and pos is not None and sid != nid)
        if prefix in state.prefixes:
            count += 1
        return count

    def expected_population(self, nid):
        if self.config.expected_population is not None:
            return self.config.expected_population
        node = self.kernel.nodes[nid]
        zone_n = len(node.zone.table.members) + 1
        zone_area = math.pi * (self.zone.config.radius_R * self.kernel.radio.range_m) ** 2
        rect = self.grid.rect_of_prefix(self.prefix_of_position(node.pos()))
        region_area = (rect[1] - rect[0]) * (rect[3] - rect[2])
        return max(float(self.config.target_sds), zone_n * region_area / zone_area)

    def sds_promotion_decide(self, nid):
        """One promotion decision; returns True when the node promoted itself."""
        node = self.kernel.nodes[nid]
        state = node.sds
        if not self.eligible(nid) or self.kernel.now_us < state.suppress_until_us:
            return False
        prefix = self.prefix_of_position(self.mobility.reported_position(nid))
        if prefix in state.prefixes:
            return False
        deficit = self.config.target_sds - self.observed_sds(nid, prefix)
        if deficit <= 0:
            return False
        p = min(1.0, deficit / self.expected_population(nid))
        if self.kernel.rng.random() >= p:
            return False
        self.sds_on_promote(nid, prefix)
        return True

    def sds_on_promote(self, nid, prefix=None):
        node = self.kernel.nodes[nid]
        if prefix is None:
            prefix = self.prefix_of_position(self.mobility.reported_position(nid))
        state = node.sds
        state.prefixes.add(prefix)
        state.known_sds.setdefault(prefix, {})[nid] = (self.kernel.now_us, node.pos())
        state.last_advert_us = self.kernel.now_us
        self.kernel.trace(nid, "sds_promote", {"prefix": prefix})
        self._advertise_sds(nid, prefix, new=True)

    def _advertise_sds(self, nid, prefix, new):
        node = self.kernel.nodes[nid]
        inner = {"origin": nid, "prefix": prefix, "pos": node.pos(), "new": new}
        self.geocast(nid, self.grid.rect_of_prefix(prefix), "sds_advert", inner)

    def _readvert_if_due(self, nid):
        state = self.kernel.nodes[nid].sds
        if not state.prefixes:
            return
        period = int(self.config.readvert_period_s * US)
        if self.kernel.now_us - state.last_advert_us >= period:
            state.last_advert_us = self.kernel.now_us
            for prefix in sorted(state.prefixes):
                self._advertise_sds(nid, prefix, new=False)

    def sds_leave(self, nid):
        """Geocast records and a leave marker for any region this SDS has exited."""
        node = self.kernel.nodes[nid]
        state = node.sds
        if not state.prefixes:
            return
        pos = self.mobility.reported_position(nid)
        for prefix in sorted(state.prefixes):
            rect = self.grid.rect_of_prefix(prefix)
            if GeoGrid.contains(rect, pos):
                continue
            state.prefixes.discard(prefix)
            state.known_sds.setdefault(prefix, {})[nid] = (self.kernel.now_us, None)
            records = self._records_for_prefix(nid, prefix)
            sessions = dict(state.sessions.get(prefix, {}))
            inner = {"origin": nid, "prefix": prefix, "records": records,
                     "sessions": sessions}
            self.kernel.trace(nid, "sds_leave", {"prefix": prefix})
            # local broadcast covers the common just-crossed-the-edge case; the
            # LAR copy carries the leave back when the node is already far out
            self.geocast(nid, rect, "sds_leave", inner)
            self.lar_send(nid, prefix, "sds_leave_rr", inner)

    def _records_for_prefix(self, nid, prefix):
        state = self.kernel.nodes[nid].sds
        out = {}
        for key, senders in state.records.items():
            if key[0] == prefix:
                out[key] = {sid: dict(meta) for sid, meta in senders.items()}
        return out

    def _geo_sds_advert(self, nid, pkt, in_region):
        inner = pkt.payload["inner"]
        origin, prefix = inner["origin"], inner["prefix"]
        if origin == nid:
            return
        node = self.kernel.nodes[nid]
        state = node.sds
        state.known_sds.setdefault(prefix, {})[origin] = (self.kernel.now_us,
                                                          tuple(inner["pos"]))
        if inner["new"] and origin in node.zone.table.members:
            state.suppress_until_us = max(
                state.suppress_until_us,
                self.kernel.now_us + int(self.config.suppress_window_s * US))
        if inner["new"] and prefix in state.prefixes:
            # localized update so the newcomer starts with the collective state
            sync = {"prefix": prefix, "records": self._records_for_prefix(nid, prefix),
                    "sessions": dict(state.sessions.get(prefix, {})),
                    "announcements": dict(state.announcements),
                    "known": {str(s): list(v) for s, v in
                              state.known_sds.get(prefix, {}).items()}}
            self.lar_send(nid, prefix, "sds_sync", sync, dst_node=origin,
                          dst_pos=tuple(inner["pos"]), kind=SDS_SYNC)

    def _point_sds_sync(self, nid, pkt):
        inner = pkt.payload["inner"]
        self._merge_region_state(nid, inner)
        state = self.kernel.nodes[nid].sds
        prefix = inner["prefix"]
        for name, meta in inner.get("announcements", {}).items():
            state.announcements.setdefault(name, meta)
        for sid, (t, pos) in inner.get("known", {}).items():
            cur = state.known_sds.setdefault(prefix, {}).get(int(sid))
            if cur is None or cur[0] < t:
                state.known_sds[prefix][int(sid)] = (
                    t, tuple(pos) if pos is not None else None)

    def _rr_sds_leave(self, nid, pkt):
        """A leave that arrived by LAR: absorb it here and spread it in-region."""
        inner = pkt.payload["inner"]
        self._apply_sds_leave(nid, inner)
        self.geocast(nid, pkt.payload["rect"], "sds_leave", inner)

    def _geo_sds_leave(self, nid, pkt, in_region):
        self._apply_sds_leave(nid, pkt.payload["inner"])

    def _apply_sds_leave(self, nid, inner):
        prefix = inner["prefix"]
        state = self.kernel.nodes[nid].sds
        state.known_sds.setdefault(prefix, {})[inner["origin"]] = (
            self.kernel.now_us, None)
        if prefix in state.prefixes:
            self._merge_region_state(nid, inner)

    def _merge_region_state(self, nid, inner):
        """Absorb another server's sender records and sessions for its prefix."""
        state = self.kernel.nodes[nid].sds
        for key, senders in inner["records"].items():
            key = tuple(key)
            mine = state.records.setdefault(key, {})
            for sid, meta in senders.items():
                sid = int(sid)
                cur = mine.get(sid)
                if cur is None or cur["t_us"] < meta["t_us"]:
                    mine[sid] = dict(meta)
        sess = state.sessions.setdefault(inner["prefix"], {})
        for suffix, meta in inner["sessions"].items():
            sess.setdefault(suffix, meta)

    def record_sender(self, nid, group_key, sender, pos, route=None):
        state = self.kernel.nodes[nid].sds
        mine = state.records.setdefault(tuple(group_key), {})
        mine[sender] = {"pos": tuple(pos), "t_us": self.kernel.now_us,
                        "route": list(route) if route else None}

    def live_senders(self, nid, group_key):
        state = self.kernel.nodes[nid].sds
        horizon = self.kernel.now_us - int(self.config.sender_ttl_s * US)
        out = {}
        for sid, meta in state.records.get(tuple(group_key), {}).items():
            if meta["t_us"] >= horizon:
                out[sid] = meta
        return out

    def _eval_sds_for(self, nid, pred):
        """Zone predicate: is there an SDS for this prefix here or among members?"""
        prefix = pred["prefix"]
        state = self.kernel.nodes[nid].sds
        if prefix in state.prefixes:
            return {"sds": nid}
        members = self.kernel.nodes[nid].zone.table.members
        horizon = self.kernel.now_us - int(self.config.peer_ttl_s * US)
        for sid in sorted(state.known_sds.get(prefix, {})):
            t, pos = state.known_sds[prefix][sid]
            if pos is not None and t >= horizon and (sid in members or sid == nid):
                return {"sds": sid}
        return None

    # -- geocast ---------------------------------------------------------------

    def geocast(self, origin, rect, inner_kind, inner):
        """Region-scoped flood; in-rect nodes rebroadcast once, others only listen."""
        payload = {"rect": tuple(rect), "inner_kind": inner_kind, "inner": inner,
                   "origin": origin}
        pkt = self.kernel.new_packet(GEOCAST, origin, 64, payload)
        self._geocast_accept(origin, pkt, local=True)
        return pkt.pid

    def _on_geocast(self, nid, pkt, rx_power, sender):
        self._geocast_accept(nid, pkt, local=False)

    def _geocast_accept(self, nid, pkt, local):
        state = self.kernel.nodes[nid].sds
        if pkt.pid in state.seen_pids:
            return
        state.seen_pids.add(pkt.pid)
        rect = pkt.payload["rect"]
        in_region = GeoGrid.contains(rect, self.kernel.nodes[nid].pos())
        handler = self.geocast_handlers.get(pkt.payload["inner_kind"])
        if handler is not None and not local:
            handler(nid, pkt, in_region)
        if (in_region or local) and pkt.ttl_hops > 1:
            if not local:
                self.kernel.trace(nid, "geocast_rebroadcast",
                                  {"k": pkt.payload["inner_kind"]})
                pkt = pkt.hop_copy()   # every receiver shares the one it heard
            self.kernel.forward(nid, pkt, None)

    # -- lollipop-LAR ---------------------------------------------------------

    def lar_send(self, origin, prefix, inner_kind, inner,
                 dst_node=None, dst_pos=None, kind=LAR_FORWARD):
        """Forward via contact chain then greedy geographic routing.

        Without dst_node the target is the prefix's rendezvous region; with
        dst_node/dst_pos the packet chases a specific node's last known position.
        Each leg is source-routed: payload["route"] holds the current leg.
        """
        payload = {
            "prefix": prefix,
            "rect": self.grid.rect_of_prefix(prefix),
            "inner_kind": inner_kind,
            "inner": inner,
            "dst_node": dst_node,
            "dst_pos": tuple(dst_pos) if dst_pos else None,
        }
        pkt = self.kernel.new_packet(kind, origin, self.config.lar_ttl, payload)
        self._lar_decide(origin, pkt)
        return pkt.pid

    def _on_lar(self, nid, pkt, rx_power, sender):
        if self.kernel.relay(nid, pkt):
            return
        self._lar_decide(nid, pkt)

    def _lar_decide(self, nid, pkt):
        payload = pkt.payload
        my_pos = self.kernel.nodes[nid].pos()
        if payload["dst_pos"] is not None:
            dst = payload["dst_node"]
            if dst == nid:
                if payload["inner_kind"] == "sds_sync":
                    self._point_sds_sync(nid, pkt)
                else:
                    # a region request redirected at a specific server
                    pkt.payload = dict(payload, dst_pos=None, dst_node=None)
                    self._rr_deliver(nid, pkt)
                return
            if dst in self.kernel.nodes and self.kernel.are_neighbors(nid, dst):
                self._lar_leg(nid, pkt, [dst], "direct")
                return
            self._lar_greedy(nid, pkt, payload["dst_pos"])
            return
        rect = payload["rect"]
        if GeoGrid.contains(rect, my_pos):
            self._rr_deliver(nid, pkt)
            return
        dist = GeoGrid.distance_to_rect(my_pos, rect)
        if dist >= self.config.l_limit_m:
            leg = self._closer_contact_leg(nid, rect, dist)
            if leg is not None:
                self._lar_leg(nid, pkt, leg, "contact")
                return
        center = ((rect[0] + rect[1]) / 2.0, (rect[2] + rect[3]) / 2.0)
        self._lar_greedy(nid, pkt, center)

    def _closer_contact_leg(self, nid, rect, my_dist):
        entries = self.kernel.nodes[nid].contacts.entries
        best = None
        best_d = my_dist
        for cid in sorted(entries):
            d = GeoGrid.distance_to_rect(entries[cid].approx_pos, rect)
            if d < best_d:
                best, best_d = cid, d
        return list(entries[best].route) if best is not None else None

    def _lar_greedy(self, nid, pkt, goal):
        best = self.kernel.closer_node(nid, goal)
        if best is not None:
            self._lar_leg(nid, pkt, [best], "greedy")
            return
        # local minimum: one-zone detour toward any member strictly closer
        members = self.kernel.nodes[nid].zone.table.members
        cand = self.kernel.closer_node(nid, goal, sorted(members))
        if cand is not None:
            route = self.zone.intra_zone_route(nid, cand)
            if route:
                self._lar_leg(nid, pkt, route, "detour")
                return
        self.kernel.trace(nid, "delivery_failure",
                          {"k": pkt.payload["inner_kind"]})

    def _lar_leg(self, nid, pkt, leg, mode):
        if pkt.ttl_hops <= len(leg):
            self.kernel.trace(nid, "delivery_failure",
                              {"k": pkt.payload["inner_kind"], "why": "ttl"})
            return
        pkt.payload = dict(pkt.payload, route=tuple(leg))
        self.kernel.trace(nid, "lar_hop", {"mode": mode, "to": leg[0]})
        self.kernel.forward(nid, pkt, leg[0])

    # -- delivery inside the rendezvous region -------------------------------------

    def _rr_deliver(self, nid, pkt):
        prefix = pkt.payload["prefix"]
        state = self.kernel.nodes[nid].sds
        if pkt.pid in state.seen_pids:
            return
        state.seen_pids.add(pkt.pid)
        if prefix in state.prefixes:
            handler = self.rr_handlers.get(pkt.payload["inner_kind"])
            if handler is not None:
                handler(nid, pkt)
            return
        inner = pkt.payload.get("inner") or {}
        exclude = {pkt.src, inner.get("origin"), inner.get("initiator")}
        sds = self._nearest_known_sds(nid, prefix, exclude)
        if sds is not None:
            route = self.zone.intra_zone_route(nid, sds)
            if route:
                self._lar_leg(nid, pkt, route, "rr_local")
            else:
                t, pos = state.known_sds[prefix][sds]
                pkt.payload = dict(pkt.payload, dst_node=sds, dst_pos=tuple(pos))
                self._lar_greedy(nid, pkt, pos)
            return
        # no server known here: flood the wrapped request within the region
        self.geocast(nid, pkt.payload["rect"], "lar_rr",
                     {"pkt_payload": pkt.payload, "path": list(pkt.path_record),
                      "pid": list(pkt.pid)})

    def _nearest_known_sds(self, nid, prefix, exclude=()):
        state = self.kernel.nodes[nid].sds
        members = self.kernel.nodes[nid].zone.table.members
        horizon = self.kernel.now_us - int(self.config.peer_ttl_s * US)
        best = None
        for sid in sorted(state.known_sds.get(prefix, {})):
            t, pos = state.known_sds[prefix][sid]
            if t < horizon or pos is None or sid in exclude:
                continue
            if sid in members or sid == nid:
                return sid
            if best is None:
                best = sid
        return best

    def _geo_lar_rr(self, nid, pkt, in_region):
        inner = pkt.payload["inner"]
        prefix = inner["pkt_payload"]["prefix"]
        state = self.kernel.nodes[nid].sds
        if prefix not in state.prefixes:
            return
        pid = tuple(inner["pid"])
        if pid in state.seen_pids:
            return
        state.seen_pids.add(pid)
        # lowest-id live server handles the flooded request
        peers = [sid for sid, (t, pos) in state.known_sds.get(prefix, {}).items()
                 if pos is not None
                 and t >= self.kernel.now_us - int(self.config.peer_ttl_s * US)]
        if peers and min(peers) < nid:
            return
        clone = self.kernel.new_packet(inner["pkt_payload"]["inner_kind"], nid, 1)
        clone.payload = dict(inner["pkt_payload"])
        clone.path_record = list(inner["path"])
        clone.pid = pid
        handler = self.rr_handlers.get(clone.payload["inner_kind"])
        if handler is not None:
            handler(nid, clone)

    # -- session registration ---------------------------------------------------

    def register_session(self, initiator, name, requested=None, scope_ttl=None):
        """Register a session at its rendezvous region; confirmation is async."""
        if requested is None:
            pos = self.mobility.reported_position(initiator)
            prefix, suffix = self.prefix_of_position(pos), None
        else:
            prefix, suffix = requested.prefix, requested.suffix
            self.grid.rect_of_prefix(prefix)
            if suffix is not None and not (0 <= suffix < (1 << self.config.suffix_bits)):
                raise ConfigError(f"suffix {suffix} outside suffix_bits")
        pending = {"name": name, "prefix": prefix, "want_suffix": suffix,
                   "scope_ttl": scope_ttl, "tries": 0}
        self._pending_sessions[(initiator, name)] = pending
        self._send_register(initiator, pending)

    def _send_register(self, initiator, pending):
        pending["tries"] += 1
        inner = {"initiator": initiator, "name": pending["name"],
                 "want_suffix": pending["want_suffix"],
                 "scope_ttl": pending["scope_ttl"]}
        self.lar_send(initiator, pending["prefix"], "session_register", inner)
        timeout = self.config.register_timeout_s * (2 ** (pending["tries"] - 1))
        self.kernel.schedule_in(int(timeout * US), self._register_timeout,
                                initiator, pending["name"])

    def _register_timeout(self, initiator, name):
        pending = self._pending_sessions.get((initiator, name))
        if pending is None:
            return  # answered, or provisionally assigned
        if pending["tries"] <= self.config.register_max_retries:
            self._send_register(initiator, pending)
            return
        # provisional self-assignment, reconciled on a later successful pass
        suffix = self.kernel.rng.randrange(1 << self.config.suffix_bits)
        if pending["prefix"] == WELL_KNOWN_PREFIX and suffix == WELL_KNOWN_SUFFIX:
            suffix = 1
        addr = GroupAddress(pending["prefix"], suffix)
        del self._pending_sessions[(initiator, name)]
        self.kernel.trace(initiator, "session_register",
                          {"name": name, "addr": list(addr.key()),
                           "provisional": True})
        self._confirm(initiator, name, addr, provisional=True)

    def _rr_session_register(self, nid, pkt):
        inner = pkt.payload["inner"]
        prefix = pkt.payload["prefix"]
        state = self.kernel.nodes[nid].sds
        sessions = state.sessions.setdefault(prefix, {})
        rejected = False
        suffix = None
        for sfx, meta in sessions.items():
            if meta["name"] == inner["name"]:
                suffix = sfx  # retry of an already-confirmed registration
                break
        if suffix is None:
            # (prefix 0, suffix 0) is the well-known session-advertisement group
            reserved = prefix == WELL_KNOWN_PREFIX
            want = inner["want_suffix"]
            if want is not None and want not in sessions \
                    and not (reserved and want == WELL_KNOWN_SUFFIX):
                suffix = want
            else:
                rejected = want is not None
                suffix = 1 if reserved else 0
                while suffix in sessions:
                    suffix += 1
            sessions[suffix] = {"name": inner["name"],
                                "initiator": inner["initiator"],
                                "t_us": self.kernel.now_us,
                                "scope_ttl": inner["scope_ttl"]}
            self.kernel.trace(nid, "session_register",
                              {"name": inner["name"], "addr": [prefix, suffix],
                               "rejected_requested": rejected})
            self.geocast(nid, pkt.payload["rect"], "session_update",
                         {"prefix": prefix, "suffix": suffix,
                          "meta": sessions[suffix]})
        reply_inner = {"name": inner["name"], "addr": [prefix, suffix],
                       "rejected_requested": rejected}
        self.kernel.source_reply(nid, pkt, SESSION_REPLY, {"inner": reply_inner},
                                 inner["initiator"])

    def _geo_session_update(self, nid, pkt, in_region):
        inner = pkt.payload["inner"]
        state = self.kernel.nodes[nid].sds
        if inner["prefix"] in state.prefixes:
            state.sessions.setdefault(inner["prefix"], {}) \
                .setdefault(inner["suffix"], inner["meta"])

    def _rr_session_announce(self, nid, pkt):
        inner = pkt.payload["inner"]
        state = self.kernel.nodes[nid].sds
        if inner["name"] not in state.announcements:
            state.announcements[inner["name"]] = dict(inner)
            self.geocast(nid, pkt.payload["rect"], "session_update_announce",
                         {"announce": dict(inner)})

    def _geo_session_update_announce(self, nid, pkt, in_region):
        ann = pkt.payload["inner"]["announce"]
        state = self.kernel.nodes[nid].sds
        if WELL_KNOWN_PREFIX in state.prefixes:
            state.announcements.setdefault(ann["name"], dict(ann))

    def _on_session_reply(self, nid, pkt, rx_power, sender):
        if self.kernel.relay(nid, pkt):
            return
        inner = pkt.payload["inner"]
        if self._pending_sessions.pop((nid, inner["name"]), None) is None:
            return  # a late or duplicate reply
        addr = GroupAddress(*inner["addr"])
        self._confirm(nid, inner["name"], addr, provisional=False)

    def _confirm(self, nid, name, addr, provisional):
        state = self.kernel.nodes[nid].sds
        state.known_sessions[name] = addr
        for fn in self._session_listeners:
            fn(nid, name, addr)
        announce = {"name": name, "addr": list(addr.key()), "initiator": nid,
                    "t_us": self.kernel.now_us, "provisional": provisional}
        self.lar_send(nid, WELL_KNOWN_PREFIX, "session_announce", announce)
