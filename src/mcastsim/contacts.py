"""Second hierarchy level: retain drifted zone members as long-range contacts.

A member that drops out of the zone is offered once per drift as a contact
candidate; acceptance is a probability draw combining energy, stability and
activity against the zone's existing contact supply. Live contacts are
revalidated hop-by-hop each maintenance period and repaired through border
zones, keeping every route within the 2R+1 contact-zone bound or dropping it.
"""

import math
from dataclasses import dataclass, field

from .kernel import US, CONTACT_QUERY, CONTACT_REPLY, ConfigError


@dataclass
class SelectionInputs:
    E_est: float
    S_est: float
    A_est: float
    Z_est: int

    def __post_init__(self):
        if self.E_est < 0 or self.A_est < 0:
            raise ConfigError("E_est and A_est must be >= 0")
        if not (0.0 <= self.S_est <= 1.0):
            raise ConfigError("S_est must be within [0,1]")
        if self.Z_est < 1:
            raise ConfigError("Z_est counts at least the candidate slot")


@dataclass
class ContactEntry:
    contact: int
    route: list                         # owner -> contact, owner excluded
    last_refresh_us: int
    capabilities: dict = field(default_factory=dict)
    approx_pos: tuple = (0.0, 0.0)


class ContactState:
    __slots__ = ("entries", "act_value", "act_last_us")

    def __init__(self):
        self.entries = {}      # contact nid -> ContactEntry
        self.act_value = 0.0   # exponentially decayed discovery-request counter
        self.act_last_us = 0


def energy_estimate(node_energy, contact_energy):
    """Product of the two lifetime ratios (E_left / drain), per side."""
    e1, d1 = node_energy
    e2, d2 = contact_energy
    if d1 <= 0 or d2 <= 0:
        raise ConfigError("energy drain must be positive")
    return (e1 / d1) * (e2 / d2)


def selection_probability(inputs, k=4.0, E_half=1.0, A_half=1.0):
    """p = min(1, k * E^ * S * A^ / Z) with saturating E and A normalizations."""
    e_norm = inputs.E_est / (inputs.E_est + E_half) if E_half > 0 else \
        (1.0 if inputs.E_est > 0 else 0.0)
    a_norm = inputs.A_est / (inputs.A_est + A_half) if A_half > 0 else \
        (1.0 if inputs.A_est > 0 else 0.0)
    return min(1.0, k * e_norm * inputs.S_est * a_norm / inputs.Z_est)


class ContactManager:
    """Owns contact lists, the selection draw, and the maintenance cycle."""

    def __init__(self, kernel, config, zone_mgr, mobility_mgr):
        self.kernel = kernel
        self.config = config
        self.zone = zone_mgr
        self.mobility = mobility_mgr
        self.checkpoint_listeners = []   # fn(nid, entries) after each maintenance pass
        self._qid = 0
        self._pending = {}               # qid -> {"pending": set, "cb": fn}
        for node in kernel.nodes.values():
            node.contacts = ContactState()
        zone_mgr.contact_count_fn = self.contact_count
        zone_mgr.activity_fn = self.record_discovery
        zone_mgr.zone_update_listeners.append(self._on_zone_update)
        kernel.register_handler(CONTACT_QUERY, self._on_query)
        kernel.register_handler(CONTACT_REPLY, self._on_reply)

    def start(self):
        period = int(self.config.maintenance_period_s * US)
        self.kernel.schedule_in(period, self._maintenance_cycle)

    def contact_count(self, nid):
        state = self.kernel.nodes[nid].contacts
        return len(state.entries) if state else 0

    def entries(self, nid):
        return self.kernel.node(nid).contacts.entries

    # -- activity (A_est) -----------------------------------------------------

    def record_discovery(self, nid):
        state = self.kernel.nodes[nid].contacts
        self._decay(state)
        state.act_value += 1.0

    def activity_rate(self, nid):
        state = self.kernel.nodes[nid].contacts
        self._decay(state)
        return state.act_value * math.log(2) / self.config.activity_half_life_s

    def _decay(self, state):
        now = self.kernel.now_us
        dt = (now - state.act_last_us) / US
        if dt > 0:
            state.act_value *= 2.0 ** (-dt / self.config.activity_half_life_s)
            state.act_last_us = now

    # -- drift detection and selection ----------------------------------------

    def _on_zone_update(self, nid, old_members, table):
        if not self.config.enabled:
            return
        state = self.kernel.nodes[nid].contacts
        # demote contacts that re-entered the zone
        for cid in sorted(set(state.entries) & set(table.members)):
            del state.entries[cid]
            self.kernel.trace(nid, "contact_drop", {"contact": cid, "why": "rezoned"})
        for cand in self.detect_drifting(nid, old_members, table.members):
            if cand in state.entries or len(state.entries) >= self.config.max_contacts:
                continue
            self._consider(nid, cand)

    def detect_drifting(self, nid, old_members, new_members):
        """Departed members still reachable within 2R+1 hops via a border zone."""
        out = []
        for cand in sorted(set(old_members) - set(new_members)):
            node = self.kernel.nodes.get(cand)
            if node is None or not node.alive:
                continue
            if self._route_via_borders(nid, cand) is not None:
                out.append(cand)
        return out

    def _route_via_borders(self, nid, target):
        """Shortest duplicate-free route owner->target through one border's zone.

        The target may sit one hop past the border's zone edge: zone link-state
        gives the border its members' neighbor lists, covering the full 2R+1
        contact-zone reach.

        Borders are scanned in sorted order, then each border's members, and a
        candidate replaces the best route only when it is strictly shorter, so
        the first shortest valid candidate wins. A candidate's length is known
        from the zone tables before it is built (the owner's hop distance to
        the border plus the border's to the member, plus one), and the
        candidates longer than the current limit (2R+1, then one less than
        the best route so far) are skipped unbuilt: none of them could win.
        """
        table = self.kernel.nodes[nid].zone.table
        limit = 2 * self.zone.config.radius_R + 1
        best = None

        def consider(route):
            nonlocal best, limit
            if len(route) > limit or nid in route or len(set(route)) != len(route):
                return
            if not self.kernel.route_intact(nid, route):
                return  # a repair that does not probe through is a failed repair
            best = route
            limit = len(route) - 1

        for b in sorted(table.border_set):
            d_b = table.members[b][0]
            if d_b + 1 > limit:
                continue
            bnode = self.kernel.nodes.get(b)
            if bnode is None or not bnode.alive:
                continue
            bzone = bnode.zone
            bmembers = bzone.table.members
            r1 = self.zone.intra_zone_route(nid, b)
            if target in bmembers:
                if d_b + bmembers[target][0] <= limit:
                    consider(r1 + self.zone.intra_zone_route(b, target))
                continue
            if target in self.kernel.neighbors(b):
                consider(r1 + [target])
            for m in sorted(bmembers):
                if d_b + bmembers[m][0] + 1 > limit:
                    continue
                adv_m = bzone.adverts.get(m)
                if adv_m is None or target not in adv_m[1]:
                    continue
                consider(r1 + self.zone.intra_zone_route(b, m) + [target])
        return best

    def _consider(self, nid, cand):
        p = self._probability(nid, cand)
        if self.kernel.rng.random() < p:
            self._add_contact(nid, cand)

    def _probability(self, nid, cand):
        node = self.kernel.nodes[nid]
        cnode = self.kernel.nodes[cand]
        e_est = energy_estimate(
            (self.kernel.energy_left(nid), node.drain_w),
            (self.kernel.energy_left(cand), cnode.drain_w))
        s_est = self.mobility.stability(nid, cand)
        a_est = self.activity_rate(nid)
        z_est = 1
        for m in node.zone.table.members:
            adv = node.zone.adverts.get(m)
            if adv is not None:
                z_est += adv[2]
        p = selection_probability(SelectionInputs(e_est, s_est, a_est, z_est),
                                  self.config.k, self.config.E_half,
                                  self.config.A_half)
        if self.config.capability_bonus > 0 and self._capabilities(cand):
            p = min(1.0, p + self.config.capability_bonus)
        return p

    def _capabilities(self, cand):
        cnode = self.kernel.nodes[cand]
        caps = {}
        if cnode.sds is not None and cnode.sds.prefixes:
            caps["sds_for"] = sorted(cnode.sds.prefixes)
        return caps

    def _add_contact(self, nid, cand):
        route = self._route_via_borders(nid, cand)
        if route is None:
            return
        entry = ContactEntry(contact=cand, route=route,
                             last_refresh_us=self.kernel.now_us)
        self._refresh(entry)
        self.kernel.nodes[nid].contacts.entries[cand] = entry
        self.kernel.trace(nid, "contact_add", {"contact": cand, "hops": len(route)})

    # -- maintenance -----------------------------------------------------------

    def _maintenance_cycle(self):
        for nid in sorted(self.kernel.nodes):
            node = self.kernel.nodes[nid]
            if not node.alive:
                continue
            for cid in sorted(node.contacts.entries):
                self.maintain_contact(nid, cid)
            for fn in self.checkpoint_listeners:
                fn(nid, node.contacts.entries)
        self.kernel.schedule_in(int(self.config.maintenance_period_s * US),
                                self._maintenance_cycle)

    def maintain_contact(self, nid, cid):
        """Revalidate one contact route; repair through border zones or drop."""
        node = self.kernel.nodes[nid]
        entry = node.contacts.entries.get(cid)
        if entry is None:
            return None
        bound = 2 * self.zone.config.radius_R + 1
        cnode = self.kernel.nodes.get(cid)
        if cnode is None or not cnode.alive:
            return self._drop(nid, cid, "dead")
        if cid in node.zone.table.members:
            return self._drop(nid, cid, "rezoned")
        if self.kernel.route_intact(nid, entry.route) and len(entry.route) <= bound:
            self._refresh(entry)
            return entry
        repaired = self._route_via_borders(nid, cid)
        if repaired is None:
            return self._drop(nid, cid, "unreachable")
        entry.route = repaired
        self._refresh(entry)
        return entry

    def _refresh(self, entry):
        entry.last_refresh_us = self.kernel.now_us
        entry.approx_pos = self.kernel.nodes[entry.contact].pos()
        entry.capabilities = self._capabilities(entry.contact)

    def _drop(self, nid, cid, why):
        del self.kernel.nodes[nid].contacts.entries[cid]
        self.kernel.trace(nid, "contact_drop", {"contact": cid, "why": why})
        return None

    # -- contact-assisted queries ------------------------------------------------

    def contact_query(self, nid, pred, on_reply=None, timeout_s=0.5):
        """Unicast the predicate along every contact route; replies via on_reply."""
        state = self.kernel.nodes[nid].contacts
        self.record_discovery(nid)
        self._qid += 1
        qid = (nid, self._qid, "cq")
        self.kernel.trace(nid, "contact_query", {"n": len(state.entries)})
        if not state.entries:
            return qid
        self._pending[qid] = {"pending": set(state.entries), "cb": on_reply}
        for cid in sorted(state.entries):
            self.kernel.source_route(nid, CONTACT_QUERY, state.entries[cid].route,
                                     {"qid": qid, "pred": pred, "origin": nid})
        self.kernel.schedule_in(int(timeout_s * US), self._expire, qid)
        return qid

    def _on_query(self, nid, pkt, rx_power, sender):
        if self.kernel.relay(nid, pkt):
            return
        self.record_discovery(nid)
        detail = self.zone.evaluate(nid, pkt.payload["pred"])
        if detail is None:
            detail = self._eval_own_contacts(nid, pkt.payload["pred"])
        if detail is None:
            return
        payload = {"qid": pkt.payload["qid"], "detail": detail, "contact": nid,
                   "query_path": list(pkt.path_record)}
        self.kernel.source_reply(nid, pkt, CONTACT_REPLY, payload,
                                 pkt.payload["origin"])

    def _eval_own_contacts(self, nid, pred):
        """One level of contact recursion: consult own contact metadata only."""
        if pred.get("kind") != "sds_for":
            return None
        prefix = pred["prefix"]
        for cid in sorted(self.kernel.nodes[nid].contacts.entries):
            entry = self.kernel.nodes[nid].contacts.entries[cid]
            if prefix in entry.capabilities.get("sds_for", ()):
                return {"sds": cid, "via_contact_of": nid}
        return None

    def _on_reply(self, nid, pkt, rx_power, sender):
        if self.kernel.relay(nid, pkt):
            return
        rec = self._pending.get(pkt.payload["qid"])
        if rec is None:
            return
        rec["pending"].discard(pkt.payload["contact"])
        if rec["cb"] is not None:
            rec["cb"](pkt.payload["detail"], pkt.payload["query_path"])

    def _expire(self, qid):
        rec = self._pending.pop(qid)
        nid = qid[0]
        for cid in sorted(rec["pending"]):
            if cid in self.kernel.nodes[nid].contacts.entries:
                self.maintain_contact(nid, cid)
