"""Deterministic discrete-event kernel: clock, node registry, radio, one-hop delivery,
and the source-routing, greedy-step and route-probe helpers the layers share.

Time is kept as integer microseconds so event ordering and traces are exact.
Events run in order of time, then FIFO: two events for the same instant run in
the order they were scheduled, including one scheduled for the current instant
from inside another. The pending events are kept as a min-heap of distinct
instants plus one deque per instant, so events that share an instant share one
heap entry. A handle is the hashable pair ``(t_us, seq)``, where ``seq``
numbers the schedule calls.
Links are unit-disk (inclusive boundary); the path-loss formula is only used
to produce received-power samples, never to drop packets.

Delivery contract: a transmission reaches its handler one hop later, as
``fn(nid, packet, rx_power, sender)`` per live receiver, or only at
``packet.dst`` when that is set. The kinds in ``BATCH_KINDS`` (the zone advert
and group-query floods, whose receptions are mostly duplicates) instead reach
their handler once per transmission, with the tuple of receivers as the first
argument: every neighbor that heard it, in ascending order, live or not, or
``(dst,)`` for a dst-directed packet. Such a handler walks the tuple itself,
skips receivers that are not alive, and acts for each in order, so the events
it schedules keep the order of per-receiver calls. With packet tracing on, every
kind is delivered per receiver, a batch kind as the one-receiver tuple
``(nid,)``, after that receiver's ``packet_recv`` event.

Ownership: handlers receive the transmitted object itself. The handler of a
dst-directed packet is its only owner, and relays it with ``forward``, which
sends that same object on; the receivers of a broadcast share one object, so
each relays its own ``hop_copy()``, made after its dedup checks.
"""

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass, field

US = 1_000_000  # microseconds per second


class SimError(Exception):
    pass


class ConfigError(SimError):
    """Bad configuration or precondition violation (exit code 1 territory)."""


class FatalSimError(SimError):
    """Unrecoverable runtime error (exit code 2 territory)."""


# Packet kinds (wire-visible names, also used as control-packet counter keys)
HELLO = "hello"
ZONE_LINK_STATE = "zone_link_state"
BORDERCAST_QUERY = "bordercast_query"
BORDERCAST_REPLY = "bordercast_reply"
CONTACT_QUERY = "contact_query"
CONTACT_REPLY = "contact_reply"
ADV = "adv"
JOIN_QUERY = "join_query"
JOIN_REPLY = "join_reply"
JOIN_REQUEST = "join_request"
MESH_LEAVE = "mesh_leave"
BRANCH_BREAK = "branch_break"
DATA = "data"
SDS_ADVERT = "sds_advert"
SDS_SYNC = "sds_sync"
SESSION_REPLY = "session_reply"
GROUP_QUERY = "group_query"
GROUP_QUERY_REPLY = "group_query_reply"
LAR_FORWARD = "lar_forward"
GEOCAST = "geocast"

# Kinds whose handler takes the tuple of receivers of one transmission
BATCH_KINDS = frozenset({ZONE_LINK_STATE, GROUP_QUERY})


def reverse_route(path_record, origin):
    """Reply route from the path's last node (the replier) back to origin.

    Loops are erased as DSR does (Johnson & Maltz, 1996): for each node visited
    more than once, the stretch between its first and last visit is cut.
    """
    route = []
    for hop in list(reversed(path_record[:-1])) + [origin]:
        if hop in route:
            del route[route.index(hop) + 1:]
        else:
            route.append(hop)
    return route


@dataclass
class RadioModel:
    tx_power_w: float = 0.1
    range_m: float = 250.0
    path_loss_exp: float = 2.0
    ref_distance_m: float = 1.0

    def received_power(self, distance_m):
        """Received power at the given distance; flat inside the reference distance."""
        if distance_m < self.ref_distance_m:
            return self.tx_power_w
        return self.tx_power_w * (self.ref_distance_m / distance_m) ** self.path_loss_exp


@dataclass(slots=True)
class Packet:
    kind: str
    src: int
    ttl_hops: int
    payload: dict = field(default_factory=dict)
    path_record: list = field(default_factory=list)
    dst: int | None = None  # None = broadcast processing at every neighbor
    pid: tuple = None       # (origin, seq) set by Kernel.new_packet

    def hop_copy(self):
        """Copy for relaying: shared payload, own ttl/path_record."""
        return Packet(self.kind, self.src, self.ttl_hops, self.payload,
                      list(self.path_record), self.dst, self.pid)


class Node:
    """One mobile node. Protocol layers hang their per-node state off this object."""

    __slots__ = ("nid", "x", "y", "energy_j", "drain_w", "alive",
                 "zone", "contacts", "mob", "sds", "mcast", "sds_capable")

    def __init__(self, nid, x, y, energy_j=1000.0, drain_w=1.0):
        self.nid = nid
        self.x = x
        self.y = y
        self.energy_j = energy_j
        self.drain_w = drain_w
        self.alive = True
        self.sds_capable = True
        self.zone = None
        self.contacts = None
        self.mob = None
        self.sds = None
        self.mcast = None

    def pos(self):
        return (self.x, self.y)


class Kernel:
    """Single-threaded event loop owning all node state."""

    def __init__(self, area_w, area_h, radio=None, seed=0, one_hop_latency_s=0.001,
                 trace_packets=False):
        self.area_w = float(area_w)
        self.area_h = float(area_h)
        self.radio = radio or RadioModel()
        self.rng = random.Random(seed)
        self.seed = seed
        self.latency_us = int(round(one_hop_latency_s * US))
        self.now_us = 0
        self.trace_packets = trace_packets

        self.nodes = {}
        self._times = []           # min-heap of the distinct pending instants
        self._buckets = {}         # t_us -> deque of (seq, fn, args), FIFO
        self._cancelled = set()    # seqs of pending events that will not run
        self._seq = 0
        self._pkt_seq = 0

        self._nbr_sets = {}        # nid -> frozenset of neighbor ids
        self._nbr_sorted = {}      # nid -> tuple, rebuilt (not mutated) per rebuild
        self._link_listeners = []
        self.handlers = {}         # packet kind -> fn(nid or receivers, packet,
                                   #                 rx_power, sender)
        self.packet_counts = {}    # kind -> transmissions
        self.trace_events = []     # (t_us, node, kind, detail)
        self.debug_hook = None     # called after every processed event

    # -- nodes and links ----------------------------------------------------

    def add_node(self, nid, x, y, energy_j=1000.0, drain_w=1.0):
        if nid in self.nodes:
            raise ConfigError(f"duplicate node id {nid}")
        if not (0 <= x <= self.area_w and 0 <= y <= self.area_h):
            raise ConfigError(f"node {nid} position outside area")
        node = Node(nid, x, y, energy_j, drain_w)
        self.nodes[nid] = node
        self._nbr_sets[nid] = frozenset()
        self._nbr_sorted[nid] = ()
        return node

    def node(self, nid):
        try:
            return self.nodes[nid]
        except KeyError:
            raise FatalSimError(f"unknown node {nid}") from None

    def energy_left(self, nid):
        node = self.node(nid)
        return max(0.0, node.energy_j - node.drain_w * self.now_us / US)

    def kill_node(self, nid):
        """Remove a node from the radio graph (failure/partition directives)."""
        self.node(nid).alive = False
        self.rebuild_links()

    def on_link_change(self, fn):
        """Register fn(nid, added, removed), called per affected node after rebuilds."""
        self._link_listeners.append(fn)

    def rebuild_links(self):
        """Recompute the unit-disk graph via a grid index; notify listeners of diffs."""
        cell = self.radio.range_m
        grid = {}
        live = [n for n in self.nodes.values() if n.alive]
        for n in live:
            grid.setdefault((int(n.x // cell), int(n.y // cell)), []).append(n)
        r2 = self.radio.range_m ** 2
        changes = []
        for n in live:
            cx, cy = int(n.x // cell), int(n.y // cell)
            found = []
            for gx in (cx - 1, cx, cx + 1):
                for gy in (cy - 1, cy, cy + 1):
                    for m in grid.get((gx, gy), ()):
                        if m.nid == n.nid:
                            continue
                        dx = m.x - n.x
                        dy = m.y - n.y
                        if dx * dx + dy * dy <= r2:
                            found.append(m.nid)
            new = frozenset(found)
            old = self._nbr_sets[n.nid]
            if new != old:
                changes.append((n.nid, sorted(new - old), sorted(old - new)))
                self._nbr_sets[n.nid] = new
                self._nbr_sorted[n.nid] = tuple(sorted(new))
        for n in self.nodes.values():
            if not n.alive and self._nbr_sets[n.nid]:
                changes.append((n.nid, [], sorted(self._nbr_sets[n.nid])))
                self._nbr_sets[n.nid] = frozenset()
                self._nbr_sorted[n.nid] = ()
        changes.sort()
        for nid, added, removed in changes:
            for fn in self._link_listeners:
                fn(nid, added, removed)
        return changes

    def neighbors(self, nid):
        self.node(nid)
        return self._nbr_sets[nid]

    def sorted_neighbors(self, nid):
        return self._nbr_sorted[nid]

    def are_neighbors(self, a, b):
        return b in self._nbr_sets[a]

    # -- events ---------------------------------------------------------------

    def schedule_at(self, t_us, fn, *args):
        """Run fn(*args) at t_us; return its handle ``(t_us, seq)``."""
        if t_us < self.now_us:
            raise ConfigError(f"scheduling in the past: {t_us} < {self.now_us}")
        seq = self._seq
        self._seq = seq + 1
        bucket = self._buckets.get(t_us)
        if bucket is None:
            bucket = self._buckets[t_us] = deque()
            heapq.heappush(self._times, t_us)
        bucket.append((seq, fn, args))
        return (t_us, seq)

    def schedule_in(self, dt_us, fn, *args):
        return self.schedule_at(self.now_us + int(dt_us), fn, *args)

    def cancel(self, handle):
        """Keep a pending event from running; a no-op for one that ran or was skipped.

        handle is the ``(t_us, seq)`` pair schedule_at returned. Events run by
        time, then FIFO, so they leave each instant's deque from the head in seq
        order: an event is pending while its instant's deque exists and the
        deque's head is not later than it.
        """
        t_us, seq = handle
        bucket = self._buckets.get(t_us)
        if bucket and bucket[0][0] <= seq:
            self._cancelled.add(seq)

    def run_until(self, t_us):
        """Process all events with time <= t_us, by time and then FIFO; advance
        the clock to t_us. An event scheduled for the current instant runs in
        this call, after the events already scheduled for it."""
        if t_us < self.now_us:
            raise ConfigError("run_until target is in the past")
        times = self._times
        buckets = self._buckets
        cancelled = self._cancelled
        while times and times[0] <= t_us:
            ev_t = times[0]
            bucket = buckets[ev_t]
            self.now_us = ev_t
            while bucket:
                seq, fn, args = bucket.popleft()
                if seq in cancelled:
                    cancelled.discard(seq)
                    continue
                fn(*args)
                if self.debug_hook is not None:
                    self.debug_hook()
            heapq.heappop(times)
            del buckets[ev_t]
        self.now_us = t_us

    # -- radio ----------------------------------------------------------------

    def register_handler(self, kind, fn):
        """fn(nid, packet, rx_power, sender) handles kind's receptions; nid is the
        tuple of receivers for the kinds in BATCH_KINDS."""
        self.handlers[kind] = fn

    def new_packet(self, kind, src, ttl_hops, payload=None, dst=None):
        self._pkt_seq += 1
        return Packet(kind, src, ttl_hops, payload or {}, [], dst,
                      pid=(src, self._pkt_seq))

    def transmit(self, sender, packet):
        """Broadcast one hop.

        Every current neighbor receives a copy after the one-hop latency;
        handler dispatch is limited to packet.dst when set (unicast processing).
        Received power is computed for hellos, which feed the mobility metric;
        other deliveries carry None.
        """
        snode = self.node(sender)
        if packet.ttl_hops <= 0:
            raise ConfigError("transmit requires ttl_hops > 0")
        self.packet_counts[packet.kind] = self.packet_counts.get(packet.kind, 0) + 1
        receivers = self._nbr_sorted[sender]
        powers = None
        if packet.kind == HELLO:
            received = self.radio.received_power
            sx, sy = snode.x, snode.y
            nodes = self.nodes
            powers = [received(math.hypot(nodes[nid].x - sx, nodes[nid].y - sy))
                      for nid in receivers]
        if self.trace_packets:
            self.trace(sender, "packet_send",
                       {"pkt": packet.kind, "to": list(receivers)})
        if receivers:
            self.schedule_at(self.now_us + self.latency_us, self._deliver, sender,
                             packet, receivers, powers)

    def forward(self, nid, pkt, dst):
        """Relay pkt itself, which the caller owns, one hop to dst (None: a
        broadcast), spending one hop of its TTL; a spent packet stops here."""
        if pkt.ttl_hops > 1:
            pkt.ttl_hops -= 1
            pkt.dst = dst
            self.transmit(nid, pkt)

    # -- source routing -----------------------------------------------------
    # A source-routed packet carries its explicit route (sender excluded) as
    # payload["route"] and a TTL of len(route) + 1. Each hop's handler calls
    # relay() (or route_hop() when it must act before forwarding) and runs its
    # terminal logic only at the last hop.

    def source_route(self, sender, kind, route, payload, path_record=()):
        """Send a new packet along route; path_record seeds its recorded path."""
        payload["route"] = tuple(route)
        pkt = self.new_packet(kind, sender, len(route) + 1, payload, dst=route[0])
        pkt.path_record = list(path_record)
        self.transmit(sender, pkt)

    def source_reply(self, nid, query, kind, payload, origin):
        """Answer query back along its recorded path to origin.

        With no path to walk (nothing recorded, or nid is origin) the reply goes
        straight to kind's handler at origin, as a packet routed (origin,).
        """
        back = reverse_route(query.path_record, origin) if query.path_record else []
        if back and back != [nid]:
            self.source_route(nid, kind, back, payload)
            return
        payload["route"] = (origin,)
        pkt = self.new_packet(kind, nid, 1, payload, dst=origin)
        handler = self.handlers.get(kind)
        if handler is not None:
            handler(origin, pkt, None, nid)

    def route_hop(self, nid, pkt):
        """Record a source-routed packet at nid; return (previous hop, next hop).

        The previous hop of the first hop is the packet's source; the next hop
        of the last hop is None. A route visits each node once (reverse_route
        erases the loops of reply routes), so nid's position on it is unique.
        """
        pkt.path_record.append(nid)
        route = pkt.payload["route"]
        pos = route.index(nid)
        prev = route[pos - 1] if pos else pkt.src
        return prev, route[pos + 1] if pos + 1 < len(route) else None

    def relay(self, nid, pkt):
        """Forward a source-routed packet from nid; False when nid is its last hop.

        The packet goes on even when the next hop is no longer adjacent: the
        transmission is counted and reaches no handler.
        """
        nxt = self.route_hop(nid, pkt)[1]
        if nxt is None:
            return False
        self.forward(nid, pkt, nxt)
        return True

    # -- geometry helpers for the routing layers ----------------------------

    def closer_node(self, nid, goal, candidates=None):
        """The live candidate closest to goal and strictly closer than nid.

        Candidates default to nid's neighbors; ties go to the earliest one;
        None when no candidate is closer (a greedy local minimum).
        """
        gx, gy = goal
        me = self.nodes[nid]
        best, best_d = None, math.hypot(me.x - gx, me.y - gy)
        nodes = self.nodes
        for c in self._nbr_sorted[nid] if candidates is None else candidates:
            n = nodes.get(c)
            if n is None or not n.alive:
                continue
            d = math.hypot(n.x - gx, n.y - gy)
            if d < best_d:
                best, best_d = c, d
        return best

    def route_intact(self, nid, route):
        """True when each hop of route (nid excluded) is adjacent to the one before."""
        prev = nid
        for hop in route:
            if hop not in self._nbr_sets[prev]:
                return False
            prev = hop
        return True

    def _deliver(self, sender, packet, receivers, powers):
        """Hand one transmission to its kind's handler (see the module docstring).

        dst is read first: the handler at dst may relay the packet, and so change
        it, while packet tracing walks the other receivers."""
        dst = packet.dst
        handler = self.handlers.get(packet.kind)
        batch = packet.kind in BATCH_KINDS
        nodes = self.nodes
        trace_packets = self.trace_packets
        if not trace_packets:
            if handler is None:
                return
            if dst is not None:
                if dst not in receivers:
                    return
                node = nodes.get(dst)
                if node is not None and node.alive:
                    rx = powers[receivers.index(dst)] if powers else None
                    handler((dst,) if batch else dst, packet, rx, sender)
                return
            if batch:
                handler(receivers, packet, None, sender)
                return
        for i, nid in enumerate(receivers):
            node = nodes.get(nid)
            if node is None or not node.alive:
                continue
            if trace_packets:
                self.trace(nid, "packet_recv",
                           {"pkt": packet.kind, "from": sender, "dst": dst})
            if dst is not None and dst != nid:
                continue
            if handler is not None:
                handler((nid,) if batch else nid, packet,
                        powers[i] if powers else None, sender)

    # -- trace ------------------------------------------------------------

    def trace(self, node, kind, detail):
        self.trace_events.append((self.now_us, node, kind, detail))
