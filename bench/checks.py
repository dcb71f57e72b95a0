"""Output checks for one benchmark round.

Each check recomputes a property from the scenario, the trace and the final
state, without reusing the simulator's own bookkeeping for the same property.
Every function returns a list of problem strings; an empty list means the
check passed.
"""

from collections import deque

from mcastsim.kernel import US
from mcastsim.metrics import compute_metrics, jsonl_to_trace


def deliveries(trace):
    """(unique deliveries {(receiver, g, src, seq): t_us}, duplicates, sends)."""
    sends = {}
    first = {}
    dups = []
    for t_us, node, kind, detail in trace:
        if kind == "data_send":
            sends[(tuple(detail["g"]), node, detail["seq"])] = t_us
        elif kind == "data_deliver":
            key = (node, tuple(detail["g"]), detail["src"], detail["seq"])
            if key in first:
                dups.append(key)
            else:
                first[key] = t_us
    return first, dups, sends


def check_deliveries(scen, sim, trace):
    """Exactly once, after the send by at least one hop, and only to members."""
    problems = []
    first, dups, sends = deliveries(trace)
    if dups:
        problems.append(f"{len(dups)} duplicate deliveries, first {dups[0]}")
    hop_us = int(round(scen["radio"]["one_hop_latency_s"] * US))
    group_of = {name: addr.key() for name, addr in sim.session_directory.items()}
    membership = {}   # (node, group) -> [(t_us, op)] from the directive schedule
    for d in scen["workload"]:
        if d["op"] in ("join", "leave") and d["session"] in group_of:
            membership.setdefault((d["node"], group_of[d["session"]]), []).append(
                (int(d["t"] * US), d["op"]))
    early = strangers = 0
    for (rx, g, src, seq), t_us in first.items():
        sent = sends.get((g, src, seq))
        if sent is None or t_us < sent + hop_us:
            early += 1
        ops = [op for t, op in sorted(membership.get((rx, g), ())) if t <= t_us]
        if not ops or ops[-1] != "join":
            strangers += 1
    if early:
        problems.append(f"{early} deliveries without a send at least one hop earlier")
    if strangers:
        problems.append(f"{strangers} deliveries to nodes that were not members")
    delivered_groups = {g for _, g, _, _ in first}
    for name, g in sorted(group_of.items()):
        if any(g == key[0] for key in sends) and g not in delivered_groups:
            problems.append(f"session {name}: data sent but nothing delivered")
    return problems


def check_contacts(scen, sim, trace):
    """Every contact route, added or held at the end, is at most 2R+1 hops."""
    bound = 2 * scen["zone"]["radius_R"] + 1
    problems = []
    added = [d["hops"] for _, _, kind, d in trace if kind == "contact_add"]
    over = sum(1 for h in added if h > bound)
    held = [len(e.route) for n in sim.kernel.nodes.values() if n.alive
            for e in n.contacts.entries.values()]
    over += sum(1 for h in held if h > bound)
    if over:
        problems.append(f"{over} contact routes longer than {bound} hops")
    return problems


def check_counters(trace, transmissions):
    """The final counters event matches the transmissions seen at Kernel.transmit."""
    counters = [d for _, _, kind, d in trace if kind == "counters"]
    if len(counters) != 1:
        return [f"expected one counters event, found {len(counters)}"]
    want = {k: v for k, v in transmissions.items() if v}
    if counters[0] != want:
        return [f"counters {sum(counters[0].values())} != transmitted "
                f"{sum(want.values())}"]
    return []


def check_round_trip(rows, jsonl):
    """Metrics recomputed from the serialised trace equal the direct ones."""
    if compute_metrics(jsonl_to_trace(jsonl)) != rows:
        return ["metrics from the JSONL round trip differ"]
    return []


def unit_disk_zones(positions, range_m, radius):
    """{node: {member: hops}} by BFS to `radius` over the unit-disk graph."""
    r2 = range_m * range_m
    ids = sorted(positions)
    adj = {n: [] for n in ids}
    for i, a in enumerate(ids):
        ax, ay = positions[a]
        for b in ids[i + 1:]:
            bx, by = positions[b]
            if (ax - bx) ** 2 + (ay - by) ** 2 <= r2:
                adj[a].append(b)
                adj[b].append(a)
    zones = {}
    for src in ids:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            if dist[u] == radius:
                continue
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        del dist[src]
        zones[src] = dist
    return zones


def check_zones(scen, sim, trace):
    """Final zone tables equal a BFS to radius R over the final unit-disk graph."""
    finals = {n: d for _, n, kind, d in trace if kind == "node_final"}
    positions = {n: tuple(d["pos"]) for n, d in finals.items()}
    oracle = unit_disk_zones(positions, scen["radio"]["range_m"],
                             scen["zone"]["radius_R"])
    bad = []
    for n, detail in finals.items():
        table = {m: hops for m, (hops, _) in
                 sim.kernel.nodes[n].zone.table.members.items()}
        if set(detail["zone"]) != set(oracle[n]) or table != oracle[n]:
            bad.append(n)
    if bad:
        return [f"{len(bad)} zone tables differ from the unit-disk BFS, "
                f"first node {bad[0]}"]
    return []
