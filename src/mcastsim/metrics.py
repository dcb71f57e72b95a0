"""Metrics computed purely from a trace, so saved traces recompute identically:
delivery ratios, control overhead, discovery hop statistics, SDS counts, and
small-world overlay statistics (zone-only versus zone-plus-contacts)."""

import json
import random
from collections import Counter

from .kernel import US, ConfigError

PAIR_SAMPLES = 1000
ALL_PAIRS_LIMIT = 200


_encode = json.JSONEncoder(separators=(",", ":")).encode


def trace_to_jsonl(trace_events):
    lines = []
    for t_us, node, kind, detail in trace_events:
        obj = {"t": round(t_us / US, 6), "node": node, "kind": kind,
               "detail": detail}
        lines.append(_encode(obj))
    return "\n".join(lines) + ("\n" if lines else "")


def jsonl_to_trace(text):
    """Parse trace_to_jsonl's output; ConfigError names the first line that is
    not a trace event."""
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            out.append((int(round(obj["t"] * US)), obj["node"], obj["kind"],
                        obj["detail"]))
        except (ValueError, KeyError, TypeError, OverflowError) as e:
            raise ConfigError(f"trace line {lineno} is not a trace event: "
                              f"{type(e).__name__}: {e}") from None
    return out


def compute_metrics(trace_events):
    """Reduce a trace to an ordered list of (metric, key, value) rows."""
    sends = {}           # group key tuple -> set of (src, seq)
    delivers = {}        # group -> {receiver -> set of (src, seq)}
    joined = {}          # group -> set of receivers with a successful discovery
    join_hops = []
    handoff_hops = []
    counters = {}
    sds_events = []      # (t_us, prefix, +1/-1)
    meta = {"seed": 0, "n": 0, "contacts_enabled": True}
    finals = {}          # nid -> node_final detail

    for t_us, node, kind, detail in trace_events:
        if kind == "data_send":
            g = tuple(detail["g"])
            sends.setdefault(g, set()).add((node, detail["seq"]))
        elif kind == "data_deliver":
            g = tuple(detail["g"])
            delivers.setdefault(g, {}).setdefault(node, set()).add(
                (detail["src"], detail["seq"]))
        elif kind == "join_stage":
            if detail["status"] == "success" and detail["q"] == "group_info":
                g = tuple(detail["g"])
                joined.setdefault(g, set()).add(node)
                join_hops.append(detail.get("hops", 0))
        elif kind == "handoff":
            handoff_hops.append(detail["hops_to_mesh"])
        elif kind == "counters":
            counters = detail
        elif kind == "sds_promote":
            sds_events.append((t_us, detail["prefix"], 1))
        elif kind == "sds_leave":
            sds_events.append((t_us, detail["prefix"], -1))
        elif kind == "sim_meta":
            meta = detail
        elif kind == "node_final":
            finals[node] = detail

    rows = []
    for g in sorted(sends):
        n_sent = len(sends[g])
        receivers = set(joined.get(g, set()))
        for r in delivers.get(g, {}):
            receivers.add(r)
        receivers.discard(None)
        got = sum(len(delivers.get(g, {}).get(r, ())) for r in receivers)
        want = n_sent * len(receivers)
        ratio = got / want if want else 0.0
        rows.append(("delivery_ratio", f"{g[0]}.{g[1]}", min(1.0, ratio)))
    rows.append(("data_packets", "", counters.get("data", 0)))
    for kind in sorted(counters):
        if kind != "data":
            rows.append(("control_packets", kind, counters[kind]))
    rows.append(("control_packets_total", "",
                 sum(v for k, v in counters.items() if k != "data")))
    if join_hops:
        rows.append(("join_hops_mean", "", _mean(join_hops)))
        rows.append(("join_hops_p50", "", _pct(join_hops, 50)))
        rows.append(("join_hops_p90", "", _pct(join_hops, 90)))
    if handoff_hops:
        rows.append(("handoff_hops_to_mesh_mean", "", _mean(handoff_hops)))
    for prefix, series in sorted(sds_count_series(sds_events).items()):
        final = series[-1][1]
        peak = max(v for _, v in series)
        rows.append(("sds_count_final", str(prefix), final))
        rows.append(("sds_count_peak", str(prefix), peak))
    if finals:
        zone_g = overlay_graph(finals, contacts=False)
        both_g = overlay_graph(finals, contacts=True)
        apl_z, cc_z, flag_z = overlay_graph_stats(zone_g, meta["seed"])
        apl_b, cc_b, flag_b = overlay_graph_stats(both_g, meta["seed"])
        rows.append(("overlay_avg_path_length", "zone", apl_z))
        rows.append(("overlay_avg_path_length", "zone_contacts", apl_b))
        rows.append(("overlay_clustering", "zone", cc_z))
        rows.append(("overlay_clustering", "zone_contacts", cc_b))
        rows.append(("overlay_disconnected", "zone", int(flag_z)))
        rows.append(("overlay_disconnected", "zone_contacts", int(flag_b)))
        rows.append(("discovery_hops", "zone", apl_z))
        rows.append(("discovery_hops", "zone_contacts", apl_b))
    return rows


def _mean(xs):
    return sum(xs) / len(xs)


def _pct(xs, p):
    xs = sorted(xs)
    idx = min(len(xs) - 1, max(0, int(round(p / 100 * (len(xs) - 1)))))
    return xs[idx]


def sds_count_series(sds_events):
    series = {}
    counts = {}
    for t_us, prefix, delta in sds_events:
        counts[prefix] = counts.get(prefix, 0) + delta
        series.setdefault(prefix, []).append((t_us, counts[prefix]))
    return series


def overlay_graph(finals, contacts):
    """Adjacency sets: zone co-membership edges, plus contact links if asked."""
    adj = {nid: set() for nid in finals}
    for nid, detail in finals.items():
        for m in detail["zone"]:
            if m in adj:
                adj[nid].add(m)
                adj[m].add(nid)
        if contacts:
            for c in detail["contacts"]:
                if c in adj:
                    adj[nid].add(c)
                    adj[c].add(nid)
    return adj


def overlay_graph_stats(adj, seed):
    """(avg path length, clustering coefficient, disconnected-flag).

    Path length is over sampled pairs (all pairs for small graphs) within the
    largest connected component when the overlay is disconnected. All pairs
    are measured by one bit-parallel BFS: each distinct source owns one bit
    of an int, every level ORs each frontier node's new bits into its
    neighbours, and a bit reaching a node for the first time at level d adds
    d once per sampled pair (source, node); a pair sampled twice counts twice.
    """
    nodes = sorted(adj)
    if not nodes:
        return 0.0, 0.0, False
    comp = _largest_component(adj, nodes)
    disconnected = len(comp) != len(nodes)
    comp_sorted = sorted(comp)
    if len(comp_sorted) < 2:
        return 0.0, _clustering(adj, nodes), disconnected
    if len(comp_sorted) <= ALL_PAIRS_LIMIT:
        pairs = [(a, b) for i, a in enumerate(comp_sorted)
                 for b in comp_sorted[i + 1:]]
    else:
        rng = random.Random(seed ^ 0x5EED)
        pairs = []
        for _ in range(PAIR_SAMPLES):
            a, b = rng.sample(comp_sorted, 2)
            pairs.append((a, b))
    total, counted = _sum_pair_distances(adj, pairs)
    apl = total / counted if counted else 0.0
    return apl, _clustering(adj, nodes), disconnected


def _sum_pair_distances(adj, pairs):
    """(sum of BFS hop distances, reachable pair count) over pairs (a, b)."""
    bit = {a: 1 << i for i, a in enumerate(dict.fromkeys(a for a, _ in pairs))}
    counts = Counter(pairs)
    # wanted[k][b]: bits of the sources a whose pair (a, b) occurs more than k times
    wanted = [{} for _ in range(max(counts.values(), default=0))]
    for (a, b), c in counts.items():
        for layer in wanted[:c]:
            layer[b] = layer.get(b, 0) | bit[a]
    total = 0
    counted = 0
    seen = dict(bit)
    frontier = dict(bit)
    d = 0
    while frontier:
        d += 1
        reached = {}
        for u, mask in frontier.items():
            for v in adj[u]:
                reached[v] = reached.get(v, 0) | mask
        frontier = {}
        for v, mask in reached.items():
            new = mask & ~seen.get(v, 0)
            if not new:
                continue
            seen[v] = seen.get(v, 0) | new
            frontier[v] = new
            for layer in wanted:
                n = (new & layer.get(v, 0)).bit_count()
                if not n:
                    break
                total += d * n
                counted += n
    return total, counted


def _bfs(adj, src):
    dist = {src: 0}
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist

def _largest_component(adj, nodes):
    seen = set()
    best = set()
    for n in nodes:
        if n in seen:
            continue
        comp = set(_bfs(adj, n))
        seen |= comp
        if len(comp) > len(best):
            best = comp
    return best


def _clustering(adj, nodes):
    total = 0.0
    for n in nodes:
        nbrs = adj[n]
        k = len(nbrs)
        if k < 2:
            continue
        # each link among the neighbours is seen from both ends (no self-loops)
        links = sum(len(adj[u] & nbrs) for u in nbrs) // 2
        total += 2.0 * links / (k * (k - 1))
    return total / len(nodes) if nodes else 0.0


def metrics_to_csv(rows):
    out = ["metric,key,value"]
    for metric, key, value in rows:
        if isinstance(value, float):
            value = repr(value)
        out.append(f"{metric},{key},{value}")
    return "\n".join(out) + "\n"
