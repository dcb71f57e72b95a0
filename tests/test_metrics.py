"""Overlay statistics against the per-source BFS they replaced.

``reference_overlay_graph_stats`` is the former ``overlay_graph_stats``: one
full BFS from every distinct sampled source. The bit-parallel traversal must
return the same tuple, floats included, on every graph.
"""

import random

import networkx as nx
import pytest

from mcastsim.metrics import (ALL_PAIRS_LIMIT, PAIR_SAMPLES, _clustering,
                              _largest_component, overlay_graph,
                              overlay_graph_stats)


def _reference_bfs(adj, src):
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


def _reference_clustering(adj, nodes):
    total = 0.0
    for n in nodes:
        nbrs = sorted(adj[n])
        k = len(nbrs)
        if k < 2:
            continue
        links = 0
        for i, u in enumerate(nbrs):
            au = adj[u]
            for v in nbrs[i + 1:]:
                if v in au:
                    links += 1
        total += 2.0 * links / (k * (k - 1))
    return total / len(nodes) if nodes else 0.0


def reference_overlay_graph_stats(adj, seed):
    nodes = sorted(adj)
    if not nodes:
        return 0.0, 0.0, False
    comp = _largest_component(adj, nodes)
    disconnected = len(comp) != len(nodes)
    comp_sorted = sorted(comp)
    if len(comp_sorted) < 2:
        return 0.0, _reference_clustering(adj, nodes), disconnected
    if len(comp_sorted) <= ALL_PAIRS_LIMIT:
        pairs = [(a, b) for i, a in enumerate(comp_sorted)
                 for b in comp_sorted[i + 1:]]
    else:
        rng = random.Random(seed ^ 0x5EED)
        pairs = []
        for _ in range(PAIR_SAMPLES):
            a, b = rng.sample(comp_sorted, 2)
            pairs.append((a, b))
    total = 0
    counted = 0
    cache = {}
    for a, b in pairs:
        dists = cache.get(a)
        if dists is None:
            dists = _reference_bfs(adj, a)
            cache[a] = dists
        d = dists.get(b)
        if d is not None:
            total += d
            counted += 1
    apl = total / counted if counted else 0.0
    return apl, _reference_clustering(adj, nodes), disconnected


def adjacency(g):
    finals = {n: {"zone": sorted(g.neighbors(n)), "contacts": []}
              for n in g.nodes}
    return overlay_graph(finals, contacts=False)


def geometric(n, radius, seed):
    return nx.random_geometric_graph(n, radius, seed=seed)


@pytest.mark.parametrize("n,radius,seed", [
    (400, 0.12, 1),     # connected, well above the all-pairs limit
    (600, 0.09, 2),
    (1000, 0.07, 3),
    (600, 0.06, 4),     # disconnected: the 595-node component is sampled
    (400, 0.07, 5),     # nine components, the largest has 314 nodes
    (300, 0.07, 5),     # largest component (135) below the limit: all its pairs
])
def test_geometric_graphs_match_per_source_bfs(n, radius, seed):
    adj = adjacency(geometric(n, radius, seed))
    for stats_seed in (0, seed, 12345):
        assert (overlay_graph_stats(adj, stats_seed)
                == reference_overlay_graph_stats(adj, stats_seed))


def test_sampled_pairs_repeat_and_still_match():
    # A 210-node component with 1000 samples repeats pairs: each counts twice.
    adj = adjacency(geometric(ALL_PAIRS_LIMIT + 10, 0.2, 6))
    comp = sorted(_largest_component(adj, sorted(adj)))
    assert len(comp) > ALL_PAIRS_LIMIT
    rng = random.Random(7 ^ 0x5EED)
    pairs = [tuple(rng.sample(comp, 2)) for _ in range(PAIR_SAMPLES)]
    assert len(set(pairs)) < len(pairs)
    assert overlay_graph_stats(adj, 7) == reference_overlay_graph_stats(adj, 7)


@pytest.mark.parametrize("n,radius,seed", [
    (200, 0.15, 1), (150, 0.1, 2), (60, 0.3, 3), (120, 0.08, 4), (3, 1.0, 5),
])
def test_all_pairs_match_per_source_bfs(n, radius, seed):
    adj = adjacency(geometric(n, radius, seed))
    assert overlay_graph_stats(adj, 0) == reference_overlay_graph_stats(adj, 0)


def test_disconnected_graphs_are_flagged():
    for n, radius, seed in ((600, 0.06, 4), (300, 0.07, 5)):
        adj = adjacency(geometric(n, radius, seed))
        assert overlay_graph_stats(adj, 0)[2] is True


@pytest.mark.parametrize("g", [
    nx.empty_graph(0), nx.empty_graph(1), nx.empty_graph(2), nx.path_graph(2),
], ids=["0-nodes", "1-node", "2-isolated", "2-linked"])
def test_tiny_graphs_match_per_source_bfs(g):
    adj = adjacency(g)
    assert overlay_graph_stats(adj, 0) == reference_overlay_graph_stats(adj, 0)


@pytest.mark.parametrize("n,radius,seed", [
    (300, 0.1, 1), (80, 0.25, 2), (50, 0.05, 3),
])
def test_clustering_matches_networkx(n, radius, seed):
    g = geometric(n, radius, seed)
    adj = adjacency(g)
    nodes = sorted(adj)
    assert _clustering(adj, nodes) == _reference_clustering(adj, nodes)
    assert _clustering(adj, nodes) == pytest.approx(nx.average_clustering(g))
