"""Scenario generators for the benchmark workloads.

Every workload is a function of the seed alone: the seed places the nodes
(through the scenario's own ``seed``) and a separate ``random.Random`` derived
from it picks senders, receivers and the directive schedule. All three
workloads keep the density of 1000 nodes per 3200 m x 3200 m with a 250 m
radio range, so the area side scales with the square root of the node count.
The rendezvous grid scales with it too, so regions keep the 400 m side (about
16 nodes) of the default 8 x 8 grid on 3200 m; with the default grid on a
smaller area, regions of 4 or 5 nodes often have no discovery server at all.
"""

import math
import random

DENSITY_SIDE_M = 3200.0
DENSITY_NODES = 1000
RANGE_M = 250.0
REGION_M = 400.0    # rendezvous-region side of the default 8 x 8 grid at 3200 m


def side_for(n):
    """Area side (m) that keeps the reference density for n nodes."""
    return DENSITY_SIDE_M * math.sqrt(n / DENSITY_NODES)


def _base(n, duration_s, seed, mobility):
    side = side_for(n)
    cells = max(1, round(side / REGION_M))
    return {
        "node_count": n,
        "duration_s": duration_s,
        "seed": seed,
        "area": {"width_m": side, "height_m": side},
        "radio": {"range_m": RANGE_M},
        "rr": {"grid_cols": cells, "grid_rows": cells},
        "mobility": mobility,
        "workload": [],
    }


RWP = {"model": "random_waypoint", "speed_min": 2.0, "speed_max": 10.0}

MOBILE_DURATION_S = 7.5     # simulated length of mobile-large
MOBILE_PACKETS = 10         # data packets its sender streams
STATIC_DURATION_S = 22.0    # simulated length of static-multicast
SOAK_SESSIONS = 2
SOAK_RECEIVERS = 6          # per session
SOAK_PERIOD_S = 4.0         # soak's churn, bootstrap and query period
STATIONARY = {"model": "stationary"}


def _picker(name, seed):
    return random.Random(f"{name}:{seed}")


def mobile_large(seed, n=1000):
    """One session, 10 receivers, a short stream over a large mobile network.

    Node positions come from the seed. The sender is the node nearest the
    centre of a central rendezvous region and receiver i the free node nearest
    a point 300 + 100 i metres from it at angle 36 i degrees, so hop distances,
    and with them the delivery latency, vary little from seed to seed.

    Discovery servers suppress each other for 5 s after a promotion, so for
    the first 6 s some regions have no server and a registration there goes
    unanswered; with the default 2 s register timeout, doubling, such a
    session confirms only after 30 s. Here the session registers at 4.3 s with
    a 0.1 s timeout, so it is confirmed, at the latest provisionally, by 5.8 s.
    The receivers join at 4.32-4.5 s, as soon as the session is known (or, if
    it confirms provisionally, on their retry at 5.82-6 s), and the sender
    streams 10 packets at 10 packets/s from 5.1 s (6.1 s). Receivers that join
    seconds after the sender's last advert mostly fall into the rejoin loop
    noted in CHANGES.md, and then mesh recovery rather than link dynamics sets
    this workload's cost; the loop is measured on static-multicast and soak.

    The ROADMAP baseline is this scenario run for 30 simulated seconds with
    25 packets. The workload stops at 7.5 s with 10 packets, so that one run,
    two 1000-node rounds, stays under a minute; ``scaling.py`` runs the
    baseline length.
    """
    scen = _base(n, MOBILE_DURATION_S, seed, RWP)
    scen["rr"]["register_timeout_s"] = 0.1
    rng = _picker("mobile-large", seed)
    side = scen["area"]["width_m"]
    pos = [[rng.uniform(0, side), rng.uniform(0, side)] for _ in range(n)]
    scen["nodes"] = pos
    free = set(range(n))

    def nearest(x, y):
        best = min(free, key=lambda i: ((pos[i][0] - x) ** 2 + (pos[i][1] - y) ** 2, i))
        free.discard(best)
        return best

    cells = scen["rr"]["grid_cols"]
    cx = cy = ((cells - 1) // 2 + 0.5) * side / cells
    sender = nearest(cx, cy)
    receivers = [nearest(cx + (300 + 100 * i) * math.cos(math.radians(36 * i)),
                         cy + (300 + 100 * i) * math.sin(math.radians(36 * i)))
                 for i in range(10)]
    wl = [{"t": 4.3, "op": "register_session", "node": sender, "name": "s0"}]
    wl += [{"t": round(4.32 + 0.02 * i, 3), "op": "join", "node": r, "session": "s0"}
           for i, r in enumerate(receivers)]
    wl.append({"t": 5.1, "op": "send_data", "node": sender, "session": "s0",
               "count": MOBILE_PACKETS, "interval_s": 0.1})
    scen["workload"] = wl
    return scen


def static_multicast(seed, n=300, sessions=4, receivers=20):
    """Several sessions with tens of receivers each on a stationary network.

    Sessions register at 10 s, once the discovery-server pools have settled;
    joins follow at 11-12 s and each sender streams 10 packets/s from 13 s
    until 1 s before the end.
    """
    scen = _base(n, STATIC_DURATION_S, seed, STATIONARY)
    rng = _picker("static-multicast", seed)
    picked = rng.sample(range(n), sessions * (receivers + 1))
    wl = []
    count = int((STATIC_DURATION_S - 14.0) * 10)
    for s in range(sessions):
        group = picked[s * (receivers + 1):(s + 1) * (receivers + 1)]
        sender, rx = group[0], group[1:]
        name = f"s{s}"
        wl.append({"t": round(10.0 + 0.1 * s, 3), "op": "register_session",
                   "node": sender, "name": name})
        wl += [{"t": round(11.0 + 0.05 * i + 0.01 * s, 3), "op": "join", "node": r,
                "session": name} for i, r in enumerate(rx)]
        wl.append({"t": 13.0, "op": "send_data", "node": sender, "session": name,
                   "count": count, "interval_s": 0.1})
    scen["workload"] = sorted(wl, key=lambda d: d["t"])
    return scen


def soak(seed, n=80, duration_s=32.0):
    """Long mobile run: continuous data plus periodic queries, bootstraps and churn.

    Sessions register at 1 s and receivers join at 1.5 s; each sender streams
    4 packets/s from 2 s until 5 s before the end, which leaves room for a
    registration retry. Every ``SOAK_PERIOD_S`` seconds one receiver of each
    session leaves and rejoins 2 s later, a random node bootstraps the session
    directory and a burst of 10 bordercast queries runs. The load is alike in
    every quarter of the run, so a later quarter that costs more host time
    shows state that grew (or nodes that random waypoint packed closer).
    """
    scen = _base(n, duration_s, seed, RWP)
    rng = _picker("soak", seed)
    picked = rng.sample(range(n), SOAK_SESSIONS * (SOAK_RECEIVERS + 1))
    wl = []
    count = int((duration_s - 7.0) / 0.25)
    groups = []
    for s in range(SOAK_SESSIONS):
        group = picked[s * (SOAK_RECEIVERS + 1):(s + 1) * (SOAK_RECEIVERS + 1)]
        sender, rx = group[0], group[1:]
        groups.append(rx)
        name = f"s{s}"
        wl.append({"t": round(1.0 + 0.1 * s, 3), "op": "register_session",
                   "node": sender, "name": name})
        wl += [{"t": round(1.5 + 0.05 * i + 0.01 * s, 3), "op": "join", "node": r,
                "session": name} for i, r in enumerate(rx)]
        wl.append({"t": 2.0, "op": "send_data", "node": sender, "session": name,
                   "count": count, "interval_s": 0.25})
    t = SOAK_PERIOD_S
    while t + 2.0 < duration_s:
        for s, rx in enumerate(groups):
            r = rng.choice(rx)
            wl.append({"t": round(t + 0.1 * s, 3), "op": "leave", "node": r,
                       "session": f"s{s}"})
            wl.append({"t": round(t + 2.0 + 0.1 * s, 3), "op": "join", "node": r,
                       "session": f"s{s}"})
        wl.append({"t": round(t + 0.5, 3), "op": "bootstrap",
                   "node": rng.randrange(n)})
        wl.append({"t": round(t + 1.0, 3), "op": "query_burst", "count": 10})
        t += SOAK_PERIOD_S
    scen["workload"] = sorted(wl, key=lambda d: d["t"])
    return scen


WORKLOADS = {
    "mobile-large": mobile_large,
    "static-multicast": static_multicast,
    "soak": soak,
}

# Scenarios per workload. One scenario's multicast figures swing by a third
# from seed to seed (receivers caught in rejoin loops, partitions, query
# fan-out), so a workload runs several scenarios and the benchmark reports
# their mean counts and median host times (see run.end_to_end). mobile-large
# runs one: a run makes two 1000-node rounds of it (the reference round and
# the cycle's), about 50 s, and each more scenario would add about 20 s.
SCENARIOS = {"mobile-large": 1, "static-multicast": 6, "soak": 8}


def scenarios(name, seed, params=None):
    """The workload's scenarios for a seed; scenario j uses seed * k + j."""
    k = SCENARIOS[name]
    return [WORKLOADS[name](seed * k + j, **(params or {})) for j in range(k)]
