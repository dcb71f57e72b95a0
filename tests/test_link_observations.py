"""Link observations against the per-peer history they replaced.

``RefHistory`` is the former ``mobility.LinkHistory``: an 8-slot ring of
``(t_us, watts)`` power samples plus the start time of the open link, kept for
every peer a node has ever heard. ``NodeMobility`` now keeps only the two
newest powers per peer and the start times of the links open now. Fed the
same samples and link changes on a seeded random-waypoint run, both must give
exactly the same ``stability`` and ``link_availability`` floats.
"""

import gc
from collections import deque

import pytest

from mcastsim.kernel import US
from mcastsim.mobility import (MobilityManager, availability_estimate,
                               link_availability, relative_mobility, sigmoid)
from mcastsim.scenario import from_dict
from mcastsim.sim import Simulation


class RefHistory:
    """The former LinkHistory: bounded power-sample ring plus open interval."""

    def __init__(self):
        self.samples = deque(maxlen=8)  # (t_us, watts)
        self.up_since_us = None

    def latest_metric(self):
        if len(self.samples) < 2:
            return 0.0
        return relative_mobility(self.samples[-1][1], self.samples[-2][1])


class RefMobility:
    """The former per-node link observations and the estimators that read them."""

    def __init__(self):
        self.histories = {}       # peer -> RefHistory
        self.completed_s = []

    def history(self, peer):
        return self.histories.setdefault(peer, RefHistory())

    def link_change(self, now_us, added, removed):
        for peer in added:
            self.history(peer).up_since_us = now_us
        for peer in removed:
            hist = self.histories.get(peer)
            if hist is not None and hist.up_since_us is not None:
                self.completed_s.append((now_us - hist.up_since_us) / US)
                hist.up_since_us = None

    def availability(self, horizon_s, now_us):
        opens = [(now_us - h.up_since_us) / US for h in self.histories.values()
                 if h.up_since_us is not None]
        return availability_estimate(self.completed_s, opens, horizon_s)

    def stability(self, peer, horizon_s, now_us, prior=0.5):
        hist = self.histories.get(peer)
        if hist is None or not hist.samples:
            return prior
        s = self.availability(horizon_s, now_us) * sigmoid(hist.latest_metric())
        return min(1.0, max(0.0, s))


def waypoint_scenario(n=60, seed=3, duration_s=20.0):
    return {"node_count": n, "seed": seed, "duration_s": duration_s,
            "area": {"width_m": 1000.0, "height_m": 1000.0},
            "radio": {"range_m": 250.0},
            "mobility": {"model": "random_waypoint", "speed_min": 2.0,
                         "speed_max": 20.0},
            "workload": [{"t": float(t), "op": "query_burst", "count": 5}
                         for t in range(2, 20, 4)]}


@pytest.fixture(scope="module")
def compared_run():
    """Run the scenario with every sample and link change also fed to a
    RefMobility per node; compare both each simulated second."""
    refs = {}
    on_link_change = MobilityManager._on_link_change
    record_power_sample = MobilityManager.record_power_sample

    def link_change(self, nid, added, removed):
        on_link_change(self, nid, added, removed)
        refs.setdefault(nid, RefMobility()).link_change(self.kernel.now_us, added, removed)

    def power_sample(self, nid, peer, power_w):
        record_power_sample(self, nid, peer, power_w)
        ref = refs.setdefault(nid, RefMobility())
        ref.history(peer).samples.append((self.kernel.now_us, power_w))

    mismatches, compared = [], 0
    with pytest.MonkeyPatch.context() as m:
        m.setattr(MobilityManager, "_on_link_change", link_change)
        m.setattr(MobilityManager, "record_power_sample", power_sample)
        sim = Simulation(from_dict(waypoint_scenario()))
        kernel, mobility = sim.kernel, sim.mobility
        for _ in range(20):
            kernel.run_until(kernel.now_us + US)
            now = kernel.now_us
            for nid, ref in sorted(refs.items()):
                mob = kernel.nodes[nid].mob
                for horizon in (mobility.horizon_s, 5.0):
                    got = link_availability(mob, horizon, now)
                    if got != ref.availability(horizon, now):
                        mismatches.append((now, nid, "availability", horizon, got))
                for peer in sorted(ref.histories):
                    got = mobility.stability(nid, peer)
                    want = ref.stability(peer, mobility.horizon_s, now)
                    compared += 1
                    if got != want:
                        mismatches.append((now, nid, peer, got, want))
    return sim, refs, mismatches, compared


def test_stability_and_availability_match_full_history(compared_run):
    sim, refs, mismatches, compared = compared_run
    assert mismatches == []
    # the run exercised every input the estimators read
    assert compared > 10_000
    assert sum(len(r.completed_s) for r in refs.values()) > 100
    assert any(len(h.samples) == 8 and h.up_since_us is None
               for r in refs.values() for h in r.histories.values())
    for nid, ref in refs.items():
        assert sim.kernel.nodes[nid].mob.completed_s == ref.completed_s


def test_power_pairs_are_not_gc_tracked(compared_run):
    sim = compared_run[0]
    gc.collect()
    pairs = [p for n in sim.kernel.nodes.values() for p in n.mob.powers.values()]
    assert pairs
    assert not any(gc.is_tracked(p) for p in pairs)
