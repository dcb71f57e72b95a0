"""Node movement models and the link-stability estimators feeding contact selection.

Link up/down intervals are observed from connectivity changes; received-power
samples come from hello receptions. Availability is estimated empirically as
the fraction of completed up-intervals (pooled across peers) that lasted at
least the queried horizon.
"""

import math
from collections import deque

from .kernel import US, ConfigError

STATIONARY = "stationary"
RANDOM_WALK = "random_walk"
RANDOM_WAYPOINT = "random_waypoint"
MODELS = (STATIONARY, RANDOM_WALK, RANDOM_WAYPOINT)


class LinkHistory:
    """Per-peer observation record: bounded power-sample ring plus open interval."""

    __slots__ = ("samples", "up_since_us")

    def __init__(self):
        self.samples = deque(maxlen=8)  # (t_us, watts)
        self.up_since_us = None

    def add_sample(self, t_us, power_w):
        self.samples.append((t_us, power_w))

    def latest_metric(self):
        """Relative mobility from the two newest power samples; 0 if fewer than two."""
        if len(self.samples) < 2:
            return 0.0
        return relative_mobility(self.samples[-1][1], self.samples[-2][1])


class NodeMobility:
    """Per-node mobility state: movement model progress and link observations."""

    def __init__(self):
        self.target = None        # waypoint target (x, y)
        self.speed = 0.0
        self.pause_until_us = 0
        self.histories = {}       # peer -> LinkHistory
        self.completed_s = []     # pooled completed up-interval durations (seconds)

    def history(self, peer):
        h = self.histories.get(peer)
        if h is None:
            h = LinkHistory()
            self.histories[peer] = h
        return h


def relative_mobility(power_new, power_old):
    """log10 ratio of consecutive received powers; strongly negative = separating fast."""
    if power_new <= 0 or power_old <= 0:
        raise ConfigError("relative_mobility requires positive powers")
    return math.log10(power_new / power_old)


def sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def availability_estimate(completed_s, open_elapsed_s, horizon_s,
                          min_samples=5, prior=0.5):
    """Fraction of observed up-intervals that lasted at least horizon_s.

    Completed intervals count as-is; still-open intervals count as survivors
    once their elapsed time already exceeds the horizon (right-censored
    observations shorter than the horizon say nothing and are skipped).
    """
    if horizon_s < 0:
        raise ConfigError("availability horizon must be >= 0")
    if horizon_s == 0:
        return 1.0
    survivors = sum(1 for d in open_elapsed_s if d >= horizon_s)
    n = len(completed_s) + survivors
    if n < min_samples:
        return prior
    return (survivors + sum(1 for d in completed_s if d >= horizon_s)) / n


def link_availability(mob, horizon_s, now_us=None, min_samples=5, prior=0.5):
    """Pooled availability over a node's link history."""
    opens = []
    if now_us is not None:
        for hist in mob.histories.values():
            if hist.up_since_us is not None:
                opens.append((now_us - hist.up_since_us) / US)
    return availability_estimate(mob.completed_s, opens, horizon_s,
                                 min_samples, prior)


def stability_estimate(mob, peer, horizon_s, now_us=None, min_samples=5, prior=0.5):
    """S_est = availability(horizon) * sigmoid(latest relative-mobility sample)."""
    hist = mob.histories.get(peer)
    if hist is None or not hist.samples:
        return prior
    a_hat = link_availability(mob, horizon_s, now_us, min_samples, prior)
    s = a_hat * sigmoid(hist.latest_metric())
    return min(1.0, max(0.0, s))


class MobilityManager:
    """Moves nodes on a fixed step interval and maintains link observations."""

    def __init__(self, kernel, config, availability_horizon_s=2.0):
        self.kernel = kernel
        self.config = config
        self.horizon_s = availability_horizon_s
        for node in kernel.nodes.values():
            node.mob = NodeMobility()
        kernel.on_link_change(self._on_link_change)

    def start(self):
        if self.config.model != STATIONARY:
            self.kernel.schedule_in(int(self.config.step_interval_s * US), self._tick)

    def _tick(self):
        dt = self.config.step_interval_s
        for nid in sorted(self.kernel.nodes):
            node = self.kernel.nodes[nid]
            if node.alive:
                self.step(nid, dt)
        self.kernel.rebuild_links()
        self.kernel.schedule_in(int(dt * US), self._tick)

    # -- movement ------------------------------------------------------------

    def step(self, nid, dt):
        """Advance one node by dt seconds; returns the new position."""
        if dt <= 0:
            raise ConfigError("step requires dt > 0")
        node = self.kernel.node(nid)
        model = self.config.model
        if model == STATIONARY:
            return node.pos()
        if model == RANDOM_WALK:
            return self._step_walk(node, dt)
        return self._step_waypoint(node, dt)

    def _step_walk(self, node, dt):
        rng = self.kernel.rng
        speed = rng.uniform(self.config.speed_min, self.config.speed_max)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        x = node.x + speed * dt * math.cos(heading)
        y = node.y + speed * dt * math.sin(heading)
        node.x, node.y = self._reflect(x, y)
        return node.pos()

    def _reflect(self, x, y):
        w, h = self.kernel.area_w, self.kernel.area_h
        while not (0 <= x <= w):
            x = -x if x < 0 else 2 * w - x
        while not (0 <= y <= h):
            y = -y if y < 0 else 2 * h - y
        return x, y

    def _step_waypoint(self, node, dt):
        mob = node.mob
        now = self.kernel.now_us
        if now < mob.pause_until_us:
            return node.pos()
        rng = self.kernel.rng
        if mob.target is None:
            mob.target = (rng.uniform(0, self.kernel.area_w),
                          rng.uniform(0, self.kernel.area_h))
            mob.speed = rng.uniform(self.config.speed_min, self.config.speed_max)
        tx, ty = mob.target
        dist = math.hypot(tx - node.x, ty - node.y)
        travel = mob.speed * dt
        if travel >= dist or dist == 0.0:
            node.x, node.y = tx, ty
            mob.target = None
            mob.pause_until_us = now + int(self.config.pause_time_s * US)
        else:
            node.x += (tx - node.x) * travel / dist
            node.y += (ty - node.y) * travel / dist
        return node.pos()

    # -- link observations ----------------------------------------------------

    def _on_link_change(self, nid, added, removed):
        node = self.kernel.nodes[nid]
        if node.mob is None:
            return
        now = self.kernel.now_us
        for peer in added:
            node.mob.history(peer).up_since_us = now
        for peer in removed:
            hist = node.mob.histories.get(peer)
            if hist is not None and hist.up_since_us is not None:
                node.mob.completed_s.append((now - hist.up_since_us) / US)
                hist.up_since_us = None

    def record_power_sample(self, nid, peer, power_w):
        self.kernel.nodes[nid].mob.history(peer).add_sample(self.kernel.now_us, power_w)

    def reported_position(self, nid):
        """Node's own position estimate; Gaussian noise models GPS-less approximation."""
        node = self.kernel.node(nid)
        noise = self.config.position_noise_m
        if noise <= 0:
            return node.pos()
        x = min(self.kernel.area_w, max(0.0, node.x + self.kernel.rng.gauss(0, noise)))
        y = min(self.kernel.area_h, max(0.0, node.y + self.kernel.rng.gauss(0, noise)))
        return (x, y)

    def stability(self, nid, peer):
        return stability_estimate(self.kernel.nodes[nid].mob, peer,
                                  self.horizon_s, self.kernel.now_us)

    def availability(self, nid, horizon_s):
        return link_availability(self.kernel.nodes[nid].mob, horizon_s,
                                 self.kernel.now_us)
