"""Simulation orchestration: wire the protocol stack from a scenario, drive the
workload, and snapshot final state into the trace for offline metrics."""

from .kernel import US, ConfigError, Kernel, RadioModel
from .mobility import MobilityManager
from .zone import ZoneRouting
from .contacts import ContactManager
from .rendezvous import GroupAddress, RendezvousManager
from .multicast import MulticastService
from .scenario import layer_configs


class Simulation:
    def __init__(self, scenario):
        self.scenario = scenario
        data = scenario.data
        radio = RadioModel(
            tx_power_w=data["radio"]["tx_power_w"],
            range_m=data["radio"]["range_m"],
            path_loss_exp=data["radio"]["path_loss_exp"],
            ref_distance_m=data["radio"]["reference_distance_m"])
        self.kernel = Kernel(
            data["area"]["width_m"], data["area"]["height_m"], radio,
            seed=data["seed"],
            one_hop_latency_s=data["radio"]["one_hop_latency_s"],
            trace_packets=data["debug"]["trace_packets"])
        self._place_nodes(data)
        cfg = layer_configs(data)
        self.mobility = MobilityManager(
            self.kernel, cfg["mobility"],
            availability_horizon_s=data["contacts"]["maintenance_period_s"])
        self.zone = ZoneRouting(self.kernel, cfg["zone"], mobility=self.mobility)
        self.contacts = ContactManager(self.kernel, cfg["contacts"], self.zone,
                                       self.mobility)
        self.rr = RendezvousManager(self.kernel, cfg["rr"], self.zone,
                                    self.contacts, self.mobility)
        self.mcast = MulticastService(self.kernel, cfg["mcast"], self.zone,
                                      self.contacts, self.rr, self.mobility)
        self.session_directory = {}    # name -> GroupAddress, harness-level view
        self._pending_senders = {}     # name -> (node, scope_ttl)
        self._data_seq = {}
        self.sweep_violations = []
        self.contact_violations = []
        self.rr.on_session_confirmed(self._session_confirmed)
        self.kernel.rebuild_links()
        self.zone.start()
        self.contacts.start()
        self.rr.start()
        self.mcast.start()
        self.mobility.start()
        self._schedule_workload(data["workload"])
        if data["debug"]["sweep"]:
            self.kernel.debug_hook = self._sweep
        bound = 2 * self.zone.config.radius_R + 1
        self.contacts.checkpoint_listeners.append(
            lambda nid, entries, _b=bound: self.contact_violations.extend(
                (nid, cid, len(e.route)) for cid, e in entries.items()
                if len(e.route) > _b))

    def _place_nodes(self, data):
        energy = data["energy"]
        explicit = data["nodes"]
        for nid in range(data["node_count"]):
            if explicit is not None:
                x, y = explicit[nid]
            else:
                x = self.kernel.rng.uniform(0, self.kernel.area_w)
                y = self.kernel.rng.uniform(0, self.kernel.area_h)
            self.kernel.add_node(nid, x, y, energy_j=energy["initial_j"],
                                 drain_w=energy["drain_w"])

    def _sweep(self):
        problems = self.mcast.sweep_invariants()
        if problems:
            self.sweep_violations.extend(
                (self.kernel.now_us,) + p for p in problems)

    # -- workload ------------------------------------------------------------------

    def _schedule_workload(self, workload):
        for d in workload:
            self.kernel.schedule_at(int(d["t"] * US), self._run_directive, dict(d))

    def _run_directive(self, d):
        op = d["op"]
        if op == "register_session":
            requested = None
            if d.get("prefix") is not None:
                requested = GroupAddress(d["prefix"], d.get("suffix") or 0)
            self._pending_senders[d["name"]] = (d["node"], d.get("scope_ttl"))
            self.rr.register_session(d["node"], d["name"], requested,
                                     d.get("scope_ttl"))
        elif op == "join":
            self._with_session(d, lambda addr: self.mcast.receiver_join(
                d["node"], addr))
        elif op == "leave":
            self._with_session(d, lambda addr: self.mcast.receiver_leave(
                d["node"], addr))
        elif op == "send_data":
            self._with_session(d, lambda addr: self._start_data(d, addr))
        elif op == "fail_node":
            self.kernel.kill_node(d["node"])
        elif op == "partition":
            x1, x2, y1, y2 = d["rect"]
            for nid in sorted(self.kernel.nodes):
                n = self.kernel.nodes[nid]
                if n.alive and x1 <= n.x <= x2 and y1 <= n.y <= y2:
                    n.alive = False
            self.kernel.rebuild_links()
        elif op == "bootstrap":
            self.mcast.bootstrap_discover_sessions(d["node"])
        elif op == "freeze":
            self.mobility.config.model = "stationary"
        elif op == "query_burst":
            self._query_burst(d)

    def _with_session(self, d, fn):
        addr = self.session_directory.get(d["session"])
        if addr is not None:
            fn(addr)
            return
        d = dict(d)
        d.setdefault("_retries", 0)
        d["_retries"] += 1
        if d["_retries"] > 50:
            self.kernel.trace(d.get("node"), "workload_drop",
                              {"op": d["op"], "session": d["session"]})
            return
        self.kernel.schedule_in(US // 2, self._with_session, d, fn)

    def _session_confirmed(self, nid, name, addr):
        self.session_directory.setdefault(name, addr)
        pend = self._pending_senders.pop(name, None)
        if pend is not None:
            node, scope_ttl = pend
            self.mcast.start_sender(node, addr, scope_ttl)

    def _start_data(self, d, addr):
        node = d["node"]
        count = d["count"]
        interval = int(d.get("interval_s", 0.1) * US)
        size = d.get("size", 512)
        key = (node, d["session"])
        for i in range(count):
            self.kernel.schedule_in(i * interval, self._send_one, node, addr,
                                    key, size)

    def _send_one(self, node, addr, key, size):
        seq = self._data_seq.get(key, 0) + 1
        self._data_seq[key] = seq
        if self.kernel.nodes[node].alive:
            self.mcast.send_data(node, addr, seq, size)

    def _query_burst(self, d):
        count = d["count"]
        budget = d.get("budget", 3)
        alive = [nid for nid in sorted(self.kernel.nodes)
                 if self.kernel.nodes[nid].alive]
        for _ in range(count):
            src = self.kernel.rng.choice(alive)
            dst = self.kernel.rng.choice(alive)
            if src == dst:
                continue
            self.zone.bordercast_query(src, {"kind": "find_node", "target": dst},
                                       budget)

    # -- running ----------------------------------------------------------------------

    def run(self, until_s=None):
        """Run to until_s (default: the scenario's end), then snapshot."""
        end = self.scenario.duration_s if until_s is None else until_s
        if not 0 <= end <= self.scenario.duration_s:  # also rejects NaN
            raise ConfigError(f"until {until_s!r} is not within 0 .. duration_s "
                              f"({self.scenario.duration_s})")
        self.kernel.run_until(int(end * US))
        self._final_snapshot()
        return self.kernel.trace_events

    def _final_snapshot(self):
        k = self.kernel
        k.trace(None, "sim_meta",
                {"seed": self.scenario.seed, "n": len(k.nodes),
                 "duration_s": self.scenario.duration_s,
                 "contacts_enabled": self.scenario.data["contacts"]["enabled"]})
        k.trace(None, "counters", dict(sorted(k.packet_counts.items())))
        for nid in sorted(k.nodes):
            node = k.nodes[nid]
            if not node.alive:
                continue
            k.trace(nid, "node_final", {
                "pos": [node.x, node.y],
                "zone": sorted(node.zone.table.members),
                "contacts": sorted(node.contacts.entries),
                "sds": sorted(node.sds.prefixes),
                "local_sds": [list(g) for g in sorted(node.sds.local_groups)],
            })
        if self.sweep_violations:
            k.trace(None, "sweep_violations", {"n": len(self.sweep_violations)})
        if self.contact_violations:
            k.trace(None, "contact_violations", {"n": len(self.contact_violations)})


def run_scenario(scenario, until_s=None):
    """Build, run, and compute metrics; returns (trace_events, metrics rows)."""
    from .metrics import compute_metrics
    sim = Simulation(scenario)
    trace = sim.run(until_s)
    return trace, compute_metrics(trace)
