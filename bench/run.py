"""mcastsim benchmark: one workload, timed end to end or traced layer by layer.

Usage (from the repository root):

    python3 bench/run.py --workload mobile-large --seed 1 --seconds 30 --trace 0

The simulator is imported from ``src/`` next to this directory and driven
through its library API: ``scenario.from_dict``, ``sim.Simulation``,
``metrics.compute_metrics`` and ``metrics.trace_to_jsonl``. One round builds a
scenario from its dict, runs the event loop in four equal slices of simulated
time, takes the final snapshot, computes the metrics and serialises the trace.
Each round runs in a fresh process. A workload has one or more scenarios, all
made from the seed. A run starts with a plain reference round of the first
scenario; then a cycle runs each scenario once, and the run repeats whole
cycles until ``--seconds`` are used (at least one).

``--trace 0`` runs plain rounds only, with nothing patched, and prints the
end-to-end metrics over all rounds. ``--trace 1`` runs its cycles traced (see
``layers.py``) and prints the per-layer metrics as medians over the traced
rounds. Either way the first cycle's round of each scenario is checked (see
``checks.py``); the check of the ``counters`` event against the
transmissions seen at ``Kernel.transmit`` needs the tracer and runs with
``--trace 1`` only. Every round of one scenario must produce the same trace
bytes, traced or not, so the first scenario's reference round and its cycle
rounds, each in its own process, are always compared; each scenario's trace
digest goes to standard error. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import contextlib
import copy
import hashlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC_DIR))

try:
    import mcastsim
except ImportError:
    mcastsim = None
if mcastsim is None or Path(mcastsim.__file__).resolve().parent.parent != SRC_DIR:
    sys.exit(f"bench: the simulator package was not found under {SRC_DIR}")

from mcastsim.kernel import US  # noqa: E402
from mcastsim.metrics import compute_metrics, trace_to_jsonl  # noqa: E402
from mcastsim.scenario import from_dict  # noqa: E402
from mcastsim.sim import Simulation  # noqa: E402

import checks  # noqa: E402
from layers import LAYERS, LayerTracer  # noqa: E402
from workloads import WORKLOADS, scenarios  # noqa: E402

SLICES = 4             # the event loop runs in this many equal slices


# -- state sizes ------------------------------------------------------------------


def state_sizes(sim):
    """Sizes of the per-node soft state that can grow with run length."""
    live = [n for n in sim.kernel.nodes.values() if n.alive]
    return {
        "zone.mean_size": (sum(len(n.zone.table.members) for n in live)
                           / max(1, len(live))),
        "mobility.history_len": sum(len(n.mob.completed_s) for n in live),
        "contacts.pending": len(sim.contacts._pending),
        "contacts.count": sum(len(n.contacts.entries) for n in live),
        "rendezvous.seen_pids": sum(len(n.sds.seen_pids) for n in live),
        "rendezvous.sds_count": sum(len(n.sds.prefixes) for n in live),
        "multicast.seen": sum(len(n.mcast.seen)
                              + sum(len(e.seen_data) for e in n.mcast.groups.values())
                              for n in live),
    }


SLICED_SIZES = ("zone.mean_size", "mobility.history_len", "contacts.pending",
                "rendezvous.seen_pids", "multicast.seen")


# -- rounds -----------------------------------------------------------------------


class Round:
    """What one round produced: timings, trace bytes and the final state."""

    def __init__(self, sim, trace, rows, jsonl, timings, sizes=None, tracer=None):
        self.sim = sim
        self.trace = trace
        self.rows = rows
        self.jsonl = jsonl
        self.digest = hashlib.sha256(jsonl.encode()).hexdigest()
        self.timings = timings
        self.sizes = sizes or []
        self.tracer = tracer


def _slice_bounds(duration_s):
    return [int(round(duration_s * US * i / SLICES)) for i in range(1, SLICES + 1)]


def run_round(scen, tracer=None):
    """Build, run, snapshot, compute metrics, serialise; time each phase.

    With a tracer, the round runs inside ``tracer.installed()`` and records
    state sizes after each slice (outside the timed slices).
    """
    given = copy.deepcopy(scen)
    patched = tracer.installed() if tracer is not None else contextlib.nullcontext()
    sizes = []
    with patched:
        t0 = time.perf_counter()
        scenario = from_dict(given)
        t1 = time.perf_counter()
        sim = Simulation(scenario)
        t2 = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        slices = []
        for bound in _slice_bounds(scenario.duration_s):
            ts = time.perf_counter()
            sim.kernel.run_until(bound)
            slices.append(time.perf_counter() - ts)
            if tracer is not None:
                sizes.append(state_sizes(sim))
        attributed = tracer.total_self_s() if tracer is not None else 0.0
        t3 = time.perf_counter()
        trace = sim.run()
        t4 = time.perf_counter()
    rows = compute_metrics(trace)
    t5 = time.perf_counter()
    jsonl = trace_to_jsonl(trace)
    t6 = time.perf_counter()
    loop = sum(slices)
    timings = {
        "load_s": t1 - t0, "build_s": t2 - t1, "setup_s": t2 - t0,
        "slices": slices, "loop_s": loop, "attributed_s": attributed,
        "snapshot_s": t4 - t3, "compute_s": t5 - t4, "jsonl_s": t6 - t5,
        "wall_s": (t2 - t0) + loop + (t6 - t3),
        "sim_rate": scenario.duration_s / loop,
    }
    return Round(sim, trace, rows, jsonl, timings, sizes, tracer)


# -- metrics ----------------------------------------------------------------------


def sim_metrics(rnd):
    """Simulated-side results; identical for every round of one seed."""
    first, _, sends = checks.deliveries(rnd.trace)
    lat = [t - sends[(g, src, seq)] for (_, g, src, seq), t in first.items()
           if (g, src, seq) in sends]
    return {
        "control_packets": next(v for m, _, v in rnd.rows
                                if m == "control_packets_total"),
        "data_delivered": len(first),
        "latency_us": sum(lat),
    }


def end_to_end(measured, sim_side):
    """End-to-end metrics from round summaries (see ``round_task``).

    Host times (``setup_s`` too) are medians over the measured rounds.
    Peak RSS and the packet and delivery counts are means over the
    workload's scenarios, and the delivery latency is the mean over all their
    deliveries: a scenario either has receivers caught in a rejoin loop or
    not, and with a few scenarios the mean moves by a fraction of that step
    where the median jumps by all of it. Peak RSS is set by the scenario's
    state and trace, so it steps with the loop like the counts do.
    """
    med = statistics.median
    timings = [m["timings"] for m in measured]
    return {
        "wall_s": (med(t["wall_s"] for t in timings), "s"),
        "setup_s": (med(t["setup_s"] for t in timings), "s"),
        "sim_rate": (med(t["sim_rate"] for t in timings), "sim_s/s"),
        "peak_rss_mb": (statistics.fmean(s["rss_mb"] for s in sim_side), "MB"),
        "slice_growth": (med(t["slices"][-1] / t["slices"][0] for t in timings),
                         "ratio"),
        "control_packets": (statistics.fmean(s["control_packets"] for s in sim_side),
                            "count"),
        "data_delivered": (statistics.fmean(s["data_delivered"] for s in sim_side),
                           "count"),
        "delivery_latency_ms": (sum(s["latency_us"] for s in sim_side) / 1000.0
                                / max(1, sum(s["data_delivered"] for s in sim_side)),
                                "ms"),
    }


def per_layer(rnd):
    """Per-layer metrics of one traced round."""
    tr = rnd.tracer
    tm = rnd.timings
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    # kernel
    put("kernel.events", tr.events, "count")
    put("kernel.cancelled", tr.cancelled, "count")
    put("kernel.self_s", tr.layer_self_s("kernel"), "s")
    put("kernel.deliver_s", tr.self_of("kernel", "_deliver"), "s")
    put("kernel.transmit_s", tr.self_of("kernel", "transmit"), "s")
    put("kernel.broadcast_deliveries", tr.broadcast_deliveries, "count")
    put("kernel.unicast_deliveries", tr.unicast_deliveries, "count")
    put("kernel.rebuild_links_s", tr.self_of("kernel", "rebuild_links"), "s")
    put("kernel.rebuilds", tr.calls_of("kernel", "rebuild_links"), "count")
    put("kernel.queue_peak", tr.queue_peak, "count")
    # mobility
    put("mobility.step_s", tr.self_of("mobility", "step"), "s")
    put("mobility.steps", tr.calls_of("mobility", "step"), "count")
    put("mobility.stability_s", tr.self_of("mobility", "stability"), "s")
    put("mobility.stability_calls", tr.calls_of("mobility", "stability"), "count")
    # zone
    put("zone.hello_s", tr.self_of("zone", "handler:hello", "_cycle"), "s")
    put("zone.advert_s", tr.self_of("zone", "handler:zone_link_state"), "s")
    put("zone.adverts", tr.calls_of("zone", "handler:zone_link_state"), "count")
    put("zone.update_s", tr.self_of("zone", "update_zone"), "s")
    put("zone.updates", tr.calls_of("zone", "update_zone"), "count")
    put("zone.query_s", tr.self_of("zone", "handler:bordercast_query",
                                   "handler:bordercast_reply", "bordercast_query"), "s")
    # contacts
    put("contacts.drift_s", tr.self_of("contacts", "detect_drifting"), "s")
    put("contacts.drift_calls", tr.calls_of("contacts", "detect_drifting"), "count")
    put("contacts.maint_s", tr.self_of("contacts", "_maintenance_cycle",
                                       "maintain_contact"), "s")
    put("contacts.query_s", tr.self_of("contacts", "handler:contact_query",
                                       "handler:contact_reply", "contact_query",
                                       "_expire"), "s")
    # rendezvous
    put("rendezvous.lar_s", tr.self_of("rendezvous", "handler:lar_forward",
                                       "handler:sds_sync", "lar_send"), "s")
    put("rendezvous.lar_hops", tr.calls_of("rendezvous", "handler:lar_forward",
                                           "handler:sds_sync"), "count")
    put("rendezvous.geocast_s", tr.self_of("rendezvous", "handler:geocast",
                                           "geocast"), "s")
    put("rendezvous.sds_s", tr.self_of("rendezvous", "_decision_loop",
                                       "sds_promotion_decide"), "s")
    put("rendezvous.register_tries", tr.register_sends, "count")
    put("rendezvous.sessions_confirmed", len(rnd.sim.session_directory), "count")
    # multicast
    put("multicast.data_s", tr.self_of("multicast", "handler:data", "forward_data",
                                       "send_data"), "s")
    put("multicast.data_rx", tr.calls_of("multicast", "handler:data"), "count")
    put("multicast.join_s", tr.self_of(
        "multicast", "handler:join_query", "handler:join_request",
        "handler:group_query", "receiver_join", "_stage_advance", "_stage_timeout",
        "_notify_join_break") + tr.self_of(
        "rendezvous", "handler:join_reply", "handler:group_query_reply"), "s")
    put("multicast.adv_s", tr.self_of("multicast", "handler:adv", "_advertise"), "s")
    put("multicast.link_change_s", tr.self_of("multicast", "listener:_on_link_change"),
        "s")
    put("multicast.recovery_s", tr.self_of(
        "multicast", "local_recovery", "handoff_on_move", "handler:branch_break",
        "handler:mesh_leave"), "s")
    attempts = {}
    success = 0
    for _, node, kind, d in rnd.trace:
        if kind == "join_stage" and d["q"] == "group_info":
            if d["status"] == "attempt":
                attempts[node] = attempts.get(node, 0) + 1
            elif d["status"] == "success":
                success += 1
    put("multicast.join_attempts", sum(attempts.values()), "count")
    put("multicast.join_attempts_max", max(attempts.values(), default=0), "count")
    put("multicast.join_success", success, "count")
    # layer totals and the remainder of the event loop
    for layer in LAYERS:
        if layer != "kernel":
            put(f"{layer}.self_s", tr.layer_self_s(layer), "s")
    put("trace.loop_s", tm["loop_s"], "s")
    put("trace.unattributed_s", tm["loop_s"] - tm["attributed_s"], "s")
    put("trace.wall_s", tm["wall_s"], "s")
    # set-up, snapshot and metrics
    put("scenario.load_s", tm["load_s"], "s")
    put("sim.build_s", tm["build_s"], "s")
    put("sim.workload_s", tr.layer_self_s("sim"), "s")
    put("sim.snapshot_s", tm["snapshot_s"], "s")
    put("metrics.compute_s", tm["compute_s"], "s")
    put("metrics.jsonl_s", tm["jsonl_s"], "s")
    put("metrics.trace_events", len(rnd.trace), "count")
    # state sizes at the end, and after each earlier slice for the growing ones
    final = rnd.sizes[-1]
    for name, value in final.items():
        put(name, value, "count")
    for i, sizes in enumerate(rnd.sizes[:-1], start=1):
        for name in SLICED_SIZES:
            put(f"{name}.q{i}", sizes[name], "count")
    return out


def plain_vs_traced(plain, traced):
    """Per-slice host time of a plain round and the tracing overhead, i.e. the
    traced round's wall time minus the plain round's, for one scenario."""
    out = {f"slice.q{i}_s": (seconds, "s")
           for i, seconds in enumerate(plain["slices"], start=1)}
    out["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return out


def _median_metrics(samples):
    names = samples[0].keys()
    return {n: (statistics.median(s[n][0] for s in samples), samples[0][n][1])
            for n in names}


def failed_directives(scen, rnd):
    """Directives that failed: traced as a workload_drop, or still waiting at
    the end for a session that was never confirmed."""
    drops = Counter((e[1], e[3]["op"], e[3]["session"])
                    for e in rnd.trace if e[2] == "workload_drop")
    confirmed = rnd.sim.session_directory
    failed = 0
    for d in scen["workload"]:
        session = d.get("session", d.get("name"))
        key = (d.get("node"), d["op"], session)
        if session is not None and session not in confirmed:
            failed += 1
        elif drops[key]:
            drops[key] -= 1
            failed += 1
    return failed


# -- one benchmark run ------------------------------------------------------------------


def run_checks(scen_data, rnd, round_trip=True):
    problems = []
    problems += checks.check_deliveries(scen_data, rnd.sim, rnd.trace)
    problems += checks.check_contacts(scen_data, rnd.sim, rnd.trace)
    if rnd.tracer is not None:
        problems += checks.check_counters(rnd.trace, rnd.tracer.transmissions)
    if round_trip:
        problems += checks.check_round_trip(rnd.rows, rnd.jsonl)
    if scen_data["mobility"]["model"] == "stationary":
        problems += checks.check_zones(scen_data, rnd.sim, rnd.trace)
    return problems


def round_task(scen, traced, check, round_trip=False):
    """Run one round in this process and summarise it for the parent.

    The benchmark runs every round in a fresh process, so ``rss_mb`` is the
    peak RSS of the interpreter, the simulator and that one round. With
    ``check`` the outputs are checked (the JSONL round trip, which costs a
    second ``compute_metrics``, only with ``round_trip`` as well).
    """
    rnd = run_round(scen, LayerTracer() if traced else None)
    out = {"digest": rnd.digest, "timings": rnd.timings,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "failed": failed_directives(scen, rnd)}
    if check:
        out["problems"] = run_checks(rnd.sim.scenario.data, rnd, round_trip)
        out["sim"] = sim_metrics(rnd)
    if traced:
        out["layers"] = per_layer(rnd)
    return out


class RoundFailed(Exception):
    """A round's process raised, was killed or printed no summary."""


ROUND_TIMEOUT_S = 300  # a round that runs longer is killed and counts as failed


def in_child(scen, traced, check, round_trip=False):
    """Run ``round_task`` in a fresh interpreter and return its summary.

    The child is this file run with ``--round``; it reads its arguments as
    JSON on standard input and prints the summary as the last line of its
    standard output. ``subprocess.run`` waits for it to end, and kills it
    first if it overruns or if this process is interrupted.
    """
    job = json.dumps({"scen": scen, "traced": traced, "check": check,
                      "round_trip": round_trip})
    try:
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--round"],
                             input=job, capture_output=True, text=True,
                             timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"round killed after {ROUND_TIMEOUT_S} s") from None
    if out.returncode != 0 or not out.stdout.strip():
        raise RoundFailed(f"round exited with code {out.returncode}:\n"
                          f"{out.stderr.strip()}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def round_main():
    """Entry point of a round's child process (see ``in_child``)."""
    job = json.loads(sys.stdin.read())
    out = round_task(job["scen"], job["traced"], job["check"], job["round_trip"])
    print(json.dumps(out))
    return 0


def digest_problems(digests):
    """Scenarios whose rounds, all with the same inputs, gave different traces."""
    return [f"scenario {j}: {len(seen)} different traces from rounds with the "
            f"same inputs" for j, seen in sorted(digests.items()) if len(seen) != 1]


def run_benchmark(workload, seed, seconds, trace, params=None, log=sys.stderr):
    """Run one workload; returns the result object printed by main().

    Every round runs in a fresh process. The run starts with a plain
    reference round of the first scenario. A cycle then runs each of the
    workload's scenarios (see ``workloads.scenarios``) once, traced with
    ``trace``; the run repeats whole cycles until the next one would end after
    ``seconds``, and always completes one. The first scenario thus has at
    least two rounds, each with its own hash seed, and their traces must be
    byte-identical. A round that raises counts all its directives as failed.
    """
    subs = scenarios(workload, seed, params)
    deadline = time.perf_counter() + seconds
    problems = []
    failed = 0                 # failed directives over all rounds run
    cycles = 0
    digests = {}               # scenario index -> set of trace digests
    first_round = None         # the first cycle's round of scenario 0
    measured = []              # summaries of the measured rounds
    sim_side = []              # simulated-side results of each scenario

    def attempt(j, *args):
        nonlocal failed
        try:
            out = in_child(subs[j], *args)
        except RoundFailed as exc:
            print(f"bench: scenario {j}: {exc}", file=log)
            failed += len(subs[j]["workload"])
            return None
        digests.setdefault(j, set()).add(out["digest"])
        failed += out["failed"]
        return out

    reference = attempt(0, False, False)
    while True:
        t0 = time.perf_counter()
        first = cycles == 0
        for j in range(len(subs)):
            out = attempt(j, bool(trace), first, first and j == 0)
            if out is None:
                continue
            if first:
                problems += out["problems"]
                sim_side.append(dict(out["sim"], rss_mb=out["rss_mb"]))
                if j == 0:
                    first_round = out
            measured.append(out)
        cycles += 1
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    if not measured:
        raise RuntimeError("every round of the workload raised")
    for j, seen in sorted(digests.items()):
        print(f"bench: {workload} seed {seed} scenario {j} "
              f"(scenario seed {subs[j]['seed']}): trace sha256 "
              f"{' '.join(sorted(seen))}", file=log)
    problems += digest_problems(digests)
    if trace:
        metrics = _median_metrics([m["layers"] for m in measured])
        if reference is not None and first_round is not None:
            metrics.update(plain_vs_traced(reference["timings"],
                                           first_round["timings"]))
    else:
        if reference is not None:
            measured.append(reference)
        metrics = end_to_end(measured, sim_side)
    for p in problems:
        print(f"bench: check failed: {p}", file=log)
    attempted = (len(subs[0]["workload"])
                 + sum(len(scen["workload"]) for scen in subs) * cycles)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--round"]:
        return round_main()
    # on SIGTERM, unwind so that a running round's process is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
