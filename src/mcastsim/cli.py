"""Command-line harness: run one scenario, sweep a parameter over seeds, or
recompute metrics from a saved trace. Exit codes: 0 ok, 1 config, 2 runtime."""

import argparse
import copy
import logging
import os
import sys

from .kernel import ConfigError
from .metrics import compute_metrics, jsonl_to_trace, metrics_to_csv, trace_to_jsonl
from .scenario import from_dict, load_scenario
from .sim import run_scenario

log = logging.getLogger("mcastsim")


def _setup_logging():
    level = os.environ.get("MCASTSIM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def _emit(out_dir, scenario, trace, rows):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.csv"), "w") as f:
        f.write(metrics_to_csv(rows))
    with open(os.path.join(out_dir, "trace.jsonl"), "w") as f:
        f.write(trace_to_jsonl(trace))
    if scenario is not None:
        with open(os.path.join(out_dir, "scenario_resolved.json"), "w") as f:
            f.write(scenario.to_json(resolved=True) + "\n")


def cmd_run(args):
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario.data["seed"] = args.seed
    if args.trace:
        scenario.data["debug"]["trace_packets"] = True
    trace, rows = run_scenario(scenario, until_s=args.until)
    _emit(args.out, scenario, trace, rows)
    log.info("run complete: %d trace events, %d metric rows", len(trace), len(rows))
    return 0


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def _set_path(data, dotted, value):
    """Set the field at a dotted path to value, converted to the type of the
    value it replaces; ConfigError when the path or the value does not fit."""
    *parents, leaf = dotted.split(".")
    cur = data
    for p in parents:
        cur = cur.get(p) if isinstance(cur, dict) else None
    if not isinstance(cur, dict) or leaf not in cur:
        raise ConfigError(f"unknown parameter path {dotted!r}")
    old = cur[leaf]
    try:
        if isinstance(old, bool):
            value = _BOOLS[value.lower()]
        elif isinstance(old, int):
            value = int(value)
        elif isinstance(old, float):
            value = float(value)
        elif old is None:
            try:
                value = float(value) if "." in value else int(value)
            except ValueError:
                pass
    except (KeyError, ValueError):
        raise ConfigError(f"bad value {value!r} for {dotted!r}") from None
    cur[leaf] = value


def cmd_sweep(args):
    base = load_scenario(args.scenario)
    key, _, values = args.param.partition("=")
    if not values:
        raise ConfigError("--param expects key=v1,v2,...")
    summary = ["param,value,seed,metric,key,value"]
    for v in values.split(","):
        for seed in range(args.seeds):
            data = copy.deepcopy(base.data)
            _set_path(data, key, v)
            data["seed"] = seed
            scenario = from_dict(data)
            trace, rows = run_scenario(scenario)
            sub = os.path.join(args.out, f"{key}={v}", f"seed{seed}")
            _emit(sub, scenario, trace, rows)
            for metric, mkey, mval in rows:
                summary.append(f"{key}={v},{v},{seed},{metric},{mkey},{mval}")
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "summary.csv"), "w") as f:
        f.write("\n".join(summary) + "\n")
    return 0


def cmd_stats(args):
    with open(args.trace) as f:
        trace = jsonl_to_trace(f.read())
    rows = compute_metrics(trace)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "metrics.csv"), "w") as f:
        f.write(metrics_to_csv(rows))
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="mcastsim",
                                description="MANET multicast simulator")
    sub = p.add_subparsers(dest="cmd", required=True)

    pr = sub.add_parser("run", help="run one scenario")
    pr.add_argument("--scenario", required=True)
    pr.add_argument("--seed", type=int, default=None)
    pr.add_argument("--out", required=True)
    pr.add_argument("--trace", action="store_true",
                    help="record packet-level events too")
    pr.add_argument("--until", type=float, default=None,
                    help="stop at this simulated second")
    pr.set_defaults(fn=cmd_run)

    ps = sub.add_parser("sweep", help="sweep one parameter across seeds")
    ps.add_argument("--scenario", required=True)
    ps.add_argument("--param", required=True, help="dotted.path=v1,v2,...")
    ps.add_argument("--seeds", type=int, required=True)
    ps.add_argument("--out", required=True)
    ps.set_defaults(fn=cmd_sweep)

    pt = sub.add_parser("stats", help="recompute metrics from a saved trace")
    pt.add_argument("--trace", required=True)
    pt.add_argument("--out", required=True)
    pt.set_defaults(fn=cmd_stats)
    return p


def main(argv=None):
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime fatal
        log.exception("fatal")
        print(f"fatal: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
