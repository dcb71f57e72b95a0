"""One-off scaling table: the ROADMAP baseline scenario at N = 100, 300 and 1000.

Usage (from the repository root):

    python3 bench/scaling.py --seed 1

The scenario is the mobile-large workload's, run for the ROADMAP baseline's
30 simulated seconds with 25 data packets instead of the workload's 7.5 s
and 10 packets. Node density, radio range and rendezvous-region size stay
those of the 1000-node workload, so per-node work should stay flat as N
grows. Each size runs one plain round (see run.py) and the table gives
wall_s, sim_rate and control_packets, followed by the exponent b of a
least-squares fit wall_s ~ N^b over the three sizes.
"""

import argparse
import math

from run import run_round
from workloads import mobile_large

SIZES = (100, 300, 1000)
BASELINE_DURATION_S = 30.0
BASELINE_PACKETS = 25


def baseline(seed, n):
    """mobile-large at the ROADMAP baseline's length and packet count."""
    scen = mobile_large(seed, n=n)
    scen["duration_s"] = BASELINE_DURATION_S
    for d in scen["workload"]:
        if d["op"] == "send_data":
            d["count"] = BASELINE_PACKETS
    return scen


def fit_exponent(ns, walls):
    xs = [math.log(n) for n in ns]
    ys = [math.log(w) for w in walls]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    print("| N    | wall_s | sim_rate | control_packets |")
    print("|------|--------|----------|-----------------|")
    walls = []
    for n in SIZES:
        rnd = run_round(baseline(args.seed, n))
        control = next(v for m, _, v in rnd.rows if m == "control_packets_total")
        walls.append(rnd.timings["wall_s"])
        print(f"| {n:<4} | {walls[-1]:6.2f} | {rnd.timings['sim_rate']:8.3f} "
              f"| {control:15d} |", flush=True)
    print(f"\nfitted exponent b (wall_s ~ N^b): {fit_exponent(SIZES, walls):.2f}")


if __name__ == "__main__":
    main()
