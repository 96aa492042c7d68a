#!/usr/bin/env python3
"""Run the four saturation sweeps for every workload and drop plot-ready CSV
into out/ (one file per experiment x adversary). Expect a few minutes for the
greedy columns."""

import argparse
import sys
import time

from vodsim.cli import SWEEPS, run_sweep

ADVERSARIES = ("random", "zipf", "greedy")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--output", default="out")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--sweeps", nargs="*", default=list(SWEEPS))
    ap.add_argument("--adversaries", nargs="*", default=list(ADVERSARIES))
    args = ap.parse_args()

    for name in args.sweeps:
        for adversary in args.adversaries:
            t0 = time.time()
            path = run_sweep(name, adversary, "static", args.seed, args.runs,
                             args.output, workers=args.workers)
            print(f"{path}  ({time.time() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
