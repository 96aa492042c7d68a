#!/usr/bin/env python3
"""vodsim benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (or, with `all`, each workload in turn in its own child
process) from the root of a vodsim checkout, importing the package from
`src/`. It builds the workload's inputs from the seed, runs rounds of fixed
simulated work for about `--seconds` (default: `run_seconds` of
BENCHMARK.json), checks every round's outputs, and prints the metrics by name
with their units. The last line of standard output is one JSON object:
correct, attempted, failed and metrics (the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`). With `all` that line
sums the workloads' lines and names each metric `<workload>/<metric>`.
The exit status is 1 when a check fails or an operation fails.

The traced run alternates untraced and traced rounds, so it can state the
tracing overhead, and writes its spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

NAMES = ("static-probe", "tracker-churn", "distributed-churn")
DEFAULT_SEED = 1
SETUP_REPEATS = 5

END_TO_END = [  # (name, unit)
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("requests_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
]
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(ops_per_round: int) -> float:
    """The highest percentile of the ladder with at least ten of a round's
    operations beyond it. Rounds repeat the same operations, so the choice
    does not depend on how many rounds a run fits in."""
    for p in TAIL_LADDER:
        if ops_per_round * (100 - p) / 100 >= 10:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def build_inputs(workload, seed: int, repeats: int, instruments=None):
    """Build the inputs `repeats` times; returns (inputs, median build time).
    With instruments, the last build is traced."""
    times, inputs = [], None
    for i in range(repeats):
        traced = instruments is not None and i == repeats - 1
        if traced:
            instruments.tracer.recording = True
            instruments.tracer.add("setup_builds")
        t0 = perf_counter()
        inputs = workload.build(seed)
        times.append(perf_counter() - t0)
        if traced:
            instruments.tracer.recording = False
    return inputs, statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads
    import layers

    workload = workloads.WORKLOADS[name]()
    instruments = None
    if trace:
        instruments = layers.Instruments()
        instruments.install()
    inputs, setup_s = build_inputs(workload, seed, SETUP_REPEATS, instruments)
    violations = workload.check_inputs(inputs)

    # Whole rounds only; a round that would end past `seconds` is not
    # started once the run has what it reports.
    rounds, traced = [], []
    start = last = perf_counter()
    while True:
        tracing = trace and len(rounds) > len(traced)
        if tracing:
            instruments.tracer.recording = True
        result = workload.run_round(inputs)
        if tracing:
            instruments.tracer.recording = False
            traced.append(result)
        else:
            rounds.append(result)
        violations += result.violations
        now = perf_counter()
        if 2 * now - last - start > seconds and (traced or not trace):
            break
        last = now

    first = rounds[0]
    attempted = sum(len(r.op_s) for r in rounds + traced)
    failed = sum(r.failed for r in rounds + traced)
    for r in rounds[1:] + traced:
        if r.fingerprint != first.fingerprint or len(r.op_s) != len(first.op_s):
            violations.append("rounds of the same inputs gave different answers")
    wall = statistics.median(r.wall_s for r in rounds)
    print(f"{name} seed={seed}: {len(rounds)} untraced rounds of "
          f"{len(first.op_s)} operations, satisfied per probe or replay "
          f"{first.fingerprint}, {first.retries} repairs or retries per round")

    if trace:
        instruments.tracer.restore()
        violations += instruments.violations
        traced_wall = statistics.median(r.wall_s for r in traced)
        check_s = instruments.tracer.check_s / len(traced)
        overhead = (traced_wall - check_s) / wall
        metrics = instruments.metrics(len(traced), overhead)
        units = {m: u for m, u, _ in layers.PER_LAYER}
        path = os.path.join(OUT, f"trace-{name}-seed{seed}.csv.gz")
        instruments.tracer.write(path)
        print(f"traced {len(traced)} rounds: median {traced_wall:.4f} s, of which "
              f"{check_s:.4f} s per-call checks, against {wall:.4f} s untraced: "
              f"tracing overhead x{overhead:.3f}; "
              f"per-layer figures are per round; spans in {os.path.relpath(path, ROOT)}")
        report = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}
    else:
        p = tail_percentile(len(first.op_s))
        median = statistics.median
        values = {
            "setup_s": setup_s,
            "wall_s": wall,
            "requests_per_s": median(r.issued / r.wall_s for r in rounds),
            "op_ms_p50": 1000 * median(median(r.op_s) for r in rounds),
            "op_ms_tail": 1000 * median(percentile(r.op_s, p) for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
        print(f"op_ms_tail is p{p:g} of each round's {len(first.op_s)} operations; "
              f"round walls {' '.join(f'{r.wall_s:.3f}' for r in rounds)} s")

    for m, entry in report.items():
        print(f"  {m:34s} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  attempted {attempted}, failed {failed}")
    for v in violations[:20]:
        print(f"CHECK FAILED: {v}")
    if len(violations) > 20:
        print(f"CHECK FAILED: ... {len(violations) - 20} more")
    print(json.dumps({"correct": not violations, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 1 if violations or failed else 0


def run_all(args) -> int:
    """Each workload in its own child process, one after another; then one
    line that sums their results."""
    status = 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            last = ""
            for line in child.stdout:
                print(line, end="", flush=True)
                last = line
        status |= child.returncode
        try:
            result = json.loads(last)
        except ValueError:
            total["correct"] = False
            continue
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for m, entry in result["metrics"].items():
            total["metrics"][f"{name}/{m}"] = entry
    print(json.dumps(total))
    return status or (0 if total["correct"] else 1)


def run_seconds() -> float:
    """The run length that BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vodsim", "__init__.py")):
        print(f"error: no vodsim package under {SRC}; run from a vodsim checkout",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
