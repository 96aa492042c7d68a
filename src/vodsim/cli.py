"""Batch experiment runner: reproduces the saturation sweeps (replication,
striping, heterogeneity, offline boxes) and exposes allocation, bounds and
sequence tooling. Emits plot-ready CSV; no figure rendering."""

from __future__ import annotations

import argparse
import dataclasses
import os
import statistics
import sys
from fractions import Fraction
from multiprocessing import Pool

from . import adversary as adv
from .allocation import allocate, AllocationError
from .bounds import feasibility_report
from .config import (SystemConfig, dump_config, errors_of, frac,
                     gaussian_upload, homogeneous_config, load_config,
                     validate_config)
from .engine import metrics_csv, run, saturation_probe

EXPERIMENTS = ("k-sweep", "s-sweep", "hetero-sweep", "failure-sweep", "single")

BASE_N = 100
BASE_D = 32
BASE_S = 15


def config_for_k(k: int, n: int = BASE_N, d: int = BASE_D, s: int = BASE_S) -> SystemConfig:
    """Replication and striping sweep point: u = 1+1/s, m = floor(n*d/k),
    storage shaved to fill every slot. The swarm-growth knob sits at the
    feasibility boundary mu = u (the sweeps put no growth bound into play)."""
    u = Fraction(s + 1, s)
    return homogeneous_config(n=n, u=u, d=d, c=s, s=s, k=k, mu=u)


def config_hetero(variance: float, seed: int, k: int = 10, n: int = BASE_N,
                  d: int = BASE_D, s: int = BASE_S) -> SystemConfig:
    """Heterogeneity sweep point: config_for_k's system with per-box upload
    from a Gaussian with mean 1+1/s truncated to the fixed bounds
    [1/s, 2+2/s] of gaussian_upload, renormalized to preserve the mean
    exactly; storage stays homogeneous (shaved as config_for_k shaves it)."""
    return dataclasses.replace(
        config_for_k(k, n=n, d=d, s=s),
        upload=gaussian_upload(n, Fraction(s + 1, s), variance, s, seed))


def offline_boxes(cfg: SystemConfig, fraction: float, seed: int) -> list[int]:
    """Boxes held inactive for the whole run (fixed per seed)."""
    import random as _random
    count = int(fraction * cfg.n)
    return sorted(_random.Random(seed + 7919).sample(range(cfg.n), count))


def probe_point(cfg: SystemConfig, adversary_kind: str, mode: str, seed: int,
                offline: list[int] | None = None, trace=None,
                gamma: float = 2.0):
    """One saturation measurement: allocation, adversary and probe all
    derive their randomness from the run seed."""
    offline = offline or []
    alloc = allocate(cfg, seed)
    eligible = [b for b in range(cfg.n) if b not in set(offline)]
    spec = adv.AdversarySpec(kind=adversary_kind, seed=seed + 104729,
                             gamma=gamma, trace=trace)
    adversary = adv.make_adversary(cfg, spec, alloc=alloc, eligible=eligible)
    return saturation_probe(cfg, alloc, adversary, mode, seed, offline=offline)


def _sweep_task(args):
    (name, value, seed, adversary_kind, mode, trace_entries, gamma) = args
    trace = adv.PopularityTrace(trace_entries) if trace_entries else None
    off = []
    if name == "k-sweep":
        cfg = config_for_k(int(value))
    elif name == "s-sweep":
        cfg = config_for_k(10, s=int(value))
    elif name == "hetero-sweep":
        cfg = config_hetero(float(value), seed)
    elif name == "failure-sweep":
        cfg = config_for_k(10)
        off = offline_boxes(cfg, float(value), seed)
    else:
        raise ValueError(name)
    res = probe_point(cfg, adversary_kind, mode, seed, offline=off, trace=trace,
                      gamma=gamma)
    return value, seed, res.satisfied, res.ceiling, cfg.n - len(off)


def default_values(name: str):
    if name == "k-sweep":
        return list(range(1, 21))
    if name == "s-sweep":
        return list(range(1, 31))
    if name == "hetero-sweep":
        return [round(0.1 * i, 2) for i in range(11)]
    if name == "failure-sweep":
        return [round(0.05 * i, 2) for i in range(13)]  # 0 .. 0.6
    raise ValueError(name)


def run_sweep(name: str, adversary_kind: str, mode: str, seed: int, runs: int,
              outdir: str, values=None, workers: int = 0, trace=None,
              gamma: float = 2.0) -> str:
    values = values if values is not None else default_values(name)
    seeds = [seed + i for i in range(runs)]
    trace_entries = trace.entries if trace is not None else None
    tasks = [(name, v, s, adversary_kind, mode, trace_entries, gamma)
             for v in values for s in seeds]
    if workers and workers > 1:
        with Pool(workers) as pool:
            rows = pool.map(_sweep_task, tasks)
    else:
        rows = [_sweep_task(t) for t in tasks]
    rows.sort(key=lambda r: (float(r[0]), r[1]))

    by_value: dict = {}
    for value, s, sat, ceiling, target in rows:
        by_value.setdefault(value, []).append((s, sat, ceiling, target))
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{name}_{adversary_kind}.csv")
    with open(path, "w") as f:
        f.write(f"# experiment={name} adversary={adversary_kind} mode={mode}\n")
        f.write(f"# seeds={','.join(str(s) for s in seeds)} runs={runs}\n")
        f.write(f"# reproduce: vodsim experiment --name {name} "
                f"--adversary {adversary_kind} --mode {mode} "
                f"--seed {seed} --runs {runs}\n")
        if name == "hetero-sweep":
            f.write("# upload ~ Gaussian(mean=1+1/s, sd=value) truncated to "
                    "[1/s, 2+2/s], slot-rounded, renormalized to the exact mean\n")
        f.write("value,runs,mean,stddev,min,max,ceiling,target,"
                "blocked_runs,satisfied_per_seed\n")
        for value in values:
            pts = by_value[value]
            sats = [p[1] for p in pts]
            ceiling = pts[0][2]
            target = pts[0][3]
            blocked = sum(1 for p in pts if p[1] < p[3])
            f.write(f"{value},{len(pts)},{statistics.mean(sats):.3f},"
                    f"{statistics.pstdev(sats):.3f},{min(sats)},{max(sats)},"
                    f"{ceiling},{target},{blocked},"
                    f"{'|'.join(str(x) for x in sats)}\n")
    return path


def run_single(cfg: SystemConfig, adversary_kind: str, mode: str, seed: int,
               outdir: str, ticks: int, rate: int, trace=None,
               gamma: float = 2.0) -> str:
    alloc = allocate(cfg, seed)
    spec = adv.AdversarySpec(kind=adversary_kind, seed=seed + 104729,
                             gamma=gamma, trace=trace)
    adversary = adv.make_adversary(cfg, spec, alloc=alloc)
    metrics, _ = run(cfg, alloc, adversary, mode, seed, ticks=ticks, rate=rate)
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"single_{adversary_kind}_{mode}.csv")
    header = {"mode": mode, "adversary": adversary_kind, "seed": seed,
              "ticks": ticks, "rate": rate}
    with open(path, "w") as f:
        for line in dump_config(cfg).splitlines():
            f.write(f"# config: {line}\n")
        f.write(metrics_csv(metrics, header))
    return path


def _load_trace(args, cfg: SystemConfig):
    if not args.trace:
        return None
    trace = adv.PopularityTrace.load(args.trace)
    if args.trace_recipe == "top-m":
        trace = trace.top_m(cfg.m)
    elif args.trace_recipe == "random-m":
        trace = trace.random_m(cfg.m, args.seed)
    return trace


def _base_config(args) -> SystemConfig:
    if args.config:
        return load_config(args.config)
    return config_for_k(10)


def _checked_config(args) -> SystemConfig | None:
    """The run's config, or None after printing its errors to stderr."""
    cfg = _base_config(args)
    problems = errors_of(validate_config(cfg))
    for p in problems:
        print(p, file=sys.stderr)
    return None if problems else cfg


def cmd_experiment(args) -> int:
    if args.name not in EXPERIMENTS:
        print(f"unknown experiment {args.name!r}", file=sys.stderr)
        return 2
    if args.config and args.name != "single":
        print(f"{args.name} runs on the n=100 baseline and takes no --config; "
              "only single runs on a config file", file=sys.stderr)
        return 2
    cfg = _checked_config(args)
    if cfg is None:
        return 1
    trace = _load_trace(args, cfg)
    if args.name == "single":
        path = run_single(cfg, args.adversary, args.mode, args.seed,
                          args.output, args.ticks, args.rate, trace=trace,
                          gamma=args.gamma)
    else:
        values = [float(v) for v in args.values.split(",")] if args.values else None
        if values and args.name in ("k-sweep", "s-sweep"):
            values = [int(v) for v in values]
        path = run_sweep(args.name, args.adversary, args.mode, args.seed,
                         args.runs, args.output, values=values,
                         workers=args.workers, trace=trace, gamma=args.gamma)
    print(path)
    return 0


def cmd_bounds(args) -> int:
    cfg = _checked_config(args)
    if cfg is None:
        return 1
    report = feasibility_report(cfg, c_const=args.c_const)
    if args.kv:
        print("\n".join(report.as_kv()))
    else:
        print(report.render(), end="")
    return 0


def cmd_allocate(args) -> int:
    cfg = _checked_config(args)
    if cfg is None:
        return 1
    try:
        alloc = allocate(cfg, args.seed)
    except AllocationError as exc:
        print(f"allocation failed: {exc}", file=sys.stderr)
        return 1
    text = alloc.dump()
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print(args.output)
    else:
        sys.stdout.write(text)
    return 0


def cmd_validate(args) -> int:
    cfg = _base_config(args)
    violations = validate_config(cfg)
    for v in violations:
        print(v)
    return 1 if errors_of(violations) else 0


def cmd_stressless(args) -> int:
    cfg = _checked_config(args)
    if cfg is None:
        return 1
    spec = adv.AdversarySpec(kind="stressless", seed=args.seed,
                             p_f=args.p_f, swarms_per_video=args.swarms_per_video)
    problems = spec.validate(cfg)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return 1
    result = adv.generate_stressless(cfg, spec, args.events)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    text = adv.dump_events(result.events)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print(args.output)
    else:
        sys.stdout.write(text)
    bad = adv.validate_sequence(cfg, result.events,
                                swarms_per_video=args.swarms_per_video)
    for b in bad:
        print(f"violation: {b}", file=sys.stderr)
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vodsim",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    ex = sub.add_parser("experiment", help="run a sweep or a single simulation")
    ex.add_argument("--name", required=True, choices=EXPERIMENTS)
    ex.add_argument("--config", help="single: config file (defaults to the "
                    "n=100 baseline); sweeps always use the baseline")
    ex.add_argument("--adversary", default="random",
                    choices=("random", "zipf", "greedy", "trace"))
    ex.add_argument("--mode", default="static",
                    choices=("static", "dynamic-distributed", "dynamic-maxflow"))
    ex.add_argument("--seed", type=int, default=0)
    ex.add_argument("--runs", type=int, default=10,
                    help="seeds averaged per sweep point")
    ex.add_argument("--output", default="out")
    ex.add_argument("--trace", help="popularity trace file (video_id,weight lines)")
    ex.add_argument("--trace-recipe", default="as-is",
                    choices=("as-is", "top-m", "random-m"),
                    help="catalog recipe: whole trace, the m most popular, "
                         "or a random m-subset")
    ex.add_argument("--gamma", type=float, default=2.0, help="zipf exponent")
    ex.add_argument("--values", help="comma-separated sweep values override")
    ex.add_argument("--workers", type=int, default=0)
    ex.add_argument("--ticks", type=int, default=200, help="single: horizon")
    ex.add_argument("--rate", type=int, default=1, help="requests per tick")
    ex.set_defaults(func=cmd_experiment)

    bo = sub.add_parser("bounds", help="print the feasibility report")
    bo.add_argument("--config")
    bo.add_argument("--c-const", type=float, default=1.0)
    bo.add_argument("--kv", action="store_true", help="machine-readable lines")
    bo.set_defaults(func=cmd_bounds)

    al = sub.add_parser("allocate", help="dump an allocation table")
    al.add_argument("--config")
    al.add_argument("--seed", type=int, default=0)
    al.add_argument("--output")
    al.set_defaults(func=cmd_allocate)

    va = sub.add_parser("validate", help="validate a config file")
    va.add_argument("--config")
    va.set_defaults(func=cmd_validate)

    st = sub.add_parser("stressless", help="generate a stress-less event sequence")
    st.add_argument("--config")
    st.add_argument("--events", type=int, default=100)
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--p-f", type=float, default=0.1)
    st.add_argument("--swarms-per-video", type=int, default=1)
    st.add_argument("--output")
    st.set_defaults(func=cmd_stressless)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
