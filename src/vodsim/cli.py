"""Batch experiment runner: reproduces the saturation sweeps (replication,
striping, heterogeneity, offline boxes) and exposes allocation, bounds and
sequence tooling. Emits plot-ready CSV; no figure rendering. Each sweep is
one row of SWEEPS: its default values and an axis that moves the base config
(--config, else config_for_k(10)) to each of its points."""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import shlex
import statistics
import sys
from fractions import Fraction
from multiprocessing import Pool
from typing import Callable, NamedTuple

from . import adversary as adv
from .allocation import allocate, AllocationError
from .bounds import feasibility_report
from .config import (SystemConfig, dump_config, errors_of, gaussian_upload,
                     homogeneous_config, load_config, shave_storage,
                     validate_config)
from .engine import metrics_csv, run, saturation_probe

BASE_N = 100
BASE_D = 32
BASE_S = 15


def config_for_k(k: int, n: int = BASE_N, d: int = BASE_D, s: int = BASE_S) -> SystemConfig:
    """Replication and striping sweep point: u = 1+1/s, m = floor(n*d/k),
    storage shaved to fill every slot. The swarm-growth knob sits at the
    feasibility boundary mu = u (the sweeps put no growth bound into play)."""
    u = Fraction(s + 1, s)
    return homogeneous_config(n=n, u=u, d=d, c=s, s=s, k=k, mu=u)


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


def _with_k(base: SystemConfig, k: int, seed: int):
    m = base.total_storage_slots // (k * base.s)
    storage = base.storage
    if base.allocation_mode == "regular":
        storage = shave_storage(base.n, base.avg_storage, base.s, k, m)
    return dataclasses.replace(base, k=k, m=m, storage=storage), []


def _with_s(base: SystemConfig, s: int, seed: int):
    u = Fraction(s + 1, s)
    cfg = dataclasses.replace(base, s=s, c=s, upload=(u,) * base.n, mu=u)
    return _with_k(cfg, base.k, seed)


def _with_upload_sd(base: SystemConfig, sd: float, seed: int):
    upload = gaussian_upload(base.n, base.avg_upload, sd, base.s, seed)
    return dataclasses.replace(base, upload=upload), []


class Sweep(NamedTuple):
    """Value type and range [lo, hi], default values, and the axis:
    (base config, value, seed) -> (the point's config, its offline boxes)."""
    type: type
    lo: float
    hi: float
    values: tuple
    axis: Callable


# k: m = floor(storage slots / (k*s)), storage shaved in regular mode.
# s: c = s and u = mu = 1+1/s (config_for_k's rule), then k's rule at base.k.
SWEEPS = {
    "k-sweep": Sweep(int, 1, math.inf, tuple(range(1, 21)), _with_k),
    "s-sweep": Sweep(int, 1, math.inf, tuple(range(1, 31)), _with_s),
    "hetero-sweep": Sweep(float, 0, math.inf,
                          tuple(round(0.1 * i, 2) for i in range(11)),
                          _with_upload_sd),
    "failure-sweep": Sweep(float, 0, 1,
                           tuple(round(0.05 * i, 2) for i in range(13)),
                           lambda base, f, seed:
                           (base, offline_boxes(base, f, seed))),
}
EXPERIMENTS = (*SWEEPS, "single")


def _probe_task(args):
    cfg, off, seed, adversary_kind, mode, trace, gamma = args
    res = probe_point(cfg, adversary_kind, mode, seed, offline=off,
                      trace=trace, gamma=gamma)
    return seed, res.satisfied, res.ceiling, cfg.n - len(off)


def sweep_points(name: str, adversary_kind: str, mode: str, seeds, values,
                 base: SystemConfig | None = None, workers: int = 0,
                 trace=None, gamma: float = 2.0) -> dict:
    """value -> [(seed, satisfied, ceiling, target)], probed on the config
    that `name`'s axis makes of `base` (config_for_k(10) when None); the
    target is the number of boxes online."""
    sweep = SWEEPS[name]
    base = config_for_k(10) if base is None else base
    tasks = [(*sweep.axis(base, v, s), s, adversary_kind, mode, trace, gamma)
             for v in values for s in seeds]
    if workers > 1:
        with Pool(workers) as pool:
            rows = pool.map(_probe_task, tasks)
    else:
        rows = [_probe_task(t) for t in tasks]
    per = len(seeds)
    return {v: rows[i * per:(i + 1) * per] for i, v in enumerate(values)}


def run_sweep(name: str, adversary_kind: str, mode: str, seed: int, runs: int,
              outdir: str, values=None, workers: int = 0, trace=None,
              gamma: float = 2.0, base: SystemConfig | None = None,
              options: str = "") -> str:
    """Write a sweep's CSV. A `base` given is written as `# config:` lines;
    `options` are the CLI options, past those the header names, that give
    `base`, `trace` and `gamma`."""
    values = SWEEPS[name].values if values is None else values
    seeds = [seed + i for i in range(runs)]
    by_value = sweep_points(name, adversary_kind, mode, seeds, values, base,
                            workers, trace, gamma)
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{name}_{adversary_kind}.csv")
    with open(path, "w") as f:
        f.write(f"# experiment={name} adversary={adversary_kind} mode={mode}\n")
        f.write(f"# seeds={','.join(str(s) for s in seeds)} runs={runs}\n")
        f.write(f"# reproduce: vodsim experiment --name {name} "
                f"--adversary {adversary_kind} --mode {mode} "
                f"--seed {seed} --runs {runs}{options}\n")
        if base is not None:
            for line in dump_config(base).splitlines():
                f.write(f"# config: {line}\n")
        if name == "hetero-sweep":
            mean, top = (("1+1/s", "2+2/s") if base is None
                         else (base.avg_upload, 2 * base.avg_upload))
            f.write(f"# upload ~ Gaussian(mean={mean}, sd=value) truncated to "
                    f"[1/s, {top}], slot-rounded, renormalized to the exact mean\n")
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


def _numbers(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _sweep_values(args, base: SystemConfig) -> list | None:
    """The sweep's values; None, after printing why, if one repeats or is
    outside the sweep's type and range, or a point's config has errors."""
    sweep = SWEEPS[args.name]
    values = args.values or list(sweep.values)
    problems = [f"{args.name}: {v} is not {sweep.type.__name__} in "
                f"[{sweep.lo}, {sweep.hi}]" for v in values
                if not (math.isfinite(v) and sweep.lo <= v <= sweep.hi)
                or sweep.type is int and v != int(v)]
    if len(set(values)) < len(values):
        problems.append(f"{args.name}: --values repeats a value")
    if not problems:
        values = [sweep.type(v) for v in values]
        seeds = range(args.seed, args.seed + args.runs)
        for v in values:
            configs = (sweep.axis(base, v, s)[0] for s in seeds)
            errors = dict.fromkeys(str(e) for cfg in configs
                                   for e in errors_of(validate_config(cfg)))
            problems += [f"{args.name} at {v}: {e}" for e in errors]
    for p in problems:
        print(p, file=sys.stderr)
    return None if problems else values


def cmd_experiment(args) -> int:
    cfg = _checked_config(args)
    if cfg is None:
        return 1
    trace = _load_trace(args, cfg)
    if args.name == "single":
        path = run_single(cfg, args.adversary, args.mode, args.seed,
                          args.output, args.ticks, args.rate, trace=trace,
                          gamma=args.gamma)
    else:
        values = _sweep_values(args, cfg)
        if values is None:
            return 1
        # the reproduce line names these options when they are set
        defaults = {"config": None, "trace": None, "trace_recipe": "as-is",
                    "gamma": 2.0}
        options = "".join(f" --{key.replace('_', '-')} {shlex.quote(str(v))}"
                          for key, default in defaults.items()
                          if (v := getattr(args, key)) != default)
        path = run_sweep(args.name, args.adversary, args.mode, args.seed,
                         args.runs, args.output, values=values,
                         workers=args.workers, trace=trace, gamma=args.gamma,
                         base=cfg if args.config else None, options=options)
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
    ex.add_argument("--config", help="config file (defaults to the n=100 "
                    "reference system); a sweep moves it along its axis")
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
    ex.add_argument("--values", type=_numbers,
                    help="comma-separated sweep values override")
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
