"""Acceptance criteria, one test per criterion (criterion 1 split per
adversary so a failing workload pinpoints itself). Each test prints a
PASS/FAIL line with the measured numbers."""

import math
import random as _random
import statistics
from fractions import Fraction

import numpy as np
import pytest

from helpers import (brute_force_min_cut, check_forest, per_uploader,
                     random_net, spearman)
from vodsim import adversary as adv
from vodsim.allocation import (AllocationMap, allocate_purely_random,
                               allocate_regular)
from vodsim.bounds import feasibility_report, min_replication_k, realistic_replication_k
from vodsim.cli import config_for_k, sweep_points
from vodsim.config import SystemConfig, homogeneous_config
from vodsim.engine import Engine
from vodsim.maxflow import (Infeasible, build_request_graph, check_expander,
                            max_flow, schedule_maxflow)
from vodsim.model import ConnectionAssignment, PlaybackSession, SimState

SEEDS = list(range(10))
NEEDED = 9  # >= 90% of 10 seeds


def line(name, ok, detail):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} - {detail}")


def satisfied(points):
    return [sat for _, sat, _, _ in points]


@pytest.fixture(scope="module")
def ksweep():
    """satisfied counts per (adversary, k, seed) for the reference system."""
    data = {}
    for kind, ks in (("random", range(3, 21)), ("zipf", range(3, 21)),
                     ("greedy", range(6, 21))):
        for k, pts in sweep_points("k-sweep", kind, "static", SEEDS, ks).items():
            data[kind, k] = satisfied(pts)
    return data


def _check_threshold(data, kind, ks):
    bad = {}
    for k in ks:
        hits = sum(1 for sat in data[kind, k] if sat >= 100)
        if hits < NEEDED:
            bad[k] = (hits, data[kind, k])
    return bad


def test_criterion1_random_threshold(ksweep):
    bad = _check_threshold(ksweep, "random", range(3, 21))
    line("1 [random k>=3]", not bad, bad or ">=100 satisfied in >=9/10 seeds")
    assert not bad, f"random adversary under 100 at k={sorted(bad)}: {bad}"


def test_criterion1_zipf_threshold(ksweep):
    bad = _check_threshold(ksweep, "zipf", range(3, 21))
    line("1 [zipf k>=3]", not bad, bad or ">=100 satisfied in >=9/10 seeds")
    assert not bad, f"zipf adversary under 100 at k={sorted(bad)}: {bad}"


def test_criterion1_greedy_threshold(ksweep):
    bad = _check_threshold(ksweep, "greedy", range(6, 21))
    line("1 [greedy k>=6]", not bad, bad or ">=100 satisfied in >=9/10 seeds")
    assert not bad, f"greedy adversary under 100 at k={sorted(bad)}: {bad}"


def test_criterion2_bandwidth_ceiling_asymptote(ksweep):
    ceiling = config_for_k(10).bandwidth_ceiling()
    assert ceiling == 106
    means = {k: statistics.mean(ksweep["random", k]) for k in range(10, 21)}
    bad = {k: m for k, m in means.items() if m < 0.95 * ceiling}
    line("2 [ceiling]", not bad,
         f"random mean saturation {min(means.values()):.1f}..{max(means.values()):.1f} "
         f"vs 0.95*{ceiling}={0.95 * ceiling:.1f}")
    assert not bad, bad


def test_criterion3_stripe_sweep_shape():
    per_s = {s: satisfied(pts) for s, pts in sweep_points(
        "s-sweep", "random", "static", SEEDS, range(1, 31)).items()}
    means = [statistics.mean(per_s[s]) for s in range(1, 31)]
    rho = spearman(means, list(range(1, 31)))
    ok_rho = rho <= 0
    bad_level = {s: per_s[s] for s in range(2, 31)
                 if statistics.mean(per_s[s]) < 100}
    line("3 [s-sweep]", ok_rho and not bad_level,
         f"spearman(mean, s) = {rho:.3f}; means {means[0]:.0f} -> {means[-1]:.0f}")
    assert ok_rho, f"satisfied not non-increasing in s: rho = {rho}"
    assert not bad_level, f"mean below n at s={sorted(bad_level)}"


def test_criterion4_random_tolerates_offline_to_40pct():
    fracs = [pct / 100 for pct in range(0, 45, 5)]
    hits = {frac: sum(sat >= target for _, sat, _, target in pts)
            for frac, pts in sweep_points("failure-sweep", "random", "static",
                                          SEEDS, fracs).items()}
    bad = {frac: h for frac, h in hits.items() if h < NEEDED}
    line("4 [random offline<=40%]", not bad,
         bad or "satisfied >= active count in >=9/10 seeds at every fraction")
    assert not bad, bad


def test_criterion4_greedy_blocks_at_10pct_offline():
    pts = sweep_points("failure-sweep", "greedy", "static", SEEDS, [0.10])[0.10]
    sats = satisfied(pts)
    blocked = sum(sat < target for _, sat, _, target in pts)
    ok = blocked >= len(SEEDS) / 2
    line("4 [greedy blocks at 10%]", ok,
         f"blocked in {blocked}/{len(SEEDS)} seeds (satisfied={sats}, active=90)")
    assert ok, f"greedy blocked only {blocked}/{len(SEEDS)} seeds: {sats}"


def _random_tiny_state(rng):
    """A small system with random playback state; a playing stripe may have
    no foreign holder, and its request then has no arcs."""
    n = rng.randint(2, 6)
    s = rng.randint(1, 3)
    m = rng.randint(1, 3)
    k = rng.randint(1, 2)
    playing = rng.randint(1, max(1, min(n, 12 // s)))
    placement = np.array([[[rng.randrange(n) for _ in range(k)]
                           for _ in range(s)] for _ in range(m)],
                         dtype=np.int32)
    upload = tuple(Fraction(rng.randint(0, 2 * s), s) for _ in range(n))
    cfg = SystemConfig(n=n, upload=upload, storage=(Fraction(8),) * n,
                       c=s, s=s, k=k, m=m,
                       allocation_mode="purely_random")
    alloc = AllocationMap(mode="purely_random", n=n, m=m, s=s, k=k,
                          placement=placement)
    state = SimState(cfg=cfg, alloc=alloc)
    boxes = rng.sample(range(n), playing)
    for box in boxes:
        sess = PlaybackSession(box=box, video=rng.randrange(m),
                               start_tick=0, position=rng.randint(0, 9),
                               started=True)
        state.sessions[box].append(sess)
        state.join_swarm(sess)
    return state, alloc, build_request_graph(state, alloc)


def test_criterion5_hall_maxflow_equivalence():
    rng = _random.Random(20260808)
    disagreements = 0
    mincut_mismatch = 0
    checked = 0
    for _ in range(250):  # raw bipartite networks
        net = random_net(rng, max_req=12, max_box=6, allow_empty=True)
        flow = max_flow(net)
        ok, _ = check_expander(net)
        disagreements += ok != (flow.value == net.num_requests)
        mincut_mismatch += flow.value != brute_force_min_cut(net)
        checked += 1
    for _ in range(250):  # request graphs built from simulation states
        state, alloc, net = _random_tiny_state(rng)
        result = schedule_maxflow(state, alloc)
        scheduled = isinstance(result, ConnectionAssignment)
        ok, _ = check_expander(net)
        disagreements += ok != scheduled
        mincut_mismatch += max_flow(net).value != brute_force_min_cut(net)
        checked += 1
        if scheduled:
            per_up = per_uploader(result)
            for up, cnt in per_up.items():
                assert cnt <= state.slots[up]
    ok_all = disagreements == 0 and mincut_mismatch == 0
    line("5 [hall/maxflow]", ok_all,
         f"{checked} instances, {disagreements} scheduler/expander "
         f"disagreements, {mincut_mismatch} min-cut mismatches")
    assert ok_all


def test_criterion6_scarce_upload_obstruction():
    # u=1, the target video lives on one box; a caching chain exhausts it and
    # the holder's own request (a video stored only at the chain head) fails
    cfg = SystemConfig(n=5, upload=(Fraction(1),) * 5,
                       storage=(Fraction(1),) * 5, c=1, s=1, k=1, m=5,
                       allocation_mode="purely_random")
    placement = np.array([[[0]], [[1]], [[2]], [[3]], [[4]]], dtype=np.int32)
    alloc = AllocationMap(mode="purely_random", n=5, m=5, s=1, k=1,
                          placement=placement)
    state = SimState(cfg=cfg, alloc=alloc)
    chain = [(1, 0, 3), (2, 0, 2), (3, 0, 1), (4, 0, 0), (0, 1, 0)]
    for box, video, pos in chain:
        sess = PlaybackSession(box=box, video=video, start_tick=0,
                               position=pos, started=True)
        state.sessions[box].append(sess)
        state.join_swarm(sess)
    result = schedule_maxflow(state, alloc)
    ok = isinstance(result, Infeasible)
    detail = "not infeasible"
    if ok:
        detail = (f"flow {result.flow_value}/{result.total_requests}, witness "
                  f"|S|={len(result.witness_requests or [])} vs capacity "
                  f"{result.witness_capacity}")
    line("6 [scarce-upload obstruction]", ok, detail)
    assert ok
    assert result.flow_value == 4 and result.total_requests == 5


def test_criterion7_allocation_properties():
    cfg = config_for_k(10)
    bad_runs = 0
    for seed in range(1000):
        alloc = allocate_regular(cfg, seed)
        counts = np.bincount(alloc.placement.reshape(-1), minlength=cfg.n)
        expected = np.array([cfg.storage_slots(b) for b in range(cfg.n)])
        if not np.array_equal(counts, expected):
            bad_runs += 1
    # permutation-uniformity at 4 sigma on the enumerable instance
    tiny = homogeneous_config(n=4, u=1, d=1, c=1, s=1, k=2, m=2)
    runs = 10_000
    from collections import Counter
    freq = Counter()
    for seed in range(runs):
        freq[tuple(int(x) for x in allocate_regular(tiny, seed)
                   .placement.reshape(-1))] += 1
    p = 1 / 24
    sigma = (runs * p * (1 - p)) ** 0.5
    off_band = [pat for pat in freq
                if not (runs * p - 4 * sigma <= freq[pat] <= runs * p + 4 * sigma)]
    ok = bad_runs == 0 and len(freq) == 24 and not off_band
    line("7 [allocation]", ok,
         f"{bad_runs}/1000 irregular runs; {len(freq)} patterns, "
         f"{len(off_band)} outside the 4-sigma band")
    assert ok


def test_criterion8_stressless_invariants():
    n, s = 100, 15
    upload = tuple(Fraction(2) if i % 2 == 0 else Fraction(32, 15)
                   for i in range(n))
    storage = tuple(15 * u for u in upload)  # proportionally heterogeneous
    u_avg = sum(upload) / n
    assert u_avg == Fraction(31, 15)  # mu + 1/s with mu = 2
    k = realistic_replication_k(u_avg, 5, 1, n)  # open-question formula, C=1
    m = sum(int(d * s) for d in storage) // (k * s)
    cfg = SystemConfig(n=n, upload=upload, storage=storage, c=s, s=s, m=m,
                       k=k, v_s=5, mu=2, a=1,
                       allocation_mode="purely_random")
    alloc = allocate_purely_random(cfg, seed=7)
    spec = adv.AdversarySpec(kind="stressless", seed=11, p_f=0.1,
                             swarms_per_video=1)
    gen = adv.generate_stressless(cfg, spec, n)
    assert len(gen.events) == n and not gen.warnings
    assert adv.validate_sequence(cfg, gen.events, swarms_per_video=1) == []

    eng = Engine(cfg, alloc, "dynamic-distributed", seed=3)
    by_tick: dict[int, list] = {}
    for ev in gen.events:
        by_tick.setdefault(ev.time, []).append(ev)
    horizon = gen.events[-1].time + 20
    reserved_ok = forest_ok = True
    for tick in range(horizon):
        eng.step(by_tick.get(tick, ()))
        # (a) one slot per box is never taken by cache traffic
        if any(int(eng.state.cache_up[b]) > int(eng.state.slots[b]) - 1
               for b in range(n)):
            reserved_ok = False
        # (b) cache connections always form a forest
        if not check_forest(eng.state)[0]:
            forest_ok = False
    metrics = eng.metrics

    bound = 10 * math.log(n)  # C' = 10, regression-tracked
    max_seed = metrics.max_per_stripe_seed()
    seeds_ok = max_seed <= bound
    unexplained = metrics.unexplained_stalls()
    ok = reserved_ok and forest_ok and seeds_ok and not unexplained
    line("8 [stress-less invariants]", ok,
         f"k={k}, m={m}, {len(gen.events)} events; reserved={reserved_ok}, "
         f"forest={forest_ok}, max per-stripe seed searches {max_seed} "
         f"<= {bound:.0f}: {seeds_ok}, unexplained stalls {len(unexplained)}")
    assert reserved_ok, "reserved seed slot violated"
    assert forest_ok, "cache connections formed a cycle"
    assert seeds_ok, f"per-stripe seed searches {max_seed} > {bound:.0f}"
    assert not unexplained, unexplained


def test_criterion9_bound_formulas():
    ok1 = min_replication_k(2, 32, 2) == 21
    cfg = homogeneous_config(n=4, u=1, d=2, c=15, s=1, k=2, m=4)
    report = feasibility_report(cfg)
    ok2 = any("below threshold 1+1/c" in f for f in report.flags)
    upload = (Fraction(1), Fraction(2), Fraction(3), Fraction(2))
    prop = SystemConfig(n=4, upload=upload,
                        storage=tuple(2 * u for u in upload), c=2, s=2, k=1,
                        m=8, allocation_mode="purely_random")
    rep = feasibility_report(prop)
    ok3 = rep.balance_ratio == prop.avg_upload
    line("9 [bounds]", ok1 and ok2 and ok3,
         f"k_min(2,32,2)={min_replication_k(2, 32, 2)}; scarce-upload flagged: "
         f"{ok2}; proportional u'={rep.balance_ratio} == u: {ok3}")
    assert ok1 and ok2 and ok3
