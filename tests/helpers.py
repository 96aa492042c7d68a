"""Shared test helpers: independent oracles and tiny-instance builders."""

from __future__ import annotations

import random
from fractions import Fraction
from operator import attrgetter

import numpy as np

from vodsim.allocation import AllocationError, AllocationMap
from vodsim.config import SystemConfig, frac
from vodsim.engine import Engine
from vodsim.maxflow import FlowNetwork
from vodsim.model import CACHE, SEED, ConnectionAssignment, SimEvent, StripeId
from vodsim.scheduler import select_static


def brute_force_min_cut(net: FlowNetwork) -> int:
    """Exhaustive min cut: enumerate every subset of interior nodes (requests
    and boxes) on the source side and take the cheapest cut. Independent of
    the max-flow implementation."""
    R, B = net.num_requests, len(net.box_ids)
    interior = R + B
    n_sub = 1 << interior
    subs = np.arange(n_sub, dtype=np.int64)
    # request r in source side iff bit r set; box b iff bit R+b set
    req_in = [(subs >> r) & 1 for r in range(R)]
    box_in = [(subs >> (R + b)) & 1 for b in range(B)]
    cut = np.zeros(n_sub, dtype=np.int64)
    for r in range(R):
        cut += 1 - req_in[r]  # source->request arc cut when r on sink side
    for r, arcs in enumerate(net.holder_arcs):
        for b in arcs:
            cut += req_in[r] * (1 - box_in[b])
    for b in range(B):
        cut += net.box_caps[b] * box_in[b]
    return int(cut.min())


def scipy_max_flow_value(net: FlowNetwork) -> int:
    """Max-flow value of a request network by scipy's maximum_flow, an
    implementation independent of vodsim's."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    R, B = net.num_requests, len(net.box_ids)
    sink = R + B + 1
    rows, cols, caps = [], [], []
    for r in range(R):
        rows.append(0), cols.append(1 + r), caps.append(1)
        for bi in net.holder_arcs[r]:
            rows.append(1 + r), cols.append(1 + R + bi), caps.append(1)
    for bi in range(B):
        rows.append(1 + R + bi), cols.append(sink), caps.append(net.box_caps[bi])
    graph = csr_matrix((np.array(caps, dtype=np.int32), (rows, cols)),
                       shape=(sink + 1, sink + 1))
    return int(maximum_flow(graph, 0, sink).flow_value)


def subset_balance_ratio(cfg: SystemConfig):
    """Reference u' = d * min over every nonempty box subset E of U_E/D_E, by
    enumerating all 2^n subsets (small n only); None when no subset stores
    anything."""
    n = cfg.n
    best = None
    for mask in range(1, 1 << n):
        subset = [i for i in range(n) if mask >> i & 1]
        d_e = sum((cfg.storage[i] for i in subset), Fraction(0))
        if d_e == 0:
            continue
        r = sum((cfg.upload[i] for i in subset), Fraction(0)) / d_e
        if best is None or r < best:
            best = r
    return cfg.avg_storage * best if best is not None else None


def load_allocation(text: str, mode: str = "regular") -> AllocationMap:
    """Read back an `AllocationMap.dump()` table."""
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append(tuple(int(x) for x in line.split(",")))
    m = max(r[0] for r in rows) + 1
    s = max(r[1] for r in rows) + 1
    k = max(r[2] for r in rows) + 1
    n = max(r[3] for r in rows) + 1
    placement = np.full((m, s, k), -1, dtype=np.int32)
    for v, j, r, b in rows:
        placement[v, j, r] = b
    if (placement < 0).any():
        raise AllocationError("allocation table has missing replicas")
    return AllocationMap(mode=mode, n=n, m=m, s=s, k=k, placement=placement)


def parse_event(line: str) -> SimEvent:
    """Read back one `str(SimEvent)` line."""
    parts = line.strip().split(",")
    time, box, kind = int(parts[0]), int(parts[1]), parts[2]
    video = int(parts[3]) if len(parts) > 3 else None
    return SimEvent(time=time, box=box, kind=kind, video=video)


def load_events(text: str) -> list[SimEvent]:
    """Read back a `dump_events` text."""
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            out.append(parse_event(line))
    return out


def dry_run_scores(state, alloc, requester: int) -> np.ndarray:
    """Reference greedy scores by a per-stripe `select_static` dry run of
    every video: -1 when some stripe has no uploader, otherwise the fewest
    free slots among the uploaders it picks."""
    scores = np.empty(state.cfg.m, dtype=np.int64)
    for v in range(state.cfg.m):
        picks = [select_static(state, alloc, requester, v, j)
                 for j in range(state.cfg.s)]
        scores[v] = (-1 if any(p is None for p in picks)
                     else min(int(state.free[b]) for b, _ in picks))
    return scores


def distributed_replay(cfg, alloc, events, seed: int):
    """Replay events through a dynamic-distributed Engine tick by tick, as
    engine.run does, and return its DistributedScheduler: run returns no
    scheduler, and the search counters (flips, evictions, failures) live on
    its stats."""
    eng = Engine(cfg, alloc, "dynamic-distributed", seed=seed)
    pending = sorted(events, key=attrgetter("time"))
    for t in range(pending[-1].time + 1):
        eng.step([ev for ev in pending if ev.time == t])
    return eng.sched


def assignment(state) -> ConnectionAssignment:
    """The links in force, as (downloader, uploader, stripe), by uploader."""
    return ConnectionAssignment(entries=[(c.downloader, c.uploader, c.stripe)
                                         for ups in state.uploads for c in ups])


def per_uploader(asg: ConnectionAssignment) -> dict[int, int]:
    """Number of links each uploader carries."""
    out: dict[int, int] = {}
    for _, up, _ in asg.entries:
        out[up] = out.get(up, 0) + 1
    return out


def check_forest(state) -> tuple[bool, list[int]]:
    """Cache connections inside each swarm must form a forest rooted at
    allocation-fed boxes (no cycles). Returns (ok, offending videos)."""
    bad: list[int] = []
    videos = {c.stripe.video
              for ups in state.uploads for c in ups if c.kind == CACHE}
    for v in videos:
        edges: dict[tuple[int, int], list[int]] = {}
        for ups in state.uploads:
            for c in ups:
                if c.kind == CACHE and c.stripe.video == v:
                    edges.setdefault((c.uploader, c.stripe.stripe), []).append(
                        c.session.box)
        for j in {j for (_, j) in edges}:
            graph = {up: downs for (up, jj), downs in edges.items() if jj == j}
            color: dict[int, int] = {}

            def dfs(u: int) -> bool:
                color[u] = 1
                for w in graph.get(u, ()):
                    if color.get(w) == 1:
                        return False
                    if color.get(w, 0) == 0 and not dfs(w):
                        return False
                color[u] = 2
                return True

            if not all(dfs(u) for u in list(graph) if color.get(u, 0) == 0):
                bad.append(v)
                break
    return (not bad), bad


def reference_requests(state, alloc) -> list[tuple]:
    """The tracker's request network rebuilt from scratch, with no memo and
    no SimState.cache_sources: per request, in build order, (requester,
    stripe, holder boxes, seeded uploader or -1). Holders are the stripe's
    active replicas and the active boxes whose cache is at least t_S ahead
    (SimState.cache_ahead), the requester excluded. An installed connection
    seeds when it is not in zap grace, its uploader is a holder and its
    kind is CACHE exactly when the uploader is a cache source."""
    out = []
    for box in range(state.cfg.n):
        for sess in state.sessions[box]:
            v = sess.video
            ahead = {b for b in range(state.cfg.n) if b != box and state.active[b]
                     and state.cache_ahead(b, v, sess.position)}
            for j in range(state.cfg.s):
                holders = ahead | {int(b) for b in alloc.placement[v, j]
                                   if b != box and state.active[b]}
                conn = sess.parents.get(j)
                seed = -1
                if (conn is not None and conn.expires_at is None
                        and conn.uploader in holders
                        and conn.kind == (CACHE if conn.uploader in ahead else SEED)):
                    seed = conn.uploader
                out.append((box, StripeId(v, j), holders, seed))
    return out


def network_requests(net: FlowNetwork) -> list[tuple]:
    """A built network's requests in reference_requests' form, mapped
    through box_ids."""
    ids = net.box_ids
    return [(net.requesters[r], net.requests[r],
             {ids[b] for b in net.holder_arcs[r]},
             ids[net.installed[r]] if net.installed[r] >= 0 else -1)
            for r in range(net.num_requests)]


def random_net(rng: random.Random, max_req: int = 12, max_box: int = 6,
               max_cap: int = 3, allow_empty: bool = False) -> FlowNetwork:
    R = rng.randint(1, max_req)
    B = rng.randint(1, max_box)
    arcs = []
    for _ in range(R):
        lo = 0 if allow_empty else 1
        deg = rng.randint(lo, B)
        arcs.append(sorted(rng.sample(range(B), deg)))
    caps = [rng.randint(0, max_cap) for _ in range(B)]
    return FlowNetwork(requests=[None] * R, requesters=[-1] * R,
                       box_ids=list(range(B)), box_caps=caps,
                       holder_arcs=arcs)


def tiny_config(n=4, u=1, d=2, c=2, s=1, k=2, m=None, **kw) -> SystemConfig:
    if m is None:
        m = n * d // k
    return SystemConfig(n=n, upload=(frac(u),) * n,
                        storage=(frac(d),) * n, c=c, s=s, k=k, m=m, **kw)


def tiny_hetero_config() -> SystemConfig:
    """Criterion 8's kind of system, scaled down: n=24, s=4, uploads
    alternate 2 and 9/4, storage proportional to upload, purely random
    allocation with k=6."""
    n, s, k = 24, 4, 6
    upload = tuple(Fraction(2) if i % 2 == 0 else Fraction(9, 4) for i in range(n))
    storage = tuple(s * u for u in upload)
    m = sum(int(d * s) for d in storage) // (k * s)
    return SystemConfig(n=n, upload=upload, storage=storage, c=s, s=s, m=m, k=k,
                        v_s=5, mu=Fraction(2), a=Fraction(9, 10),
                        allocation_mode="purely_random")


def spearman(xs, ys) -> float:
    """Spearman rank correlation with average ranks for ties."""

    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        rk = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for t in range(i, j + 1):
                rk[order[t]] = avg
            i = j + 1
        return rk

    rx, ry = ranks(list(xs)), ranks(list(ys))
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    dx = sum((a - mx) ** 2 for a in rx) ** 0.5
    dy = sum((b - my) ** 2 for b in ry) ** 0.5
    if dx == 0 or dy == 0:
        return 0.0
    return num / (dx * dy)


def chi_square_stat(counts, probs) -> float:
    total = sum(counts)
    stat = 0.0
    for c, p in zip(counts, probs):
        exp = total * p
        if exp > 0:
            stat += (c - exp) ** 2 / exp
    return stat
