"""Shared test helpers: independent oracles and tiny-instance builders."""

from __future__ import annotations

import random

import numpy as np

from vodsim.config import SystemConfig, frac
from vodsim.maxflow import FlowNetwork
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
