"""Correctness checks for the benchmark's workloads.

Each check recomputes its answer from the simulator's raw tables
(allocation placement, connection lists, sessions, slot counters) or tests a
property the method must have; none compares against stored output. Each
returns a list of violation messages, empty when the check passes.
"""

from __future__ import annotations

import numpy as np

from vodsim.model import CACHE, SEED


def _best_positions(state, video: int) -> dict[int, int]:
    """box -> furthest position of `video` it holds (playback or idle cache)."""
    best: dict[int, int] = {}
    for box, sessions in enumerate(state.sessions):
        for sess in sessions:
            if sess.video == video and sess.position > best.get(box, -1):
                best[box] = sess.position
    for box, ic in enumerate(state.idle_cache):
        if ic is not None and ic[0] == video and ic[1] > best.get(box, -1):
            best[box] = ic[1]
    return best


def slot_violations(state) -> list[str]:
    """free == slots - live uploads (recounted from state.uploads), >= 0."""
    live = np.array([len(ups) for ups in state.uploads])
    expect = state.slots.astype(np.int64) - live
    out = []
    for b in np.flatnonzero((state.free != expect) | (expect < 0)):
        out.append(f"box {b}: free={int(state.free[b])}, slots={int(state.slots[b])}, "
                   f"live uploads={int(live[b])}")
    return out


def reserved_slot_violations(state) -> list[str]:
    """Cache traffic never takes a box's reserved seed slot."""
    bad = np.flatnonzero(state.cache_up > state.slots - 1)
    return [f"box {b}: cache_up={int(state.cache_up[b])} > slots-1="
            f"{int(state.slots[b]) - 1}" for b in bad]


def connection_violations(state, alloc, cache_ahead: bool = True) -> list[str]:
    """Seed uploaders hold the replica; a connection in its grace period (its
    uploader zapped away and serves from its buffer) has not outlived its
    deadline, which the sweep at the last tick (state.tick - 1) enforced.

    With cache_ahead, every other cache uploader is strictly ahead of its
    downloader, which makes the cache graph acyclic. Positions stop at
    video_duration, and a downloader there has the whole video; only then may
    its uploader be level with it. Dynamic modes tear connections that fall
    behind at the next tick's sweep, so their end states are checked with
    `cache_cycle_violations` and their positions by `swept_cache_violations`."""
    out = []
    positions: dict[int, dict[int, int]] = {}
    for up, ups in enumerate(state.uploads):
        for c in ups:
            v, j = c.stripe
            if c.uploader != up:
                out.append(f"connection listed under box {up} has uploader {c.uploader}")
            if c.session.parents.get(j) is not c:
                out.append(f"connection {up}->{c.session.box} ({v},{j}) is not "
                           "its session's parent")
            if c.kind == SEED:
                if up not in alloc.placement[v, j]:
                    out.append(f"seed connection {up}->{c.session.box} for "
                               f"({v},{j}) from a non-holder")
            elif c.expires_at is not None:
                if c.expires_at < state.tick:
                    out.append(f"cache connection {up}->{c.session.box} for "
                               f"({v},{j}) outlived its grace deadline")
            elif cache_ahead:
                if v not in positions:
                    positions[v] = _best_positions(state, v)
                out += _ahead(state, c, positions[v].get(up))
    return out


def _ahead(state, c, pu) -> list[str]:
    pd = c.session.position
    end = state.cfg.video_duration
    if pu is not None and (pu > pd or pu == pd == end):
        return []
    return [f"cache connection {c.uploader}->{c.session.box} for {tuple(c.stripe)}: "
            f"uploader at {pu}, downloader at {pd}"]


def swept_cache_violations(state) -> list[str]:
    """Right after a dynamic-mode sweep: every cache connection of a started
    downloader, outside a grace period, comes from a strictly further
    position."""
    out = []
    positions: dict[int, dict[int, int]] = {}
    for ups in state.uploads:
        for c in ups:
            if c.kind != CACHE or c.expires_at is not None or not c.session.started:
                continue
            v = c.stripe.video
            if v not in positions:
                positions[v] = _best_positions(state, v)
            out += _ahead(state, c, positions[v].get(c.uploader))
    return out


def cache_cycle_violations(state) -> list[str]:
    """Cache connections of each stripe form no cycle (Kahn's algorithm on
    uploader -> downloader edges). Connections into a started session from
    an uploader that is not ahead of it are left out: the next tick's sweep
    tears them. A box that stops a video and starts it again within a tick
    leaves such connections behind, and they can close a cycle until then."""
    edges: dict[tuple[int, int], list[tuple[int, int]]] = {}
    positions: dict[int, dict[int, int]] = {}
    for up, ups in enumerate(state.uploads):
        for c in ups:
            if c.kind != CACHE:
                continue
            v = c.stripe.video
            if c.session.started and c.expires_at is None:
                if v not in positions:
                    positions[v] = _best_positions(state, v)
                if _ahead(state, c, positions[v].get(up)):
                    continue  # due for the next sweep
            edges.setdefault(tuple(c.stripe), []).append((up, c.session.box))
    out = []
    for stripe, es in edges.items():
        indeg: dict[int, int] = {}
        succ: dict[int, list[int]] = {}
        for a, b in es:
            succ.setdefault(a, []).append(b)
            indeg[b] = indeg.get(b, 0) + 1
            indeg.setdefault(a, 0)
        ready = [x for x, d in indeg.items() if d == 0]
        removed = 0
        while ready:
            x = ready.pop()
            removed += 1
            for y in succ.get(x, ()):
                indeg[y] -= 1
                if indeg[y] == 0:
                    ready.append(y)
        if removed < len(indeg):
            out.append(f"cache connections of stripe {stripe} form a cycle")
    return out


def ceiling_violations(state) -> list[str]:
    """Fully connected sessions <= floor(sum of active boxes' u_i*s / s)."""
    s = state.cfg.s
    connected = sum(1 for sessions in state.sessions for sess in sessions
                    if len(sess.parents) == s)
    active = np.asarray(state.active, dtype=bool)
    ceiling = int(state.slots[active].sum()) // s
    if connected > ceiling:
        return [f"{connected} fully connected sessions > ceiling {ceiling}"]
    return []


def allocation_violations(cfg, alloc) -> list[str]:
    """Regular allocations fill every box exactly (d_i*s replicas); purely
    random ones never overfill it."""
    counts = np.bincount(alloc.placement.ravel(), minlength=cfg.n)
    want = np.array([cfg.storage_slots(i) for i in range(cfg.n)])
    bad = counts != want if alloc.mode == "regular" else counts > want
    return [f"box {b}: {int(counts[b])} replicas, storage {int(want[b])}"
            for b in np.flatnonzero(bad)]


def state_violations(state, alloc) -> list[str]:
    """The checks every workload's end state must pass."""
    static = state.mode == "static"
    out = slot_violations(state) + connection_violations(state, alloc, static)
    if not static:
        out += cache_cycle_violations(state)
    return out + ceiling_violations(state)


def static_session_violations(state, satisfied: int) -> list[str]:
    """Static probe: every live session has all s parents and the satisfied
    count equals the number of live sessions."""
    s = state.cfg.s
    sessions = [sess for box in state.sessions for sess in box]
    out = [f"box {sess.box} video {sess.video}: {len(sess.parents)} of {s} parents"
           for sess in sessions if len(sess.parents) != s]
    if len(sessions) != satisfied:
        out.append(f"{len(sessions)} live sessions but {satisfied} satisfied")
    return out


def refusal_violations(state, alloc, requester: int, video: int, j: int,
                       position: int = 0) -> list[str]:
    """A refusal of stripe j is right only if no box can serve it: no active
    holder other than the requester with a free slot, and no cache source
    at least t_S ahead with a free slot outside its reserved one."""
    free = state.free
    active = np.asarray(state.active, dtype=bool)
    holders = alloc.placement[video, j].astype(np.int64)
    seed_ok = active[holders] & (free[holders] > 0) & (holders != requester)
    best = _best_positions(state, video)
    boxes = np.fromiter(best.keys(), dtype=np.int64, count=len(best))
    pos = np.fromiter(best.values(), dtype=np.int64, count=len(best))
    cache_ok = (active[boxes] & (boxes != requester)
                & (pos >= position + state.cfg.t_s) & (free[boxes] > 0)
                & (state.cache_up[boxes] + 1 <= state.slots[boxes] - 1))
    out = []
    if seed_ok.any():
        out.append(f"refused ({video},{j}) for box {requester} but holder "
                   f"{int(holders[seed_ok][0])} has a free slot")
    if cache_ok.any():
        out.append(f"refused ({video},{j}) for box {requester} but cache source "
                   f"{int(boxes[cache_ok][0])} can serve it")
    return out


def oracle_flow_value(net) -> int:
    """Max-flow value of a request network, computed by scipy."""
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


def flow_value_violations(net, value: int) -> list[str]:
    """The tracker's flow value equals the oracle's on the same network."""
    want = oracle_flow_value(net)
    return [] if value == want else [f"flow value {value} != oracle {want}"]


def assignment_violations(net, entries) -> list[str]:
    """A full assignment serves request r from one of its holder arcs and
    loads no box beyond its capacity."""
    if len(entries) != net.num_requests:
        return [f"{len(entries)} assignment entries for {net.num_requests} requests"]
    index = {b: bi for bi, b in enumerate(net.box_ids)}
    load = np.zeros(len(net.box_ids), dtype=np.int64)
    out = []
    for r, (down, up, stripe) in enumerate(entries):
        bi = index.get(up)
        if (down != net.requesters[r] or stripe != net.requests[r]
                or bi is None or bi not in net.holder_arcs[r]):
            out.append(f"request {r} ({stripe} for box {down}) served by {up} "
                       "outside its holder arcs")
            continue
        load[bi] += 1
    caps = np.asarray(net.box_caps)
    out += [f"box {net.box_ids[bi]}: {int(load[bi])} > capacity {int(caps[bi])}"
            for bi in np.flatnonzero(load > caps)]
    return out


def installed_violations(state, net) -> list[str]:
    """The installed connections number exactly the oracle's max flow of the
    request network they were decoded from."""
    installed = sum(len(ups) for ups in state.uploads)
    want = oracle_flow_value(net)
    if installed != want:
        return [f"{installed} installed connections != oracle max flow {want}"]
    return []


def stall_violations(metrics) -> list[str]:
    return [f"unexplained stall: {s}" for s in metrics.unexplained_stalls()]
