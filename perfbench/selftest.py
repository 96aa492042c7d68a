#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Each check must pass on a sound state and fail on a copy of it with one
planted fault: an oversubscribed slot, a seed connection from a non-holder,
a cache cycle, a flow value one short of the oracle, a refusal while an
acceptor exists, and a few more. The per-call hooks of the traced run are
tested the same way, through a deliberately broken solver and selector.
Exits 1 if any check misses its fault or flags a sound state.
"""

from __future__ import annotations

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def tiny_state():
    """Six boxes, two stripes, every session fully fed by seed holders;
    box 0 plays video 0 at position 5, box 1 plays it at position 3 and
    box 2 plays video 1 at position 4."""
    from vodsim.allocation import allocate_regular
    from vodsim.config import homogeneous_config
    from vodsim.model import SEED, PlaybackSession, SimState

    cfg = homogeneous_config(n=6, u=2, d=2, c=2, s=2, k=2)
    alloc = allocate_regular(cfg, 0)
    state = SimState(cfg=cfg, alloc=alloc, mode="static")
    for box, video, pos in ((0, 0, 5), (1, 0, 3), (2, 1, 4)):
        sess = PlaybackSession(box=box, video=video, start_tick=0, position=pos,
                               started=True)
        state.sessions[box].append(sess)
        state.join_swarm(sess)
        for j in range(cfg.s):
            up = next(int(b) for b in alloc.placement[video, j]
                      if b != box and state.free[b] > 0)
            state.install_connection(up, sess, j, SEED)
    return state


def session(state, box):
    return state.sessions[box][0]


def main() -> int:
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import checks
    from vodsim import maxflow, scheduler
    from vodsim.engine import Metrics, StallRecord
    from vodsim.model import CACHE, SEED, Connection, StripeId

    results: list[tuple[str, bool]] = []

    def expect(label, violations, fault: bool):
        ok = bool(violations) == fault
        results.append((label, ok))
        what = "caught" if fault else "clean"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {what if ok else violations or 'missed'}")

    base = tiny_state()
    alloc = base.alloc
    expect("sound state", checks.state_violations(base, alloc)
           + checks.reserved_slot_violations(base)
           + checks.allocation_violations(base.cfg, alloc), fault=False)

    # oversubscribed slot: one upload more than the box has slots
    st = copy.deepcopy(base)
    b = next(x for x in range(st.cfg.n) if st.uploads[x])
    conn = st.uploads[b][0]
    while st.free[b] > 0:
        st.free[b] -= 1
    st.uploads[b].append(Connection(uploader=b, session=conn.session,
                                    stripe=conn.stripe, kind=conn.kind))
    expect("oversubscribed slot", checks.slot_violations(st), fault=True)

    # seed connection from a box that does not hold the replica
    st = copy.deepcopy(base)
    sess = session(st, 0)
    conn = sess.parents[0]
    v, j = conn.stripe
    other = next(x for x in range(st.cfg.n) if x not in st.alloc.placement[v, j]
                 and x != sess.box and st.free[x] > 0)
    st.uploads[conn.uploader].remove(conn)
    st.free[conn.uploader] += 1
    conn.uploader = other
    st.uploads[other].append(conn)
    st.free[other] -= 1
    expect("non-holder seed: slots still balance", checks.slot_violations(st), fault=False)
    expect("non-holder seed", checks.connection_violations(st, st.alloc), fault=True)

    # cache cycle: box 0 feeds box 1 stripe 0, box 1 feeds box 0 stripe 0
    st = copy.deepcopy(base)
    a, b = session(st, 0), session(st, 1)
    st.sever_connection(b.parents[0])
    st.install_connection(0, b, 0, CACHE)
    expect("cache edge ahead", checks.connection_violations(st, st.alloc)
           + checks.cache_cycle_violations(st) + checks.swept_cache_violations(st),
           fault=False)
    st.sever_connection(a.parents[0])
    st.install_connection(1, a, 0, CACHE)
    expect("cache cycle", checks.connection_violations(st, st.alloc), fault=True)
    pending = copy.deepcopy(st)  # between pending sessions no sweep tears it
    for box in (0, 1):
        session(pending, box).started = False
    expect("cache cycle, by graph", checks.cache_cycle_violations(pending), fault=True)
    expect("cache cycle, after a sweep", checks.swept_cache_violations(st), fault=True)

    # flow value one short of the oracle, and one connection short of it
    net = maxflow.build_request_graph(base, alloc)
    value = maxflow.max_flow(net).value
    expect("flow value", checks.flow_value_violations(net, value), fault=False)
    expect("flow value one short", checks.flow_value_violations(net, value - 1),
           fault=True)
    expect("installed flow", checks.installed_violations(base, net), fault=False)
    st = copy.deepcopy(base)
    st.sever_connection(session(st, 2).parents[0])
    expect("installed flow one short", checks.installed_violations(st, net), fault=True)
    entries = maxflow.schedule_maxflow(base, alloc).entries
    expect("assignment", checks.assignment_violations(net, entries), fault=False)
    down, up, stripe = entries[0]
    stranger = next(x for x in range(base.cfg.n)
                    if x not in alloc.placement[stripe.video, stripe.stripe]
                    and x != down)
    expect("assignment outside holder arcs",
           checks.assignment_violations(net, [(down, stranger, stripe)] + entries[1:]),
           fault=True)

    # refusals: wrong while a holder or cache source can serve
    requester, video = 3, 0
    expect("refusal while a holder can serve",
           [v for v in checks.refusal_violations(base, alloc, requester, video, 0)
            if "holder" in v], fault=True)
    st = copy.deepcopy(base)
    for h in alloc.placement[video, 0]:
        st.active[int(h)] = False
    st.active[0] = st.active[1] = True  # they play video 0, ahead of 0
    expect("refusal while a cache source can serve",
           [v for v in checks.refusal_violations(st, alloc, requester, video, 0)
            if "cache source" in v], fault=True)
    for box in (0, 1):
        st.active[box] = False
    expect("refusal with no source",
           checks.refusal_violations(st, alloc, requester, video, 0), fault=False)

    # reserved slot, stalls, allocation fill, bandwidth ceiling
    st = copy.deepcopy(base)
    st.cache_up[0] = st.slots[0]
    expect("reserved slot taken", checks.reserved_slot_violations(st), fault=True)
    metrics = Metrics()
    metrics.stalls.append(StallRecord(tick=3, box=1, video=0, stripe=0,
                                      cause="search_failed"))
    expect("unexplained stall", checks.stall_violations(metrics), fault=True)
    broken = copy.deepcopy(alloc)
    broken.placement[0, 0, 0] = broken.placement[0, 0, 1]
    expect("allocation overfill", checks.allocation_violations(base.cfg, broken),
           fault=True)
    st = copy.deepcopy(base)
    st.active = [False] * st.cfg.n
    expect("sessions above the ceiling", checks.ceiling_violations(st), fault=True)

    # the traced run's per-call hooks, through a broken solver and selector
    import layers

    real_max_flow = maxflow.max_flow
    real_candidates = scheduler.static_candidates

    def short_max_flow(net):
        res = real_max_flow(net)
        res.value -= 1
        return res

    maxflow.max_flow = short_max_flow
    scheduler.static_candidates = lambda *a, **k: []
    try:
        inst = layers.Instruments()
        inst.install()
        inst.tracer.recording = True
        maxflow.schedule_maxflow(base, alloc)
        expect("traced solve one short", inst.violations, fault=True)
        inst.violations.clear()
        st = copy.deepcopy(base)
        refused = scheduler.schedule_request_static(st, alloc, requester, video)
        expect("traced refusal while an acceptor exists",
               inst.violations if refused is None else [], fault=True)
    finally:
        inst.tracer.restore()
        maxflow.max_flow = real_max_flow
        scheduler.static_candidates = real_candidates

    missed = [label for label, ok in results if not ok]
    print(f"{len(results) - len(missed)} of {len(results)} cases passed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
