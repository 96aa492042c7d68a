"""Centralized tracker: bipartite request/holder network, max-flow scheduling
and the exhaustive expander (Hall condition) verifier for desk-scale nets.

build_request_graph numbers boxes by id, so a request's holder arcs depend
on its session alone. Each session keeps its arcs until its holders change
(a box fails or comes back, or its cache sources move), and each build
records which installed connections can seed the flow. A request whose
stripe has no holder gets no arcs.
max_flow runs Dinic's algorithm on the implicit residual graph of the
unit-demand network: the flow is each request's assigned box and each box's
load, and the residual arcs follow from those, so no edge list is built.
It starts from the seeded flow and augments it to a maximum one. An
augmenting path never returns to the source, so a request served by the
seed stays served, though perhaps by another box. The maximum may be
partial: schedule_maxflow then returns an Infeasible that carries the
partial assignment along with its min-cut witness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .allocation import AllocationMap
from .model import CACHE, SEED, SimState, StripeId, ConnectionAssignment

EXPANDER_GUARD = 20  # check_expander enumerates 2^R request subsets


@dataclass
class FlowNetwork:
    """Source -> requests (cap 1) -> holder boxes (cap 1 arcs) -> sink
    (cap u_i*s). box_ids lists every box, so an index into it is a box id.
    holder_arcs[r] lists distinct box indices. installed[r] is the box whose
    installed connection seeds request r's flow, -1 for none; None seeds
    nothing. Seeds lie on holder arcs and load no box beyond its capacity."""

    requests: list[Optional[StripeId]]
    requesters: list[int]  # box issuing each request, -1 for synthetic nets
    box_ids: list[int]
    box_caps: list[int]
    holder_arcs: list[Sequence[int]]
    installed: Optional[list[int]] = None

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def num_arcs(self) -> int:
        return self.num_requests + sum(len(a) for a in self.holder_arcs) + len(self.box_ids)


@dataclass
class MaxFlowResult:
    value: int
    request_to_box: list[int]  # index into box_ids, -1 when unserved
    source_side: set[int]  # request indices on the source side of the min cut


@dataclass
class Infeasible:
    """Scheduling obstruction: the maximum flow leaves some request unserved.
    The witness is the min cut's source side, a request multiset whose
    holders' capacity is below its size (a Hall violation). entries and
    kept are the maximum partial flow, as in ConnectionAssignment; an
    unserved request's uploader is -1."""

    total_requests: int
    flow_value: int
    witness_requests: list[int]
    witness_stripes: list[StripeId]
    witness_boxes: list[int]
    witness_capacity: int
    entries: list[tuple[int, int, StripeId]]
    kept: list[bool]


def max_flow(net: FlowNetwork) -> MaxFlowResult:
    """Exact integral max flow via Dinic's algorithm on the implicit residual
    graph, augmenting from the seed in net.installed. The value counts the
    seeded units too.

    Every request carries one unit, so the flow is held as assigned[r] (the
    box index serving request r, or -1) and load[b]. Residual arcs:
    source->r is open iff r is unassigned, r->b iff assigned[r] != b,
    b->r iff assigned[r] == b, and b->sink iff load[b] < box_caps[b].
    Arcs are visited in the order of the explicit network (requests in index
    order out of the source, a request's arcs in holder_arcs order, a box's
    reverse arcs by ascending request before its sink arc), which fixes the
    decoded assignment. A box's open reverse arcs lead to the requests it
    serves; each levelling lists those per box, ascending. A request that a
    box takes on later in the phase sits a level below it, so the list
    misses no arc the phase can use."""
    R, B = net.num_requests, len(net.box_ids)
    arcs = net.holder_arcs
    caps = net.box_caps
    assigned = list(net.installed) if net.installed is not None else [-1] * R
    load = [0] * B
    for b in assigned:
        if b >= 0:
            load[b] += 1

    lev_r: list[int] = []
    lev_b: list[int] = []
    served: list[list[int]] = []  # per box, the requests it serves, ascending
    it_r: list[int] = []
    it_b: list[int] = []

    def bfs() -> int:
        """Level the residual graph from the source; returns the sink's
        level, or -1 when the sink is unreachable (the levels then mark
        every node reachable from the source)."""
        nonlocal lev_r, lev_b, served
        lev_r = [-1] * R
        lev_b = [-1] * B
        served = [[] for _ in range(B)]
        for r, b in enumerate(assigned):
            if b >= 0:
                served[b].append(r)
        frontier = [r for r in range(R) if assigned[r] < 0]
        for r in frontier:
            lev_r[r] = 1
        d = 1
        while frontier:
            boxes = []
            for r in frontier:
                a = assigned[r]
                for b in arcs[r]:
                    if lev_b[b] < 0 and b != a:
                        lev_b[b] = d + 1
                        boxes.append(b)
            # Nodes past the sink's level cannot lead to it, so stop here.
            for b in boxes:
                if load[b] < caps[b]:
                    return d + 2
            frontier = []
            for b in boxes:
                for r in served[b]:
                    if lev_r[r] < 0:
                        lev_r[r] = d + 2
                        frontier.append(r)
            d += 2
        return -1

    def dfs_request(r: int) -> bool:
        nxt = lev_r[r] + 1
        a = arcs[r]
        i = it_r[r]
        while i < len(a):
            b = a[i]
            if assigned[r] != b and lev_b[b] == nxt and dfs_box(b):
                assigned[r] = b
                it_r[r] = i
                return True
            i += 1
        it_r[r] = i
        return False

    def dfs_box(b: int) -> bool:
        nxt = lev_b[b] + 1
        rv = served[b]
        i = it_b[b]
        while i < len(rv):
            r = rv[i]
            if assigned[r] == b and lev_r[r] == nxt and dfs_request(r):
                it_b[b] = i
                return True
            i += 1
        if i == len(rv):  # the sink arc comes last
            if load[b] < caps[b] and sink_level == nxt:
                load[b] += 1
                it_b[b] = i
                return True
            i += 1
        it_b[b] = i
        return False

    value = R - assigned.count(-1)
    while (sink_level := bfs()) >= 0:
        it_r = [0] * R
        it_b = [0] * B
        r = 0
        while r < R:  # a found path leaves the source's arc pointer in place
            if assigned[r] < 0 and lev_r[r] == 1 and dfs_request(r):
                value += 1
            else:
                r += 1

    # The last levelling reached every node reachable from the source.
    source_side = {r for r in range(R) if lev_r[r] >= 0}
    return MaxFlowResult(value=value, request_to_box=assigned,
                         source_side=source_side)


class SessionArcs(NamedTuple):
    """A session's holder arcs and request stripes, one per stripe, with
    everything they were built from: the allocation, the active flags and
    the session's cache sources minus its own box."""

    alloc: AllocationMap
    active: tuple[bool, ...]
    ahead: list[int]
    requests: list[StripeId]
    arcs: list[tuple[int, ...]]


def build_request_graph(state: SimState, alloc: AllocationMap) -> FlowNetwork:
    """One request node per stripe of every playing session; holders are the
    active allocation replicas plus playback caches sufficiently ahead of the
    requester (SimState.cache_sources). A box never holds for itself, and a
    stripe with no holder gives a request with no arcs.

    Boxes are numbered by id, so a request's arcs are its holders'
    ascending box ids and depend on its session alone. Each session keeps
    them in PlaybackSession.holder_arcs, keyed by the allocation (by
    identity), the active flags and the session's cache sources; they are
    rebuilt only when one of these changed. The cache sources are looked up
    on every build.

    A request's installed connection seeds the flow when it is not in zap
    grace, its uploader is still a holder, and its kind is the one a new
    connection would get (CACHE from a cache source, else SEED). The seeds
    are found anew on every build, since every install changes them."""
    active = tuple(state.active)
    distinct = alloc.distinct_holders

    requests: list[StripeId] = []
    requesters: list[int] = []
    holder_arcs: list[tuple[int, ...]] = []
    installed: list[int] = []
    for box, sessions in enumerate(state.sessions):
        for sess in sessions:
            v = sess.video
            ahead = [b for b in state.cache_sources(v, sess.position) if b != box]
            memo = sess.holder_arcs
            if (memo is None or memo.alloc is not alloc or memo.active != active
                    or memo.ahead != ahead):
                memo = sess.holder_arcs = _session_arcs(alloc, active, ahead, box, v)
            requests += memo.requests
            holder_arcs += memo.arcs
            requesters += [box] * len(memo.arcs)
            parents = sess.parents
            for j, held in enumerate(distinct[v]):
                conn = parents.get(j)
                seed = -1
                if conn is not None and conn.expires_at is None:
                    up = conn.uploader
                    if ((up in ahead) if conn.kind == CACHE
                            else (up not in ahead and active[up] and up in held)):
                        seed = up
                installed.append(seed)

    return FlowNetwork(requests=requests, requesters=requesters,
                       box_ids=list(range(state.cfg.n)),
                       box_caps=state.slots.tolist(),
                       holder_arcs=holder_arcs, installed=installed)


def _session_arcs(alloc: AllocationMap, active: tuple[bool, ...],
                  ahead: list[int], box: int, video: int) -> SessionArcs:
    """The holder arcs of every stripe of video for a session on box: the
    stripe's active replicas other than box, and the cache sources ahead,
    in ascending box id."""
    arcs = []
    for held in alloc.distinct_holders[video]:
        seeds = [b for b in held if active[b] and b != box]
        arcs.append(tuple(sorted({*seeds, *ahead}) if ahead else seeds))
    return SessionArcs(alloc, active, ahead,
                       [StripeId(video, j) for j in range(len(arcs))], arcs)


def schedule_maxflow(state: SimState, alloc: AllocationMap):
    """Run the tracker over the current request multiset, starting from the
    installed connections. Returns a ConnectionAssignment when every request
    is served, else an Infeasible carrying the maximum partial flow and its
    min-cut obstruction. Either lists one entry per
    request, in request order, and marks in kept the requests whose seeding
    connection still serves them."""
    net = build_request_graph(state, alloc)
    res = max_flow(net)
    seeds = net.installed
    entries = []
    kept = []
    for r, b in enumerate(res.request_to_box):
        entries.append((net.requesters[r], b, net.requests[r]))
        kept.append(b >= 0 and b == seeds[r])
    if res.value == net.num_requests:
        return ConnectionAssignment(entries=entries, kept=kept)
    # The unserved requests sit on the source side of the min cut, whose
    # holders are saturated by that side's served requests alone.
    u_side = sorted(res.source_side)
    nb = {b for r in u_side for b in net.holder_arcs[r]}
    return Infeasible(
        total_requests=net.num_requests, flow_value=res.value,
        witness_requests=u_side,
        witness_stripes=[net.requests[r] for r in u_side],
        witness_boxes=sorted(nb),
        witness_capacity=sum(net.box_caps[b] for b in nb),
        entries=entries, kept=kept)


def check_expander(net: FlowNetwork):
    """Exhaustively verify that every request subset U' satisfies
    sum of holder capacities over N(U') >= |U'|. Returns (True, None) or
    (False, minimal violating subset as request indices)."""
    R = net.num_requests
    if R > EXPANDER_GUARD:
        raise ValueError(f"request side {R} exceeds enumeration guard {EXPANDER_GUARD}")
    masks = []
    for arcs in net.holder_arcs:
        m = 0
        for bi in arcs:
            m |= 1 << bi
        masks.append(m)

    capsum_cache: dict[int, int] = {0: 0}

    def capsum(mask: int) -> int:
        got = capsum_cache.get(mask)
        if got is None:
            low = mask & -mask
            got = capsum(mask ^ low) + net.box_caps[low.bit_length() - 1]
            capsum_cache[mask] = got
        return got

    best: Optional[int] = None
    best_size = R + 1
    for sub in range(1, 1 << R):
        size = sub.bit_count()
        if size >= best_size:
            continue
        nb = 0
        x = sub
        while x:
            low = x & -x
            nb |= masks[low.bit_length() - 1]
            x ^= low
        if capsum(nb) < size:
            best, best_size = sub, size
    if best is None:
        return True, None
    return False, [r for r in range(R) if best >> r & 1]

