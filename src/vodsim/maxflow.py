"""Centralized tracker: bipartite request/holder network, max-flow scheduling
and the exhaustive expander (Hall condition) verifier for desk-scale nets.

build_request_graph takes each session's cache holders from
SimState.cache_sources once and reuses them for all its stripes, and
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
from typing import Optional

from .allocation import AllocationMap
from .model import CACHE, SEED, SimState, StripeId, ConnectionAssignment

EXPANDER_GUARD = 20  # check_expander enumerates 2^R request subsets


@dataclass
class FlowNetwork:
    """Source -> requests (cap 1) -> holder boxes (cap 1 arcs) -> sink
    (cap u_i*s). holder_arcs[r] lists distinct indices into box_ids.
    installed[r] is the index of the box whose installed connection seeds
    request r's flow, -1 for none; None seeds nothing. Seeds lie on holder
    arcs and load no box beyond its capacity."""

    requests: list[Optional[StripeId]]
    requesters: list[int]  # box issuing each request, -1 for synthetic nets
    box_ids: list[int]
    box_caps: list[int]
    holder_arcs: list[list[int]]
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


def build_request_graph(state: SimState, alloc: AllocationMap) -> FlowNetwork:
    """One request node per stripe of every playing session; holders are the
    active allocation replicas plus playback caches sufficiently ahead of the
    requester (SimState.cache_sources). A box never holds for itself, and a
    stripe with no holder gives a request with no arcs.

    A session's cache holders are found once for all its stripes. A
    request's holder set takes its seed replicas in replica order, then its
    cache holders by ascending box id; box_ids numbers boxes in the order
    the sets iterate.

    A request's installed connection seeds the flow when it is not in zap
    grace, its uploader is still a holder, and its kind is the one a new
    connection would get (CACHE from a cache source, else SEED)."""
    cfg = state.cfg
    active = state.active
    live = list(active)  # the requester's own entry is cleared in turn

    requests: list[StripeId] = []
    requesters: list[int] = []
    box_index: dict[int, int] = {}
    holder_arcs: list[list[int]] = []
    installed: list[int] = []
    for box in range(cfg.n):
        live[box] = False
        for sess in state.sessions[box]:
            v = sess.video
            ahead = [b for b in state.cache_sources(v, sess.position) if b != box]
            parents = sess.parents
            for j, row in enumerate(alloc.placement[v].tolist()):
                holders = set(filter(live.__getitem__, row))
                holders.update(ahead)
                if not box_index.keys() >= holders:
                    for b in holders:
                        if b not in box_index:
                            box_index[b] = len(box_index)
                requests.append(StripeId(v, j))
                requesters.append(box)
                holder_arcs.append(sorted(map(box_index.__getitem__, holders)))
                conn = parents.get(j)
                seed = -1
                if conn is not None and conn.expires_at is None:
                    up = conn.uploader
                    if (up in holders
                            and conn.kind == (CACHE if up in ahead else SEED)):
                        seed = box_index[up]
                installed.append(seed)
        live[box] = active[box]

    box_ids = list(box_index)
    slots = state.slots.tolist()
    return FlowNetwork(requests=requests, requesters=requesters,
                       box_ids=box_ids, box_caps=[slots[b] for b in box_ids],
                       holder_arcs=holder_arcs, installed=installed)


def schedule_maxflow(state: SimState, alloc: AllocationMap):
    """Run the tracker over the current request multiset, starting from the
    installed connections. Returns a ConnectionAssignment when every request
    is served, else an Infeasible carrying the maximum partial flow and its
    min-cut obstruction. Either lists one entry per
    request, in request order, and marks in kept the requests whose seeding
    connection still serves them."""
    net = build_request_graph(state, alloc)
    res = max_flow(net)
    box_ids = net.box_ids
    seeds = net.installed
    entries = []
    kept = []
    for r, bi in enumerate(res.request_to_box):
        entries.append((net.requesters[r], box_ids[bi] if bi >= 0 else -1,
                        net.requests[r]))
        kept.append(bi >= 0 and bi == seeds[r])
    if res.value == net.num_requests:
        return ConnectionAssignment(entries=entries, kept=kept)
    # The unserved requests sit on the source side of the min cut, whose
    # holders are saturated by that side's served requests alone.
    u_side = sorted(res.source_side)
    nb = {bi for r in u_side for bi in net.holder_arcs[r]}
    return Infeasible(
        total_requests=net.num_requests, flow_value=res.value,
        witness_requests=u_side,
        witness_stripes=[net.requests[r] for r in u_side],
        witness_boxes=sorted(net.box_ids[bi] for bi in nb),
        witness_capacity=sum(net.box_caps[bi] for bi in nb),
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

