"""Connection scheduling.

Two schedulers share the candidate model (allocation replicas as seed
sources, swarm playback caches as cache sources):

* the static selector used by the no-renegotiation experiments: scans all
  candidates and commits the acceptor with the most free upload slots,
  breaking ties by fewest uploads for the video, then lowest box id; it
  never touches existing connections and never gates seed service;
* the randomized distributed scheduler: cache-first fanout probing behind
  the v_S popularity gate, the seven-step connection-granting decision,
  connection flipping and seed re-search.

A box serving from its playback cache must be at least t_S ticks of data
ahead of the requested position. That rule lives in one place,
SimState.cache_ahead and SimState.cache_sources, which both schedulers, the
flow tracker and the greedy adversary read.
One upload slot per box is never granted to cache traffic: it stays
reserved for serving allocation replicas. cache_acceptors applies both rules,
for the static selector and the greedy adversary.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from .allocation import AllocationMap
from .model import (CACHE, SEED, Connection, PlaybackSession, SimState,
                    StripeId)

FANOUT = 3  # boxes a distributed search probes at once


@dataclass
class ConnectionRequest:
    requester: int
    stripe: StripeId
    position: int  # ticks of stripe data already consumed
    kind: str  # CACHE | SEED


@dataclass
class GrantDecision:
    """Outcome of the granting algorithm at one probed box.

    evict is set by steps 5-6 (a connection the acceptor closes to make
    room); flip_to is the redirection target: for refusals at steps 4/7 the
    searcher re-probes it, for step 6 the displaced downloader does.
    """

    step: int
    accept: bool
    evict: Optional[Connection] = None
    flip_to: Optional[int] = None


@dataclass
class SearchFailure:
    request: ConnectionRequest
    probed: int
    reason: str = "exhausted"


def gate_open(state: SimState, stripe: StripeId) -> bool:
    """Allocation holders are probed only while the swarm is small or the
    stripe has few active seed downloads (the v_S gate)."""
    v_s = state.cfg.v_s
    return (state.swarm_size[stripe.video] < v_s
            or state.seed_active[stripe.video, stripe.stripe] < v_s)


def cache_capacity_ok(state: SimState, x: int) -> bool:
    # one slot per box is reserved for allocation-replica uploads
    return state.free[x] > 0 and state.cache_up[x] + 1 <= state.slots[x] - 1


def cache_acceptors(state: SimState, video: int, position: int,
                    requester: int) -> list[int]:
    """Boxes that can take a new cache upload of video for a requester at
    position right now: the cache sources other than the requester that
    have a free slot besides the reserved one, in ascending box id."""
    return [b for b in state.cache_sources(video, position)
            if b != requester and cache_capacity_ok(state, b)]


def _parent_of(state: SimState, x: int, video: int, j: int) -> Optional[int]:
    for sess in state.sessions[x]:
        if sess.video == video and j in sess.parents:
            return sess.parents[j].uploader
    return None


def grant_connection(x: int, req: ConnectionRequest, state: SimState,
                     rng: random.Random) -> GrantDecision:
    """The seven-step granting decision run by probed box x. Pure: the caller
    installs the connection and executes the eviction."""
    v, j = req.stripe
    if not state.active[x] or x == req.requester:
        return GrantDecision(step=0, accept=False)
    playing_v = state.playing(x, v)

    # Step 1: a box not viewing the video refuses duplicate uploads of a stripe.
    if not playing_v and state.uploads_stripe(x, req.stripe):
        return GrantDecision(step=1, accept=False)

    # Cache service needs x's data sufficiently ahead of the requested
    # position; without it the only option is redirecting up x's chain.
    if req.kind == CACHE and not state.cache_ahead(x, v, req.position):
        return GrantDecision(step=4, accept=False,
                             flip_to=_parent_of(state, x, v, j))

    # Step 2: enough upload capacity (cache grants keep the reserved slot).
    if req.kind == CACHE:
        if cache_capacity_ok(state, x):
            return GrantDecision(step=2, accept=True)
    elif state.free[x] > 0:
        return GrantDecision(step=2, accept=True)

    # Step 3: saturated and not playing the video.
    if not playing_v:
        return GrantDecision(step=3, accept=False)

    # Step 4 (cache position already verified above for cache requests).

    # Step 5: close one of >= 2 uploads carrying other videos, at random.
    # A seed upload may only be cancelled while the box keeps another one.
    others = [c for c in state.uploads[x] if c.stripe.video != v]
    if len(others) >= 2:
        n_seed = len(state.seed_uploads_of(x))
        evictable = [c for c in others
                     if c.kind == CACHE or (c.kind == SEED and n_seed >= 2)]
        if evictable:
            victim = evictable[rng.randrange(len(evictable))]
            return GrantDecision(step=5, accept=True, evict=victim)

    # Step 6: displace a same-stripe downloader the requester is sufficiently
    # ahead of; the victim is redirected to the requester.
    same = [c for c in state.uploads[x]
            if c.stripe == req.stripe
            and req.position >= c.session.position + state.cfg.t_s]
    if same:
        victim = min(same, key=lambda c: (c.session.position, c.session.box))
        return GrantDecision(step=6, accept=True, evict=victim,
                             flip_to=req.requester)

    # Step 7: refuse, redirecting to a child of x just ahead of the requester.
    children = [c for c in state.uploads[x]
                if c.stripe.video == v and c.kind == CACHE
                and c.session.position >= req.position + state.cfg.t_s
                and c.session.box != req.requester]
    if children:
        child = min(children, key=lambda c: (c.session.position, c.session.box))
        return GrantDecision(step=7, accept=False, flip_to=child.session.box)
    return GrantDecision(step=7, accept=False)


# --- static scheduler ------------------------------------------------------


def static_candidates(state: SimState, alloc: AllocationMap, requester: int,
                      video: int, j: int, position: int = 0):
    """All boxes that could serve stripe j right now, as
    (-free, load_for_video, box, kind) sort keys: most free upload slots
    first, then fewest uploads of the video, then lowest box id. Ranking by
    residual capacity first keeps a popular swarm's traffic off the last
    slots of boxes that are the only holders of some other stripe.

    Static packing imposes no v_S gate and no duplicate-upload refusal: an
    allocation holder with free slots always serves (those rules exist to
    bound the distributed scheduler's search work, and connections are never
    re-negotiated here). A box holding the replica serves as a seed source;
    cache service additionally needs the position margin and respects the
    reserved slot."""
    bybox: dict[int, tuple] = {}
    for b in alloc.holders(video, j).tolist():
        if b == requester or not state.active[b] or state.free[b] <= 0:
            continue
        bybox[b] = (-int(state.free[b]), state.load_for_video(b, video), b, SEED)
    for b in cache_acceptors(state, video, position, requester):
        if b not in bybox:
            bybox[b] = (-int(state.free[b]), state.load_for_video(b, video), b, CACHE)
    return sorted(bybox.values())


def select_static(state: SimState, alloc: AllocationMap, requester: int,
                  video: int, j: int, position: int = 0):
    """Uploader the static scheduler would pick for one stripe: the acceptor
    with the most free upload slots, spreading load by residual capacity;
    ties go to the fewest upload connections for the video, then the lowest
    box id. None when no box can accept."""
    cands = static_candidates(state, alloc, requester, video, j, position)
    if not cands:
        return None
    negfree, load, box, kind = cands[0]
    return box, kind


def schedule_request_static(state: SimState, alloc: AllocationMap, box: int,
                            video: int) -> Optional[PlaybackSession]:
    """Connect all s stripes for a new playback without touching existing
    connections. On any unsatisfiable stripe the partial work is rolled back
    and None returned.

    The session registers as a swarm arrival before searching, so the v_S
    gate counts it; its own candidates exclude itself anyway."""
    sess = PlaybackSession(box=box, video=video, start_tick=state.tick)
    state.sessions[box].append(sess)
    state.join_swarm(sess)
    installed: list[Connection] = []
    for j in range(state.cfg.s):
        choice = select_static(state, alloc, box, video, j, position=0)
        if choice is None:
            for conn in installed:
                state.sever_connection(conn)
            state.leave_swarm(sess)
            state.sessions[box].remove(sess)
            return None
        up, kind = choice
        installed.append(state.install_connection(up, sess, j, kind))
    sess.started = True
    state.clear_idle_cache(box)
    return sess


# --- distributed scheduler --------------------------------------------------


@dataclass
class SearchStats:
    seed_searches: int = 0
    per_stripe_seed: dict[StripeId, int] = field(default_factory=dict)
    reseeds: dict[StripeId, int] = field(default_factory=dict)
    failures: int = 0
    failure_log: list[SearchFailure] = field(default_factory=list)
    flips: int = 0
    evictions: int = 0

    def note_seed_search(self, stripe: StripeId):
        self.seed_searches += 1
        self.per_stripe_seed[stripe] = self.per_stripe_seed.get(stripe, 0) + 1

    def note_reseed(self, stripe: StripeId):
        self.reseeds[stripe] = self.reseeds.get(stripe, 0) + 1


class DistributedScheduler:
    """Sequential event-time scheduler: one search resolved at a time,
    displaced downloaders re-probed via connection flipping within the same
    tick."""

    def __init__(self, state: SimState, alloc: AllocationMap, rng: random.Random):
        self.state = state
        self.alloc = alloc
        self.rng = rng
        self.stats = SearchStats()
        # (session, stripe_j, flip_target or None, seed_only)
        self.pending: list[tuple[PlaybackSession, int, Optional[int], bool]] = []

    # -- candidate lists --

    def _swarm_sample(self, video: int, requester: int, position: int) -> list[int]:
        cands = [b for b in self.state.cache_sources(video, position)
                 if b != requester]
        limit = min(len(cands), 8 * max(1, math.ceil(math.log2(max(2, self.state.cfg.n)))))
        picked = self.rng.sample(cands, limit) if limit < len(cands) else cands
        self.rng.shuffle(picked)
        return picked

    def _seed_list(self, stripe: StripeId, requester: int) -> list[int]:
        # replica order: the forward scan of the allocation list
        return [b for b in self.alloc.holders(stripe.video, stripe.stripe).tolist()
                if b != requester and self.state.active[b]]

    # -- searching --

    def search(self, session: PlaybackSession, j: int,
               seed_only: bool = False) -> Optional[Connection]:
        """Find and install an uploader for stripe j of the session. Probes
        FANOUT candidates at a time, cache candidates first, allocation
        holders only through the v_S gate; among acceptors the one with the
        least uploads for the video wins."""
        stripe = StripeId(session.video, j)
        st = self.state
        candidates: list[tuple[int, str]] = []
        if not seed_only:
            for b in self._swarm_sample(session.video, session.box, session.position):
                candidates.append((b, CACHE))
        if gate_open(st, stripe) or seed_only:
            for b in self._seed_list(stripe, session.box):
                candidates.append((b, SEED))
            self.stats.note_seed_search(stripe)
        if seed_only:
            self.stats.note_reseed(stripe)

        probed = 0
        seen: set[int] = set()
        chain_guard = max(1, int(st.swarm_size[session.video])) + 1
        flips_followed = 0
        i = 0
        queue = candidates
        while i < len(queue):
            batch = []
            while i < len(queue) and len(batch) < FANOUT:
                b, kind = queue[i]
                i += 1
                if b in seen:
                    continue
                seen.add(b)
                batch.append((b, kind))
            if not batch:
                continue
            probed += len(batch)
            decisions = []
            for b, kind in batch:
                req = ConnectionRequest(requester=session.box, stripe=stripe,
                                        position=session.position, kind=kind)
                decisions.append((b, kind, grant_connection(b, req, st, self.rng)))
            acceptors = [(b, kind, d) for b, kind, d in decisions if d.accept]
            if acceptors:
                # least uploads for the video first; unlike the static
                # selector, residual capacity only breaks ties here
                b, kind, d = min(acceptors, key=lambda t: (
                    st.load_for_video(t[0], session.video), -int(st.free[t[0]]), t[0]))
                return self._commit(session, j, b, kind, d)
            for b, kind, d in decisions:
                if d.flip_to is not None and d.flip_to not in seen \
                        and flips_followed < chain_guard:
                    flips_followed += 1
                    self.stats.flips += 1
                    queue.append((d.flip_to, CACHE))
        self.stats.failures += 1
        self.stats.failure_log.append(SearchFailure(
            request=ConnectionRequest(requester=session.box, stripe=stripe,
                                      position=session.position, kind=CACHE),
            probed=probed))
        return None

    def _commit(self, session: PlaybackSession, j: int, box: int, kind: str,
                decision: GrantDecision) -> Connection:
        st = self.state
        if decision.evict is not None:
            victim = decision.evict
            self.stats.evictions += 1
            vs, vj = victim.session, victim.stripe.stripe
            was_seed = victim.kind == SEED
            st.sever_connection(victim)
            if decision.step == 6 and decision.flip_to is not None:
                self.pending.append((vs, vj, decision.flip_to, False))
            elif was_seed:
                # cache demand cancelled a seed upload: fresh seed search
                self.pending.append((vs, vj, None, True))
            else:
                self.pending.append((vs, vj, None, False))
        conn = st.install_connection(box, session, j, kind)
        return conn

    def drain(self) -> list[tuple[PlaybackSession, int]]:
        """Resolve displaced downloads (evictions, flips) until quiescent.
        Returns the (session, stripe) pairs that could not reconnect."""
        failures = []
        guard = 10 * self.state.cfg.n * self.state.cfg.s
        while self.pending:
            guard -= 1
            if guard < 0:
                failures.extend((s, j) for s, j, _, _ in self.pending)
                self.pending.clear()
                break
            session, j, flip_to, seed_only = self.pending.pop(0)
            if session not in self.state.sessions[session.box]:
                continue  # session ended meanwhile
            if j in session.parents:
                continue  # already repaired
            conn = None
            if flip_to is not None:
                conn = self.connection_flip(session, j, flip_to)
            if conn is None:
                conn = self.search(session, j, seed_only=seed_only)
            if conn is None and seed_only:
                conn = self.search(session, j, seed_only=False)
            if conn is None:
                failures.append((session, j))
        return failures

    def connection_flip(self, session: PlaybackSession, j: int,
                        box: int) -> Optional[Connection]:
        """One step of the flipping chain: the displaced or refused box
        re-probes the redirect target; a further redirect is queued so the
        box walks the tree to its position."""
        if not (0 <= box < self.state.cfg.n):
            return None
        stripe = StripeId(session.video, j)
        req = ConnectionRequest(requester=session.box, stripe=stripe,
                                position=session.position, kind=CACHE)
        d = grant_connection(box, req, self.state, self.rng)
        if d.accept:
            return self._commit(session, j, box, CACHE, d)
        if d.flip_to is not None and d.flip_to != box:
            self.stats.flips += 1
            self.pending.append((session, j, d.flip_to, False))
        return None

    def schedule_request(self, box: int, video: int) -> Optional[PlaybackSession]:
        """Start a playback: session joins the swarm, then all s stripes are
        searched. Missing stripes stay pending (retried by the engine);
        returns the session (started only if fully connected)."""
        sess = PlaybackSession(box=box, video=video, start_tick=self.state.tick)
        self.state.sessions[box].append(sess)
        self.state.join_swarm(sess)
        self.state.clear_idle_cache(box)
        for j in range(self.state.cfg.s):
            self.search(sess, j)
        if not sess.missing_stripes(self.state.cfg.s):
            sess.started = True
        return sess
