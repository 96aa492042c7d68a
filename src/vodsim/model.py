"""Box/stripe identities, connection table and the box state machine.

SimState is mutated single-threaded; a connection is one unit upload slot of
its uploader carrying one stripe at rate 1/s. Cache-kind connections serve
from playback caches, seed-kind from allocation replicas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, TYPE_CHECKING

import numpy as np

from .config import SystemConfig

if TYPE_CHECKING:
    from .allocation import AllocationMap


class StripeId(NamedTuple):
    """Stripe j of video v; tuple order gives video-major total ordering."""
    video: int
    stripe: int


SEED = "seed"
CACHE = "cache"


@dataclass(eq=False)
class PlaybackSession:
    """One video being played (or starting up) on a box."""

    box: int
    video: int
    start_tick: int
    position: int = 0
    started: bool = False  # all s stripes connected within t_S
    parents: dict[int, "Connection"] = field(default_factory=dict)

    def missing_stripes(self, s: int) -> list[int]:
        return [j for j in range(s) if j not in self.parents]


@dataclass(eq=False)
class Connection:
    uploader: int
    session: PlaybackSession
    stripe: StripeId
    kind: str  # SEED | CACHE
    expires_at: Optional[int] = None  # zap grace deadline, None = stable
    closed: bool = False

    @property
    def downloader(self) -> int:
        return self.session.box


@dataclass
class ConnectionAssignment:
    """Snapshot of the links in force, each carrying one stripe at rate 1/s:
    (downloader, uploader, stripe)."""

    entries: list[tuple[int, int, StripeId]]

    def per_uploader(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for _, up, _ in self.entries:
            out[up] = out.get(up, 0) + 1
        return out


@dataclass(frozen=True)
class SimEvent:
    """Adversarial state-change event; equal-time events apply in sequence
    order."""

    time: int
    box: int
    kind: str  # start | zap | fail | resurrect | stop
    video: Optional[int] = None

    def __str__(self):
        tail = f",{self.video}" if self.video is not None else ""
        return f"{self.time},{self.box},{self.kind}{tail}"


def parse_event(line: str) -> SimEvent:
    parts = line.strip().split(",")
    time, box, kind = int(parts[0]), int(parts[1]), parts[2]
    video = int(parts[3]) if len(parts) > 3 else None
    return SimEvent(time=time, box=box, kind=kind, video=video)


@dataclass(eq=False)
class SimState:
    """Full simulation state; see module docstring for mutation rules."""

    cfg: SystemConfig
    alloc: "AllocationMap"
    mode: str = "static"
    tick: int = 0

    def __post_init__(self):
        cfg = self.cfg
        n = cfg.n
        self.active = [True] * n
        self.slots = np.array([cfg.upload_slots(i) for i in range(n)], dtype=np.int32)
        self.free = self.slots.copy()
        self.cache_up = np.zeros(n, dtype=np.int32)
        self.uploads: list[list[Connection]] = [[] for _ in range(n)]
        self.sessions: list[list[PlaybackSession]] = [[] for _ in range(n)]
        self.idle_cache: list[Optional[tuple[int, int]]] = [None] * n
        self.swarms: dict[int, list[PlaybackSession]] = {}
        self.swarm_size = np.zeros(cfg.m, dtype=np.int32)
        self.seed_active = np.zeros((cfg.m, cfg.s), dtype=np.int32)
        self.video_load: dict[int, dict[int, int]] = {}
        self.idle_cache_by_video: dict[int, set[int]] = {}

    # -- connection table -------------------------------------------------

    def install_connection(self, uploader: int, session: PlaybackSession,
                           stripe_j: int, kind: str) -> Connection:
        assert self.free[uploader] > 0, "no free slot"
        assert uploader != session.box, "box cannot serve itself"
        stripe = StripeId(session.video, stripe_j)
        conn = Connection(uploader=uploader, session=session, stripe=stripe, kind=kind)
        self.uploads[uploader].append(conn)
        self.free[uploader] -= 1
        if kind == CACHE:
            self.cache_up[uploader] += 1
        else:
            self.seed_active[stripe.video, stripe.stripe] += 1
        load = self.video_load.setdefault(stripe.video, {})
        load[uploader] = load.get(uploader, 0) + 1
        session.parents[stripe_j] = conn
        return conn

    def sever_connection(self, conn: Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        up = conn.uploader
        self.uploads[up].remove(conn)
        self.free[up] += 1
        if conn.kind == CACHE:
            self.cache_up[up] -= 1
        else:
            self.seed_active[conn.stripe.video, conn.stripe.stripe] -= 1
        load = self.video_load.get(conn.stripe.video)
        if load is not None:
            load[up] -= 1
            if load[up] == 0:
                del load[up]
            if not load:
                del self.video_load[conn.stripe.video]
        if conn.session.parents.get(conn.stripe.stripe) is conn:
            del conn.session.parents[conn.stripe.stripe]

    def upload_used(self, box: int) -> int:
        return int(self.slots[box] - self.free[box])

    def load_for_video(self, box: int, video: int) -> int:
        return self.video_load.get(video, {}).get(box, 0)

    def seed_uploads_of(self, box: int) -> list[Connection]:
        return [c for c in self.uploads[box] if c.kind == SEED]

    def uploads_stripe(self, box: int, stripe: StripeId) -> bool:
        return any(c.stripe == stripe for c in self.uploads[box])

    # -- idle cache bookkeeping ---------------------------------------------

    def set_idle_cache(self, box: int, video: int, position: int) -> None:
        self.clear_idle_cache(box)
        self.idle_cache[box] = (video, position)
        self.idle_cache_by_video.setdefault(video, set()).add(box)

    def clear_idle_cache(self, box: int) -> None:
        ic = self.idle_cache[box]
        if ic is not None:
            holders = self.idle_cache_by_video.get(ic[0])
            if holders is not None:
                holders.discard(box)
                if not holders:
                    del self.idle_cache_by_video[ic[0]]
            self.idle_cache[box] = None

    # -- swarm / cache views ----------------------------------------------

    def join_swarm(self, session: PlaybackSession) -> None:
        self.swarms.setdefault(session.video, []).append(session)
        self.swarm_size[session.video] += 1

    def leave_swarm(self, session: PlaybackSession) -> None:
        members = self.swarms.get(session.video, [])
        if session in members:
            members.remove(session)
            self.swarm_size[session.video] -= 1
            if not members:
                del self.swarms[session.video]

    def cache_position(self, box: int, video: int) -> Optional[int]:
        """Best data position box can serve video from (playback or idle
        cache); None when it has no cached data of that video."""
        best = None
        for sess in self.sessions[box]:
            if sess.video == video:
                best = sess.position if best is None else max(best, sess.position)
        ic = self.idle_cache[box]
        if ic is not None and ic[0] == video:
            best = ic[1] if best is None else max(best, ic[1])
        return best

    def cache_ahead(self, box: int, video: int, position: int) -> bool:
        """The cache-source rule: box may serve video from its playback or
        idle cache to a downloader at position only when its data is at least
        t_S ahead."""
        cp = self.cache_position(box, video)
        return cp is not None and cp >= position + self.cfg.t_s

    def cache_sources(self, video: int, position: int) -> list[int]:
        """Active boxes that pass cache_ahead(box, video, position), in
        ascending box id: one pass over the video's swarm and idle caches."""
        need = position + self.cfg.t_s
        boxes = {sess.box for sess in self.swarms.get(video, ())
                 if sess.position >= need}
        boxes.update(b for b in self.idle_cache_by_video.get(video, ())
                     if self.idle_cache[b][1] >= need)
        return sorted(b for b in boxes if self.active[b])

    def playing(self, box: int, video: int) -> bool:
        return any(sess.video == video for sess in self.sessions[box])

    def assignment(self) -> ConnectionAssignment:
        entries = []
        for ups in self.uploads:
            for c in ups:
                entries.append((c.downloader, c.uploader, c.stripe))
        return ConnectionAssignment(entries=entries)


@dataclass
class EventResult:
    """Outcome of apply_event: rejected illegal transitions echo the event;
    severed downloads and the new video request are the scheduling work the
    event leaves behind."""

    event: SimEvent
    applied: bool
    reason: Optional[str] = None
    resched: list[tuple[PlaybackSession, int]] = field(default_factory=list)
    request: Optional[tuple[int, int]] = None  # (box, video) to schedule


def _sever_downloads(state: SimState, session: PlaybackSession) -> None:
    for conn in list(session.parents.values()):
        state.sever_connection(conn)


def _end_session(state: SimState, session: PlaybackSession) -> None:
    _sever_downloads(state, session)
    state.leave_swarm(session)
    if session in state.sessions[session.box]:
        state.sessions[session.box].remove(session)


def _expire_cache_uploads(state: SimState, box: int, video: int, deadline: int) -> None:
    """Old-video cache uploads survive on buffered data for t_S at most."""
    for conn in state.uploads[box]:
        if conn.kind == CACHE and conn.stripe.video == video and conn.expires_at is None:
            conn.expires_at = deadline


def apply_event(state: SimState, ev: SimEvent) -> EventResult:
    """Transition the box state machine; connections of the box are severed
    or put on expiry per event kind, and displaced downloaders are returned
    for re-scheduling."""
    b = ev.box
    if not (0 <= b < state.cfg.n):
        return EventResult(ev, False, reason="unknown box")
    res = EventResult(ev, True)

    if ev.kind == "fail":
        if not state.active[b]:
            return EventResult(ev, False, reason="fail on failed box")
        for conn in list(state.uploads[b]):
            res.resched.append((conn.session, conn.stripe.stripe))
            state.sever_connection(conn)
        for sess in list(state.sessions[b]):
            _end_session(state, sess)
        state.clear_idle_cache(b)
        state.active[b] = False
        return res

    if ev.kind == "resurrect":
        if state.active[b]:
            return EventResult(ev, False, reason="resurrect on active box")
        state.active[b] = True
        return res

    if not state.active[b]:
        return EventResult(ev, False, reason=f"{ev.kind} on failed box")

    if ev.kind == "start":
        if state.sessions[b]:
            return EventResult(ev, False, reason="start on playing box (zap instead)")
        if ev.video is None:
            return EventResult(ev, False, reason="start without video")
        ic = state.idle_cache[b]
        if ic is not None and ic[0] != ev.video:
            _expire_cache_uploads(state, b, ic[0], ev.time + state.cfg.t_s)
        state.clear_idle_cache(b)
        res.request = (b, ev.video)
        return res

    if ev.kind == "zap":
        if not state.sessions[b]:
            return EventResult(ev, False, reason="zap on idle box")
        if ev.video is None:
            return EventResult(ev, False, reason="zap without video")
        old = state.sessions[b][0]
        _end_session(state, old)
        # The box keeps uploading the old video from its buffer/cache, but
        # only for up to t_S more ticks.
        _expire_cache_uploads(state, b, old.video, ev.time + state.cfg.t_s)
        state.clear_idle_cache(b)
        res.request = (b, ev.video)
        return res

    if ev.kind == "stop":
        if not state.sessions[b]:
            return EventResult(ev, False, reason="stop on idle box")
        old = state.sessions[b][0]
        pos = old.position
        _end_session(state, old)
        state.set_idle_cache(b, old.video, pos)
        return res

    return EventResult(ev, False, reason=f"unknown event kind {ev.kind!r}")
