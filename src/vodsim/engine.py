"""Discrete-event loop: playback advancement, adversarial events, scheduling
and metrics. Static mode never revisits an established connection; dynamic
modes re-schedule on every event."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .allocation import AllocationMap
from .model import (CACHE, SEED, PlaybackSession, SimEvent, SimState,
                    StripeId, apply_event)
from .maxflow import Infeasible, schedule_maxflow
from .scheduler import DistributedScheduler, schedule_request_static
from .config import SystemConfig

MODES = ("static", "dynamic-distributed", "dynamic-maxflow")

# stall causes considered uploader failures (vs scheduling artifacts)
FAILURE_CAUSES = {"uploader_failed", "uploader_zapped", "uploader_stopped",
                  "cache_dry"}


@dataclass
class StallRecord:
    tick: int
    box: int
    video: int
    stripe: int
    cause: str


@dataclass
class TickRow:
    tick: int
    issued: int
    satisfied: int
    failed: int
    stalls: int
    utilization: float
    active_boxes: int
    playing: int
    max_swarm: int


@dataclass
class Metrics:
    issued: int = 0
    satisfied: int = 0
    failed: int = 0
    retries: int = 0
    stalls: list[StallRecord] = field(default_factory=list)
    seed_searches: int = 0
    per_stripe_seed: dict[StripeId, int] = field(default_factory=dict)
    reseeds: dict[StripeId, int] = field(default_factory=dict)
    infeasible_events: int = 0
    per_tick: list[TickRow] = field(default_factory=list)

    def unexplained_stalls(self) -> list[StallRecord]:
        return [s for s in self.stalls if s.cause not in FAILURE_CAUSES]

    def max_per_stripe_seed(self) -> int:
        return max(self.per_stripe_seed.values(), default=0)

    def summary(self) -> dict:
        return {
            "issued": self.issued, "satisfied": self.satisfied,
            "failed": self.failed, "retries": self.retries,
            "stalls": len(self.stalls),
            "unexplained_stalls": len(self.unexplained_stalls()),
            "seed_searches": self.seed_searches,
            "max_per_stripe_seed": self.max_per_stripe_seed(),
            "infeasible_events": self.infeasible_events,
        }


METRICS_SCHEMA = "vodsim-metrics-v1"
_TICK_COLS = ("tick", "issued", "satisfied", "failed", "stalls",
              "utilization", "active_boxes", "playing", "max_swarm")


def metrics_csv(metrics: Metrics, header: dict | None = None) -> str:
    lines = [f"# schema={METRICS_SCHEMA}"]
    for key, val in (header or {}).items():
        lines.append(f"# {key}={val}")
    lines.append(",".join(_TICK_COLS))
    for row in metrics.per_tick:
        lines.append(",".join(str(getattr(row, c)) for c in _TICK_COLS))
    summ = metrics.summary()
    lines.append("summary," + ",".join(f"{k}={v}" for k, v in summ.items()))
    return "\n".join(lines) + "\n"


class Engine:
    """One simulation instance (single-threaded; run many in parallel for
    sweeps)."""

    def __init__(self, cfg: SystemConfig, alloc: AllocationMap, mode: str,
                 seed: int = 0, fanout: int = 3,
                 offline: Iterable[int] = ()):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.cfg = cfg
        self.alloc = alloc
        self.mode = mode
        self.state = SimState(cfg=cfg, alloc=alloc, mode=mode)
        self.rng = random.Random(seed)
        self.metrics = Metrics()
        self.sched: Optional[DistributedScheduler] = None
        if mode == "dynamic-distributed":
            self.sched = DistributedScheduler(self.state, alloc,
                                              random.Random(seed + 0x5EED),
                                              fanout=fanout)
        for b in offline:
            self.state.active[b] = False
        self._stall_cause: dict[tuple[int, int, int], str] = {}
        self._stalled: set[tuple[int, int]] = set()  # (id(session), stripe)
        self._pending_startup: list[list] = []  # [session, counted_failed]

    # -- request handling ---------------------------------------------------

    def issue_request(self, box: int, video: int) -> bool:
        """Schedule one playback request; returns immediate start-up success.

        In dynamic modes an incomplete start-up is not counted failed yet:
        the box retries and the request counts satisfied if all s stripes
        connect by start_tick + t_S, failed otherwise (retries continue
        either way, logged separately)."""
        self.metrics.issued += 1
        if self.mode == "static":
            sess = schedule_request_static(self.state, self.alloc, box, video)
            ok = sess is not None
            if ok:
                self.metrics.satisfied += 1
            else:
                self.metrics.failed += 1
            return ok
        if self.mode == "dynamic-distributed":
            sess = self.sched.schedule_request(box, video)
            self._drain_scheduler()
        else:  # dynamic-maxflow: add the session, recompute the global flow
            sess = PlaybackSession(box=box, video=video, start_tick=self.state.tick)
            self.state.sessions[box].append(sess)
            self.state.join_swarm(sess)
            self.state.clear_idle_cache(box)
            self._resolve_maxflow()
        ok = not sess.missing_stripes(self.cfg.s)
        if ok:
            sess.started = True
            self.metrics.satisfied += 1
        else:
            self._pending_startup.append([sess, False])
        return ok

    def _resolve_maxflow(self) -> bool:
        """Recompute connections from scratch with the centralized tracker."""
        result = schedule_maxflow(self.state, self.alloc)
        if isinstance(result, Infeasible):
            self.metrics.infeasible_events += 1
            return False
        # replace the whole connection table by the flow decode
        for ups in list(self.state.uploads):
            for conn in list(ups):
                self.state.sever_connection(conn)
        by_session: dict[tuple[int, int], list[PlaybackSession]] = {}
        for box in range(self.cfg.n):
            for sess in self.state.sessions[box]:
                by_session.setdefault((box, sess.video), []).append(sess)
        cursor: dict[tuple[int, int, int], int] = {}
        for down, up, stripe in result.entries:
            sessions = by_session[(down, stripe.video)]
            idx = cursor.get((down, stripe.video, stripe.stripe), 0)
            cursor[(down, stripe.video, stripe.stripe)] = idx + 1
            sess = sessions[idx % len(sessions)]
            kind = (CACHE if self.state.cache_ahead(up, stripe.video, sess.position)
                    else SEED)
            self.state.install_connection(up, sess, stripe.stripe, kind)
        return True

    def _drain_scheduler(self):
        failures = self.sched.drain()
        for sess, j in failures:
            self._record_stall_if_playing(sess, j)

    def _record_stall_if_playing(self, sess: PlaybackSession, j: int):
        if sess.started and sess.position > self.cfg.t_s:
            if (id(sess), j) in self._stalled:
                return  # one record per gap, with its original cause
            self._stalled.add((id(sess), j))
            cause = self._stall_cause.get((sess.box, sess.video, j),
                                          "search_failed")
            self.metrics.stalls.append(StallRecord(
                tick=self.state.tick, box=sess.box, video=sess.video,
                stripe=j, cause=cause))

    # -- event handling -----------------------------------------------------

    def apply(self, ev: SimEvent):
        res = apply_event(self.state, ev)
        if not res.applied:
            return res
        cause = {"fail": "uploader_failed", "zap": "uploader_zapped",
                 "stop": "uploader_stopped"}.get(ev.kind, "severed")
        for sess, j in res.resched:
            self._stall_cause[(sess.box, sess.video, j)] = cause
            self._repair(sess, j)
        if res.request is not None:
            self.issue_request(*res.request)
        return res

    def _repair(self, sess: PlaybackSession, j: int):
        """Re-connect one severed stripe download (dynamic modes)."""
        if sess not in self.state.sessions[sess.box]:
            return
        if j in sess.parents:
            return
        if self.mode == "dynamic-distributed":
            self.metrics.retries += 1
            conn = self.sched.search(sess, j)
            if conn is None:
                self._record_stall_if_playing(sess, j)
            else:
                self._stall_cause.pop((sess.box, sess.video, j), None)
                self._stalled.discard((id(sess), j))
            self._drain_scheduler()
        elif self.mode == "dynamic-maxflow":
            self.metrics.retries += 1
            if not self._resolve_maxflow():
                self._record_stall_if_playing(sess, j)
        # static mode: connections are never re-negotiated

    # -- per-tick machinery ---------------------------------------------------

    def _advance_playback(self, completions: bool = True):
        for box in range(self.cfg.n):
            for sess in list(self.state.sessions[box]):
                if not sess.started:
                    continue
                if len(sess.parents) == self.cfg.s or self.mode == "static":
                    sess.position = min(sess.position + 1, self.cfg.video_duration)
                if completions and sess.position >= self.cfg.video_duration:
                    self._complete(sess)

    def _complete(self, sess: PlaybackSession):
        for conn in list(sess.parents.values()):
            self.state.sever_connection(conn)
        self.state.leave_swarm(sess)
        self.state.sessions[sess.box].remove(sess)
        if not self.state.sessions[sess.box]:
            self.state.set_idle_cache(sess.box, sess.video, self.cfg.video_duration)

    def _sweep_connections(self):
        """Expire zap-grace uploads and cache connections whose source ran
        out of data; displaced downloaders re-search."""
        torn: list[tuple[PlaybackSession, int, str]] = []
        for box in range(self.cfg.n):
            for conn in list(self.state.uploads[box]):
                if conn.expires_at is not None and self.state.tick >= conn.expires_at:
                    torn.append((conn.session, conn.stripe.stripe, "uploader_zapped"))
                    self.state.sever_connection(conn)
                elif conn.kind == CACHE:
                    src = self.state.cache_position(box, conn.stripe.video)
                    if src is None or (conn.session.started
                                       and src <= conn.session.position):
                        torn.append((conn.session, conn.stripe.stripe, "cache_dry"))
                        self.state.sever_connection(conn)
        for sess, j, cause in torn:
            self._stall_cause[(sess.box, sess.video, j)] = cause
            self._repair(sess, j)

    def _retry_pending(self):
        """Dynamic modes keep retrying sessions with missing stripes."""
        if self.mode == "static":
            return
        needs_flow = False
        for box in range(self.cfg.n):
            for sess in list(self.state.sessions[box]):
                missing = sess.missing_stripes(self.cfg.s)
                if not missing:
                    continue
                if self.mode == "dynamic-maxflow":
                    needs_flow = True
                    continue
                for j in missing:
                    self._repair(sess, j)
        if needs_flow:
            self.metrics.retries += 1
            self._resolve_maxflow()
        self._settle_startups()

    def _settle_startups(self):
        """Count a pending start-up satisfied once fully connected within
        t_S of the request, failed once the deadline passes. A session
        failing its deadline keeps retrying and begins (late) playback when
        it finally connects."""
        still: list[list] = []
        for entry in self._pending_startup:
            sess, counted = entry
            if sess not in self.state.sessions[sess.box]:
                if not counted:
                    self.metrics.failed += 1
                continue
            connected = not sess.missing_stripes(self.cfg.s)
            in_time = self.state.tick <= sess.start_tick + self.cfg.t_s
            if connected:
                sess.started = True
                if not counted:
                    if in_time:
                        self.metrics.satisfied += 1
                    else:
                        self.metrics.failed += 1
                continue
            if not in_time and not counted:
                self.metrics.failed += 1
                entry[1] = True
            still.append(entry)
        self._pending_startup = still

    def _record_tick(self):
        st = self.state
        used = sum(int(st.slots[b] - st.free[b]) for b in range(self.cfg.n))
        cap = sum(int(st.slots[b]) for b in range(self.cfg.n) if st.active[b])
        playing = sum(len(s) for s in st.sessions)
        self.metrics.per_tick.append(TickRow(
            tick=st.tick, issued=self.metrics.issued,
            satisfied=self.metrics.satisfied, failed=self.metrics.failed,
            stalls=len(self.metrics.stalls),
            utilization=(used / cap) if cap else 0.0,
            active_boxes=sum(st.active), playing=playing,
            max_swarm=int(st.swarm_size.max()) if self.cfg.m else 0))

    def _merge_sched_stats(self):
        if self.sched is None:
            return
        stats = self.sched.stats
        self.metrics.seed_searches = stats.seed_searches
        self.metrics.per_stripe_seed = dict(stats.per_stripe_seed)
        self.metrics.reseeds = dict(stats.reseeds)


def run(cfg: SystemConfig, alloc: AllocationMap, adversary, mode: str,
        seed: int, ticks: int = 0, events: Iterable[SimEvent] = (),
        rate: int = 1, offline: Iterable[int] = ()) -> tuple[Metrics, SimState]:
    """Run the full loop: per tick, advance playback, fire scheduled events,
    draw `rate` adversary requests, schedule, record metrics."""
    eng = Engine(cfg, alloc, mode, seed=seed, offline=offline)
    pending = sorted(events, key=lambda e: e.time)
    ei = 0
    horizon = ticks
    if pending:
        horizon = max(horizon, pending[-1].time + 1)
    for _ in range(horizon):
        eng._advance_playback()
        eng._sweep_connections()
        while ei < len(pending) and pending[ei].time <= eng.state.tick:
            eng.apply(pending[ei])
            ei += 1
        if adversary is not None:
            for _ in range(rate):
                box, video = adversary.next_request(eng.state)
                if box is None:
                    break
                eng.issue_request(box, video)
        eng._retry_pending()
        eng._record_tick()
        eng.state.tick += 1
    eng._merge_sched_stats()
    return eng.metrics, eng.state


@dataclass
class SaturationResult:
    satisfied: int
    issued: int
    ceiling: int
    first_failure: Optional[tuple[int, int]]  # first refused (box, video)

    def fraction_of_ceiling(self) -> float:
        return self.satisfied / self.ceiling if self.ceiling else 0.0


def saturation_probe(cfg: SystemConfig, alloc: AllocationMap, adversary,
                     mode: str, seed: int, rate: int = 1,
                     offline: Iterable[int] = (),
                     patience: Optional[int] = None) -> SaturationResult:
    """Count the maximum number of requests the system satisfies.

    Requests keep arriving through refusals; the probe ends once the system
    stops making progress (`patience` consecutive refusals, default n) or an
    issued-budget guard runs out. It measures concurrent packing capacity:
    playback positions advance (cache-ahead checks stay meaningful) but
    videos do not complete during the probe, mirroring films much longer
    than the request horizon. The ceiling is the global-bandwidth bound
    floor(sum u_i*s)/s."""
    eng = Engine(cfg, alloc, mode, seed=seed, offline=offline)
    ceiling = cfg.bandwidth_ceiling()
    patience = cfg.n if patience is None else patience
    budget = 3 * ceiling + cfg.n + patience
    refusals_in_a_row = 0
    first_failure = None
    while True:
        eng._advance_playback(completions=False)
        for _ in range(rate):
            box, video = adversary.next_request(eng.state)
            if box is None:
                return SaturationResult(eng.metrics.satisfied,
                                        eng.metrics.issued, ceiling,
                                        first_failure)
            if eng.issue_request(box, video):
                refusals_in_a_row = 0
            else:
                refusals_in_a_row += 1
                if first_failure is None:
                    first_failure = (box, video)
            if refusals_in_a_row >= patience or eng.metrics.issued >= budget:
                return SaturationResult(eng.metrics.satisfied,
                                        eng.metrics.issued, ceiling,
                                        first_failure)
        eng.state.tick += 1


def check_forest(state: SimState) -> tuple[bool, list[int]]:
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
