"""Discrete-event loop: playback advancement, adversarial events, scheduling
and metrics. Static mode never revisits an established connection; dynamic
modes re-schedule on every event."""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Optional

from .allocation import AllocationMap
from .model import (CACHE, SEED, PlaybackSession, SimEvent, SimState,
                    StripeId, apply_event)
from .maxflow import Infeasible, schedule_maxflow
from .scheduler import DistributedScheduler, schedule_request_static
from .config import SystemConfig

MODES = ("static", "dynamic-distributed", "dynamic-maxflow")

# stall causes considered uploader failures (vs scheduling artifacts)
FAILURE_CAUSES = {"uploader_failed", "uploader_zapped", "cache_dry"}


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
                 seed: int = 0, offline: Iterable[int] = ()):
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
                                              random.Random(seed + 0x5EED))
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
            sess = self.state.open_session(box, video)
            self.state.clear_idle_cache(box)
            self._resolve_maxflow()
        ok = not sess.missing_stripes(self.cfg.s)
        if ok:
            sess.started = True
            self.metrics.satisfied += 1
        else:
            self._pending_startup.append([sess, False])
        return ok

    def _resolve_maxflow(self):
        """Re-solve the centralized tracker from the connections now
        installed: schedule_maxflow augments their flow to a maximum one. A
        partial maximum (an Infeasible, counted in infeasible_events) is
        installed all the same. Only the connections whose request moved
        are severed, and only the new links are installed, each of the kind
        the cache-ahead rule gives it. Returns the tracker's result."""
        result = schedule_maxflow(self.state, self.alloc)
        if isinstance(result, Infeasible):
            self.metrics.infeasible_events += 1
        st = self.state
        # entries follow build_request_graph's requests: every session of
        # every box in turn, one request per stripe
        requests = ((sess, j) for box_sessions in st.sessions
                    for sess in box_sessions for j in range(self.cfg.s))
        new = []
        for (_, up, _), kept, (sess, j) in zip(result.entries, result.kept,
                                               requests, strict=True):
            if kept:
                continue
            conn = sess.parents.get(j)
            if conn is not None:
                st.sever_connection(conn)
            if up >= 0:
                new.append((up, sess, j))
        # every severed slot is free before the new links take theirs
        for up, sess, j in new:
            kind = CACHE if st.cache_ahead(up, sess.video, sess.position) else SEED
            st.install_connection(up, sess, j, kind)
        return result

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
        # only a fail severs the downloads of other boxes
        for sess, j in res.resched:
            self._stall_cause[(sess.box, sess.video, j)] = "uploader_failed"
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
            self._resolve_maxflow()
            if j not in sess.parents:
                self._record_stall_if_playing(sess, j)
        # static mode: connections are never re-negotiated

    # -- per-tick machinery ---------------------------------------------------

    def step(self, events: Iterable[SimEvent] = (), adversary=None,
             rate: int = 1) -> None:
        """Run one tick: advance playback, tear expired and dried-up
        connections, apply the tick's events, draw up to `rate` adversary
        requests, retry sessions with missing stripes, and record the tick."""
        self._advance_playback()
        self._sweep_connections()
        for ev in events:
            self.apply(ev)
        if adversary is not None:
            for _ in range(rate):
                box, video = adversary.next_request(self.state)
                if box is None:
                    break
                self.issue_request(box, video)
        self._retry_pending()
        self._record_tick()
        self._merge_sched_stats()
        self.state.tick += 1

    def _advance_playback(self, completions: bool = True):
        s, end = self.cfg.s, self.cfg.video_duration
        static = self.mode == "static"
        # a snapshot, box by box: a completion leaves its box's list
        for sess in [sess for box_sessions in self.state.sessions
                     for sess in box_sessions]:
            if not sess.started:
                continue
            if (static or len(sess.parents) == s) and sess.position < end:
                sess.position += 1
            if completions and sess.position >= end:
                self._complete(sess)

    def _complete(self, sess: PlaybackSession):
        self.state.close_session(sess)
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
        used = int((st.slots - st.free).sum())
        cap = sum(slots for slots, on in zip(st.slots.tolist(), st.active) if on)
        playing = sum(len(s) for s in st.sessions)
        self.metrics.per_tick.append(TickRow(
            tick=st.tick, issued=self.metrics.issued,
            satisfied=self.metrics.satisfied, failed=self.metrics.failed,
            stalls=len(self.metrics.stalls),
            utilization=(used / cap) if cap else 0.0,
            active_boxes=sum(st.active), playing=playing,
            max_swarm=max(map(len, st.swarms.values()), default=0)))

    def _merge_sched_stats(self):
        if self.sched is None:
            return
        stats = self.sched.stats
        self.metrics.seed_searches = stats.seed_searches
        self.metrics.per_stripe_seed = stats.per_stripe_seed
        self.metrics.reseeds = stats.reseeds


def run(cfg: SystemConfig, alloc: AllocationMap, adversary, mode: str,
        seed: int, ticks: int = 0, events: Iterable[SimEvent] = (),
        rate: int = 1, offline: Iterable[int] = ()) -> tuple[Metrics, SimState]:
    """Run the full loop: one `Engine.step` per tick, each firing the events
    scheduled up to that tick, until `ticks` and every event have passed."""
    eng = Engine(cfg, alloc, mode, seed=seed, offline=offline)
    pending = sorted(events, key=lambda e: e.time)
    horizon = max(ticks, pending[-1].time + 1) if pending else ticks
    ei = 0
    for _ in range(horizon):
        due = bisect_right(pending, eng.state.tick, lo=ei, key=attrgetter("time"))
        eng.step(pending[ei:due], adversary, rate)
        ei = due
    return eng.metrics, eng.state


@dataclass
class SaturationResult:
    satisfied: int
    issued: int
    ceiling: int
    first_failure: Optional[tuple[int, int]]  # first refused (box, video)


def saturation_probe(cfg: SystemConfig, alloc: AllocationMap, adversary,
                     mode: str, seed: int,
                     offline: Iterable[int] = ()) -> SaturationResult:
    """Count the maximum number of requests the system satisfies.

    One request arrives per tick, through refusals; the probe ends once the
    system stops making progress (n consecutive refusals) or an
    issued-budget guard runs out. It measures concurrent packing capacity:
    playback positions advance (cache-ahead checks stay meaningful) but
    videos do not complete during the probe, mirroring films much longer
    than the request horizon. The ceiling is the global-bandwidth bound
    floor(sum u_i*s)/s."""
    eng = Engine(cfg, alloc, mode, seed=seed, offline=offline)
    ceiling = cfg.bandwidth_ceiling()
    budget = 3 * ceiling + 2 * cfg.n
    refusals_in_a_row = 0
    first_failure = None
    while refusals_in_a_row < cfg.n and eng.metrics.issued < budget:
        eng._advance_playback(completions=False)
        box, video = adversary.next_request(eng.state)
        if box is None:
            break
        if eng.issue_request(box, video):
            refusals_in_a_row = 0
        else:
            refusals_in_a_row += 1
            if first_failure is None:
                first_failure = (box, video)
        eng.state.tick += 1
    return SaturationResult(eng.metrics.satisfied, eng.metrics.issued,
                            ceiling, first_failure)
