"""Request/churn workload generation: greedy adversarial, random, Zipf,
trace-driven popularity, and model-constrained stress-less event sequences.

Requesting boxes follow a sequence of random permutations of the eligible
peers; the adversary picks the video.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .allocation import AllocationMap
from .config import SystemConfig, frac
from .model import SimEvent, SimState
# select_static is not called here, but perfbench hooks it under this name
from .scheduler import cache_acceptors, select_static  # noqa: F401

ADVERSARY_KINDS = ("greedy", "random", "zipf", "trace", "stressless")


@dataclass
class AdversarySpec:
    kind: str
    seed: int = 0
    rate: int = 1  # requests per tick
    gamma: float = 2.0  # zipf exponent
    trace: Optional["PopularityTrace"] = None
    p_f: float = 0.1  # stress-less failure probability, must be < 1/v_S
    swarms_per_video: int = 1

    def validate(self, cfg: SystemConfig) -> list[str]:
        out = []
        if self.kind not in ADVERSARY_KINDS:
            out.append(f"unknown adversary kind {self.kind!r}")
        if self.kind == "zipf" and self.gamma < 0:
            out.append("gamma must be >= 0")
        if self.kind == "stressless" and not self.p_f < 1 / cfg.v_s:
            out.append(f"p_f = {self.p_f} must be < 1/v_S = 1/{cfg.v_s}")
        if self.kind == "trace" and self.trace is None:
            out.append("trace adversary needs a trace")
        return out


@dataclass
class PopularityTrace:
    """(video id, weight) pairs; normalized lazily to a distribution."""

    entries: list[tuple[int, float]]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("empty trace")
        if any(w < 0 for _, w in self.entries):
            raise ValueError("negative weight")
        if sum(w for _, w in self.entries) <= 0:
            raise ValueError("total weight must be positive")

    def distribution(self) -> list[tuple[int, float]]:
        total = sum(w for _, w in self.entries)
        return [(v, w / total) for v, w in self.entries]

    @classmethod
    def parse(cls, text: str) -> "PopularityTrace":
        entries = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            vid_s, w_s = line.split(",")
            entries.append((int(vid_s), float(w_s)))
        return cls(entries)

    @classmethod
    def load(cls, path) -> "PopularityTrace":
        with open(path) as f:
            return cls.parse(f.read())

    def top_m(self, m: int) -> "PopularityTrace":
        """The m most popular videos, re-indexed 0..m-1 as a catalog."""
        best = sorted(self.entries, key=lambda e: (-e[1], e[0]))[:m]
        return PopularityTrace([(i, w) for i, (_, w) in enumerate(best)])

    def random_m(self, m: int, seed: int) -> "PopularityTrace":
        """A random m-subset of the trace, re-indexed as a catalog."""
        rng = random.Random(seed)
        picked = rng.sample(self.entries, min(m, len(self.entries)))
        return PopularityTrace([(i, w) for i, (_, w) in enumerate(picked)])


class _BoxStream:
    """Requests follow random permutations of the eligible peers."""

    def __init__(self, eligible: Sequence[int], rng: random.Random):
        self.eligible = list(eligible)
        self.rng = rng
        self.queue: list[int] = []

    def next(self, state: SimState) -> Optional[int]:
        for _ in range(2 * max(1, len(self.eligible))):
            if not self.queue:
                if not self.eligible:
                    return None
                self.queue = self.eligible[:]
                self.rng.shuffle(self.queue)
            b = self.queue.pop()
            if state.active[b]:
                return b
        return None


class Adversary:
    def __init__(self, cfg: SystemConfig, spec: AdversarySpec,
                 eligible: Optional[Sequence[int]] = None):
        self.cfg = cfg
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.boxes = _BoxStream(eligible if eligible is not None
                                else range(cfg.n), self.rng)

    def next_request(self, state: SimState):
        box = self.boxes.next(state)
        if box is None:
            return None, None
        return box, self.pick_video(state, box)

    def pick_video(self, state: SimState, box: int) -> int:
        raise NotImplementedError


class RandomAdversary(Adversary):
    """Selects a video uniformly at random in the catalog."""

    def pick_video(self, state, box):
        return self.rng.randrange(self.cfg.m)


class ZipfAdversary(Adversary):
    """Video of rank r drawn with probability r^-gamma (rank 1 = video 0)."""

    def __init__(self, cfg, spec, eligible=None):
        super().__init__(cfg, spec, eligible)
        weights = [(r + 1) ** -spec.gamma for r in range(cfg.m)]
        total = sum(weights)
        acc, self.cum = 0.0, []
        for w in weights:
            acc += w / total
            self.cum.append(acc)

    def pick_video(self, state, box):
        x = self.rng.random()
        return min(bisect_right(self.cum, x), self.cfg.m - 1)


class TraceAdversary(Adversary):
    """Draws from the popularity distribution of a trace file."""

    def __init__(self, cfg, spec, eligible=None):
        super().__init__(cfg, spec, eligible)
        dist = spec.trace.distribution()
        for v, _ in dist:
            if not 0 <= v < cfg.m:
                raise ValueError(f"trace video {v} outside catalog of {cfg.m}")
        self.videos = [v for v, _ in dist]
        acc, self.cum = 0.0, []
        for _, p in dist:
            acc += p
            self.cum.append(acc)

    def pick_video(self, state, box):
        x = self.rng.random()
        return self.videos[min(bisect_right(self.cum, x), len(self.videos) - 1)]


class GreedyAdversary(Adversary):
    """Strong-flavored: aware of allocation and current connections, picks
    the video whose weakest stripe leaves the fewest free upload slots at the
    uploader the static scheduler would pick; videos with an unsatisfiable
    stripe score lowest of all. Ties break to the lowest video id. Knowledge
    is pre-establishment: the score is a snapshot, uploads hypothetically
    consumed within the same request are not discounted."""

    def __init__(self, cfg, spec, alloc: AllocationMap, eligible=None):
        super().__init__(cfg, spec, eligible)
        self.alloc = alloc

    def pick_video(self, state, box):
        scores = self.scores(state, box)
        return int(np.argmin(scores))

    def scores(self, state: SimState, requester: int) -> np.ndarray:
        """Per-video score: min over stripes of the free slots of the uploader
        `select_static` would pick; -1 when some stripe has no acceptor.

        `select_static` ranks acceptors by (-free, load for the video, box),
        so its pick always has the most free slots among the stripe's
        acceptors: a stripe scores that maximum, with no loads, tie-breaks
        or dry runs."""
        free = state.free.astype(np.int64)
        usable = np.array(state.active, dtype=bool)  # a copy, never an alias
        usable[requester] = False
        best = np.where(usable, free, 0)[self.alloc.placement].max(axis=2)
        # a cache t_S ahead serves every stripe of its video alike; a cache
        # box that holds a replica already counts above as a seed source
        for v in set(state.swarms) | set(state.idle_cache_by_video):
            c = max((free[b] for b in cache_acceptors(state, v, 0, requester)),
                    default=0)
            best[v] = np.maximum(best[v], c)
        worst = best.min(axis=1)
        return np.where(worst > 0, worst, -1)


def make_adversary(cfg: SystemConfig, spec: AdversarySpec,
                   alloc: Optional[AllocationMap] = None,
                   eligible: Optional[Sequence[int]] = None) -> Adversary:
    problems = spec.validate(cfg)
    if problems:
        raise ValueError("; ".join(problems))
    if spec.kind == "random":
        return RandomAdversary(cfg, spec, eligible)
    if spec.kind == "zipf":
        return ZipfAdversary(cfg, spec, eligible)
    if spec.kind == "trace":
        return TraceAdversary(cfg, spec, eligible)
    if spec.kind == "greedy":
        if alloc is None:
            raise ValueError("greedy adversary needs the allocation")
        return GreedyAdversary(cfg, spec, alloc, eligible)
    raise ValueError(f"{spec.kind!r} does not generate per-request workloads")


# --- stress-less event sequences -------------------------------------------


class GrowthTracker:
    """Enforces the swarm-churn model bounds: arrivals to a cold video are
    capped at v_S within its first start-up window, and afterwards the churn
    event count over any window of t ticks may not exceed (mu^(t/t_S) - 1)
    times the swarm size at the window start (all churn types aggregate into
    the same bound)."""

    def __init__(self, cfg: SystemConfig):
        self.mu = frac(cfg.mu)
        self.v_s = cfg.v_s
        self.t_s = cfg.t_s
        # per video, current swarm lifetime only:
        self.size: dict[int, int] = {}
        self.events: dict[int, list[tuple[int, int]]] = {}  # (tick, delta)
        self.anchors: dict[int, dict[int, int]] = {}  # tick -> size at tick end
        self.birth: dict[int, int] = {}

    def _windows(self, video: int, tick: int):
        anchors = dict(self.anchors.get(video, {}))
        evs = self.events.get(video, [])  # in tick order
        if evs and evs[-1][0] < tick and evs[-1][0] not in anchors:
            anchors[evs[-1][0]] = self.size.get(video, 0)
        upto = bisect_right(evs, tick, key=itemgetter(0))
        for t0, size0 in anchors.items():
            if t0 < tick and size0 > 0:
                yield t0, size0, upto - bisect_right(evs, t0, key=itemgetter(0))

    def violation(self, video: int, tick: int, delta: int = 1) -> Optional[str]:
        """Message if one more event for this video at this tick would break
        a bound, else None."""
        if video not in self.events:
            return None  # first event of a lifetime; v_S covers it trivially
        if delta > 0 and video in self.birth:
            first = self.birth[video]
            if tick < first + self.t_s:
                arrivals = sum(1 for e, d in self.events[video]
                               if d > 0 and first <= e < first + self.t_s)
                if arrivals + 1 > self.v_s:
                    return (f"video {video}: {arrivals + 1} arrivals within "
                            f"the start-up window > v_S={self.v_s}")
        p, q = self.mu.numerator, self.mu.denominator
        for t0, size0, cnt in self._windows(video, tick):
            e, rem = divmod(tick - t0, self.t_s)
            if rem == 0:  # exact: cnt + 1 > ((p/q)^e - 1) * size0, times q^e
                over = (cnt + 1) * q ** e > (p ** e - q ** e) * size0
            else:
                growth = float(self.mu) ** ((tick - t0) / self.t_s) - 1
                over = cnt + 1 > growth * size0
            if over:
                return (f"video {video}: swarm growth {size0 + cnt + 1} > "
                        f"{self.mu}*{size0} over {tick - t0} tick(s)")
        return None

    def add(self, video: int, tick: int, delta: int) -> None:
        """Record an event (delta = +1 join, -1 leave)."""
        if video not in self.events:
            self.birth[video] = tick
            self.events[video] = []
            self.anchors[video] = {}
            self.size[video] = 0
        anchors = self.anchors[video]
        evs = self.events[video]
        if evs and evs[-1][0] < tick:
            anchors[evs[-1][0]] = self.size[video]
        evs.append((tick, delta))
        self.size[video] = max(0, self.size[video] + delta)
        if self.size[video] == 0:
            # lifetime over: the next event meets a cold swarm again
            del self.events[video]
            del self.anchors[video]
            del self.birth[video]
            del self.size[video]


@dataclass
class StresslessResult:
    events: list[SimEvent]
    warnings: list[str] = field(default_factory=list)


def generate_stressless(cfg: SystemConfig, spec: AdversarySpec,
                        horizon: int) -> StresslessResult:
    """Emit up to `horizon` events such that per video at most
    spec.swarms_per_video swarms start, swarm churn respects the mu^(t/t_S)
    growth bound, failures hit boxes independently with probability p_f per
    (box, swarm start), and the active ratio never drops below a."""
    rng = random.Random(spec.seed)
    tracker = GrowthTracker(cfg)
    events: list[SimEvent] = []
    warnings: list[str] = []
    min_active = int(-(-(cfg.a * cfg.n) // 1))  # ceil(a*n)
    playing: dict[int, int] = {}  # box -> video
    failed: set[int] = set()
    starts_used: dict[int, int] = {}
    resurrect_at: dict[int, int] = {}
    tick = 0

    def active_count():
        return cfg.n - len(failed)

    def idle_boxes():
        return [b for b in range(cfg.n) if b not in playing and b not in failed]

    def emit(kind: str, box: int, video: Optional[int] = None) -> bool:
        if len(events) >= horizon:
            return False
        events.append(SimEvent(time=tick, box=box, kind=kind, video=video))
        return True

    def on_swarm_start():
        """p_f failure coin for every active box, respecting budgets."""
        for b in range(cfg.n):
            if len(events) >= horizon:
                return
            if b in failed or rng.random() >= spec.p_f:
                continue
            if active_count() - 1 < min_active:
                continue
            v = playing.get(b)
            if v is not None:
                if tracker.violation(v, tick, delta=-1) is not None:
                    continue
                tracker.add(v, tick, -1)
                del playing[b]
            if emit("fail", b):
                failed.add(b)
                resurrect_at[b] = tick + 1 + rng.randrange(3)

    videos = list(range(cfg.m))
    rng.shuffle(videos)
    next_video = 0

    while len(events) < horizon:
        progressed = False
        # resurrect boxes due back
        for b in [b for b, t in resurrect_at.items() if t <= tick]:
            if len(events) >= horizon:
                break
            if emit("resurrect", b):
                failed.discard(b)
                del resurrect_at[b]
                progressed = True
        # grow existing swarms within their churn budget
        for v in sorted(tracker.size):
            if len(events) >= horizon:
                break
            idle = idle_boxes()
            while idle and len(events) < horizon \
                    and tracker.violation(v, tick) is None and rng.random() < 0.7:
                b = idle.pop(rng.randrange(len(idle)))
                tracker.add(v, tick, +1)
                emit("start", b, v)
                playing[b] = v
                progressed = True
        # occasionally zap a viewer to another live swarm (churn on both)
        if playing and len(events) < horizon and rng.random() < 0.25:
            b = rng.choice(sorted(playing))
            old = playing[b]
            targets = [v for v in tracker.size
                       if v != old and tracker.violation(v, tick) is None]
            if targets and tracker.violation(old, tick, delta=-1) is None:
                v = rng.choice(sorted(targets))
                tracker.add(old, tick, -1)
                tracker.add(v, tick, +1)
                emit("zap", b, v)
                playing[b] = v
                progressed = True
        # occasionally stop a viewer (counts against its swarm's churn)
        if playing and len(events) < horizon and rng.random() < 0.2:
            b = rng.choice(sorted(playing))
            v = playing[b]
            if tracker.violation(v, tick, delta=-1) is None:
                tracker.add(v, tick, -1)
                emit("stop", b)
                del playing[b]
                progressed = True
        # start a fresh swarm when the per-video budget allows
        while next_video < len(videos) and len(events) < horizon:
            v = videos[next_video]
            if starts_used.get(v, 0) >= spec.swarms_per_video:
                next_video += 1
                continue
            idle = idle_boxes()
            if not idle:
                break
            b = idle[rng.randrange(len(idle))]
            starts_used[v] = starts_used.get(v, 0) + 1
            next_video += 1
            tracker.add(v, tick, +1)
            emit("start", b, v)
            playing[b] = v
            progressed = True
            on_swarm_start()
            break
        if not progressed and next_video >= len(videos) and not resurrect_at:
            if not playing and len(events) < horizon:
                warnings.append(
                    f"constraints exhausted after {len(events)} events "
                    f"(requested {horizon})")
                break
        tick += 1
        if tick > 100 * max(1, horizon):
            warnings.append("tick guard hit; emitted maximal legal prefix")
            break
    return StresslessResult(events=events, warnings=warnings)


def validate_sequence(cfg: SystemConfig, seq: Sequence[SimEvent],
                      swarms_per_video: Optional[int] = None) -> list[str]:
    """Replay a sequence against the model constraints: swarm growth bound,
    active-ratio floor, legal transitions, and (when a bound is given) the
    stress-less constant-swarms-per-video clause."""
    violations: list[str] = []
    tracker = GrowthTracker(cfg)
    playing: dict[int, int] = {}
    failed: set[int] = set()
    min_active = int(-(-(cfg.a * cfg.n) // 1))
    starts: dict[int, int] = {}
    last_time = None
    for ev in sorted(seq, key=lambda e: e.time):
        if last_time is not None and ev.time < last_time:
            violations.append("events out of order")
        last_time = ev.time

        def join(v):
            msg = tracker.violation(v, ev.time)
            if msg:
                violations.append(msg)
            tracker.add(v, ev.time, +1)
            if tracker.size.get(v, 0) == 1:
                starts[v] = starts.get(v, 0) + 1

        def leave(v):
            msg = tracker.violation(v, ev.time, delta=-1)
            if msg:
                violations.append(msg)
            tracker.add(v, ev.time, -1)

        if ev.kind == "start":
            if ev.box in failed or ev.box in playing:
                violations.append(f"illegal start: {ev}")
            else:
                join(ev.video)
                playing[ev.box] = ev.video
        elif ev.kind == "zap":
            old = playing.get(ev.box)
            if old is None:
                violations.append(f"illegal zap: {ev}")
            else:
                leave(old)
                join(ev.video)
                playing[ev.box] = ev.video
        elif ev.kind == "stop":
            old = playing.get(ev.box)
            if old is None:
                violations.append(f"illegal stop: {ev}")
            else:
                leave(old)
                del playing[ev.box]
        elif ev.kind == "fail":
            if ev.box in failed:
                violations.append(f"illegal fail: {ev}")
                continue
            old = playing.pop(ev.box, None)
            if old is not None:
                leave(old)
            failed.add(ev.box)
            if cfg.n - len(failed) < min_active:
                violations.append(
                    f"active ratio below a={cfg.a} at tick {ev.time}")
        elif ev.kind == "resurrect":
            if ev.box not in failed:
                violations.append(f"illegal resurrect: {ev}")
            failed.discard(ev.box)
        else:
            violations.append(f"unknown event kind: {ev}")
    if swarms_per_video is not None:
        for v, cnt in starts.items():
            if cnt > swarms_per_video:
                violations.append(
                    f"video {v}: {cnt} swarm starts > {swarms_per_video}")
    return violations


def dump_events(seq: Sequence[SimEvent]) -> str:
    return "\n".join(str(e) for e in seq) + "\n"


def load_events(text: str) -> list[SimEvent]:
    from .model import parse_event
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            out.append(parse_event(line))
    return out
