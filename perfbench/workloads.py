"""The benchmark's workloads.

Each workload builds its inputs from the workload seed (`build`, the timed
set-up), then runs rounds of fixed simulated work on them (`run_round`).
Every round repeats the same work, so rounds of one run differ only by host
noise. A round times each probe or replay separately and runs the end-state
checks between them, outside the timed spans.

An operation is one request: in `static-probe` an adversary pick plus its
scheduling, in the churn workloads a start or zap event, whose request the
tracker or the distributed scheduler serves. It runs from its start to the
start of the next operation, so the work between requests (failures,
resurrects and stops, with their repairs, and the tick work: playback,
connection sweep, retries) is counted in the request it follows, and a
round's operation times sum to its wall time. Every churn sequence has a
fixed number of starts, so a round's operation count barely moves with the
seed, while the share of cheap box events does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from vodsim import adversary, allocation, engine
from vodsim.bounds import realistic_replication_k
from vodsim.cli import config_for_k
from vodsim.config import SystemConfig

import checks
from tracer import Patches


@dataclass
class RoundResult:
    wall_s: float = 0.0
    op_s: list[float] = field(default_factory=list)
    issued: int = 0  # simulated playback requests
    failed: int = 0
    fingerprint: list[int] = field(default_factory=list)  # satisfied counts
    retries: int = 0  # repairs and retries of missing stripes (Metrics.retries)
    violations: list[str] = field(default_factory=list)


def _op_times(start: float, marks: list[float], end: float) -> list[float]:
    """Operation durations: the first one starts with the timed span."""
    edges = [start] + marks[1:] + [end]
    return [b - a for a, b in zip(edges, edges[1:])]


# --- static-probe -----------------------------------------------------------

# Each adversary is probed below and above its own replication threshold
# (k = 3 for random and Zipf requests, k = 6 for greedy ones). Random
# requests run under eight adversary seeds per point: they are the bulk of
# the operations, so the median operation is a random request's static
# scheduling, while the greedy requests make the tail.
PROBES = (
    [(k, "random", i) for k in (2, 6, 10) for i in range(8)]
    + [(k, "zipf", 0) for k in (2, 6, 10)]
    + [(k, "greedy", 0) for k in (4, 6, 10)]
)


class _MarkedAdversary:
    """Delegates to an adversary; each request it hands out starts an
    operation. Keeps the probe's state for the end-state checks."""

    def __init__(self, inner, marks: list[float]):
        self.inner = inner
        self.marks = marks
        self.state = None

    def next_request(self, state):
        self.marks.append(perf_counter())
        self.state = state
        return self.inner.next_request(state)


@dataclass
class ProbePoint:
    cfg: SystemConfig
    alloc: object
    spec: adversary.AdversarySpec
    adversary: object


class StaticProbe:
    """`saturation_probe` in static mode on the reference system (n=100,
    d=32, s=15, u=1+1/s): random requests at k = 2, 6, 10 under eight
    adversary seeds each, Zipf(2) requests at k = 2, 6, 10 and greedy
    requests at k = 4, 6, 10. The allocation, the first adversary seed and
    the probe seed follow `vodsim.cli.probe_point`, so those probes give
    the k-sweep's per-seed satisfied counts."""

    name = "static-probe"

    def build(self, seed: int) -> list[ProbePoint]:
        cfgs, allocs, points = {}, {}, []
        for k, kind, i in PROBES:
            if k not in cfgs:
                cfgs[k] = config_for_k(k)
                allocs[k] = allocation.allocate_regular(cfgs[k], seed)
            spec = adversary.AdversarySpec(kind=kind, seed=seed + 104729 + 7919 * i)
            points.append(ProbePoint(cfgs[k], allocs[k], spec, adversary.make_adversary(
                cfgs[k], spec, alloc=allocs[k])))
        self.seed = seed
        return points

    def check_inputs(self, points) -> list[str]:
        seen = {id(p.alloc): p for p in points}
        return [v for p in seen.values()
                for v in checks.allocation_violations(p.cfg, p.alloc)]

    def run_round(self, points) -> RoundResult:
        out = RoundResult()
        for p in points:
            # an adversary's RNG advances as it picks: each probe gets a
            # fresh one, built outside the timed span
            adv = p.adversary or adversary.make_adversary(p.cfg, p.spec, alloc=p.alloc)
            p.adversary = None
            marks: list[float] = []
            marked = _MarkedAdversary(adv, marks)
            t0 = perf_counter()
            res = engine.saturation_probe(p.cfg, p.alloc, marked, "static", self.seed)
            t1 = perf_counter()
            out.wall_s += t1 - t0
            out.op_s += _op_times(t0, marks, t1)
            out.issued += res.issued
            out.fingerprint.append(res.satisfied)
            if len(marks) != res.issued:
                out.violations.append(f"{len(marks)} picks for {res.issued} requests")
            state = marked.state
            out.violations += checks.state_violations(state, p.alloc)
            out.violations += checks.static_session_violations(state, res.satisfied)
        return out


# --- churn workloads --------------------------------------------------------


def hetero_config(n: int, a: Fraction, mu: Fraction = Fraction(2)) -> SystemConfig:
    """Acceptance criterion 8's system: uploads alternate 2 and 32/15 (mean
    2 + 1/s), storage proportional to upload, purely random allocation, k
    from the realistic-replication formula; mu = 2 there."""
    s = 15
    upload = tuple(Fraction(2) if i % 2 == 0 else Fraction(32, 15) for i in range(n))
    storage = tuple(15 * u for u in upload)
    k = realistic_replication_k(sum(upload) / n, 5, a, n)
    m = sum(int(d * s) for d in storage) // (k * s)
    return SystemConfig(n=n, upload=upload, storage=storage, c=s, s=s, m=m,
                        k=k, v_s=5, mu=mu, a=a, allocation_mode="purely_random")


def _cut_before_start(events: list, starts: int, seed: int) -> list:
    """The prefix of a sequence that holds exactly `starts` start events."""
    at = [i for i, ev in enumerate(events) if ev.kind == "start"]
    if len(at) <= starts:
        raise RuntimeError(f"sequence {seed} has only {len(at)} starts")
    return events[:at[starts]]


REQUEST_KINDS = ("start", "zap")  # the events that issue a playback request


@dataclass
class Replay:
    alloc: object
    events: list
    seed: int


class _Churn:
    """Stress-less sequences replayed by `vodsim.engine.run` on one
    allocation; a round replays every sequence once."""

    name = ""
    mode = ""
    instances = 0

    def __init__(self):
        self.marks: list[float] = []
        self.applied = 0
        self.rejected = 0

    def _marking_apply(self, original):
        """Engine.apply that starts an operation at each request event and
        counts applied events."""
        bench = self

        def apply(eng, ev):
            if ev.kind in REQUEST_KINDS:
                bench.marks.append(perf_counter())
            res = original(eng, ev)
            if res.applied:
                bench.applied += 1
            else:
                bench.rejected += 1
            return res

        apply.__wrapped__ = original
        return apply

    def config(self) -> SystemConfig:
        raise NotImplementedError

    def sequence(self, cfg, seed: int) -> list:
        raise NotImplementedError

    def build(self, seed: int) -> list[Replay]:
        self.cfg = self.config()
        alloc = allocation.allocate_purely_random(self.cfg, seed)
        return [Replay(alloc, self.sequence(self.cfg, seed * 100 + i + 11),
                       seed * 100 + i + 3) for i in range(self.instances)]

    def check_inputs(self, replays) -> list[str]:
        out = checks.allocation_violations(self.cfg, replays[0].alloc)
        for r in replays:
            out += adversary.validate_sequence(self.cfg, r.events, swarms_per_video=1)
        return out

    def run_round(self, replays) -> RoundResult:
        out = RoundResult()
        patches = Patches()
        patches.patch(engine.Engine, "apply",
                      self._marking_apply(engine.Engine.__dict__["apply"]))
        try:
            self._replay_all(replays, out)
        finally:
            patches.restore()
        return out

    def _replay_all(self, replays, out: RoundResult) -> None:
        for r in replays:
            self.marks.clear()
            self.applied = self.rejected = 0
            t0 = perf_counter()
            metrics, state = engine.run(self.cfg, r.alloc, None, self.mode,
                                        r.seed, events=r.events)
            t1 = perf_counter()
            out.wall_s += t1 - t0
            out.op_s += _op_times(t0, self.marks, t1)
            out.issued += metrics.issued
            out.failed += metrics.failed
            out.fingerprint.append(metrics.satisfied)
            out.retries += metrics.retries
            if self.rejected or self.applied != len(r.events):
                out.violations.append(
                    f"{self.applied} of {len(r.events)} events applied")
            if len(self.marks) != metrics.issued:
                out.violations.append(
                    f"{len(self.marks)} request events for {metrics.issued} requests")
            out.violations += checks.state_violations(state, r.alloc)
            out.violations += self.end_checks(state, r.alloc, metrics)

    def end_checks(self, state, alloc, metrics) -> list[str]:
        return []


class TrackerChurn(_Churn):
    """Criterion 8's n=100 system with a = 9/10, so boxes fail and come
    back, replayed in dynamic-maxflow mode. Each sequence is cut before its
    21st start, so every instance makes the same number of start re-solves
    on a similar number of sessions. With p_f = 0.01 a failure now and then
    hits an uploader, whose downloads are repaired by a re-solve (3-14
    repairs per round over seeds 1-10)."""

    name = "tracker-churn"
    mode = "dynamic-maxflow"
    instances = 16
    starts = 20
    p_f = 0.01

    def config(self):
        return hetero_config(100, Fraction(9, 10))

    def sequence(self, cfg, seed):
        spec = adversary.AdversarySpec(kind="stressless", seed=seed, p_f=self.p_f)
        return _cut_before_start(
            adversary.generate_stressless(cfg, spec, 4 * self.starts).events,
            self.starts, seed)

    def end_checks(self, state, alloc, metrics):
        from vodsim.maxflow import build_request_graph
        out = checks.installed_violations(state, build_request_graph(state, alloc))
        if metrics.infeasible_events:
            out.append(f"{metrics.infeasible_events} infeasible re-solves")
        return out


class DistributedChurn(_Churn):
    """The same kind of system at n=200 with a = 1 and mu = 5/4, replayed
    in dynamic-distributed mode. Each sequence is cut before its 101st
    start, when half the boxes play."""

    name = "distributed-churn"
    mode = "dynamic-distributed"
    instances = 24
    starts = 100

    def config(self):
        return hetero_config(200, Fraction(1), mu=Fraction(5, 4))

    def sequence(self, cfg, seed):
        spec = adversary.AdversarySpec(kind="stressless", seed=seed)
        return _cut_before_start(
            adversary.generate_stressless(cfg, spec, 2 * self.starts).events,
            self.starts, seed)

    def end_checks(self, state, alloc, metrics):
        return checks.reserved_slot_violations(state) + checks.stall_violations(metrics)


WORKLOADS = {w.name: w for w in (StaticProbe, TrackerChurn, DistributedChurn)}
