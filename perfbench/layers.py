"""Per-layer instrumentation for the traced run.

`install` wraps the public functions of each vodsim module where they are
defined and, for names other modules import, where they are called
(`vodsim.engine.schedule_maxflow`, `vodsim.engine.schedule_request_static`,
`vodsim.adversary.select_static`). It also hooks the per-call checks, whose
violations collect in `Instruments.violations`. `metrics` turns the spans and
counters into the per-layer metrics, per round of the workload.
"""

from __future__ import annotations

from vodsim import adversary, allocation, engine, maxflow, model, scheduler

import checks
from tracer import Tracer

# (name, unit, better) for every per-layer metric, in report order
PER_LAYER = [
    ("allocation.calls", "count", "lower"),
    ("allocation.s", "s", "lower"),
    ("adversary.picks", "count", "lower"),
    ("adversary.pick_s", "s", "lower"),
    ("adversary.dry_run_selects", "count", "lower"),
    ("adversary.dry_run_select_s", "s", "lower"),
    ("adversary.generate_s", "s", "lower"),
    ("scheduler.static_requests", "count", "lower"),
    ("scheduler.static_request_s", "s", "lower"),
    ("scheduler.static_accept_ratio", "ratio", "higher"),
    ("scheduler.selects", "count", "lower"),
    ("scheduler.select_s", "s", "lower"),
    ("scheduler.candidates_per_select", "count", "lower"),
    ("scheduler.searches", "count", "lower"),
    ("scheduler.search_s", "s", "lower"),
    ("scheduler.search_success_ratio", "ratio", "higher"),
    ("scheduler.grants", "count", "lower"),
    ("scheduler.grant_accept_ratio", "ratio", "higher"),
    ("scheduler.drains", "count", "lower"),
    ("scheduler.drain_s", "s", "lower"),
    ("scheduler.flips", "count", "lower"),
    ("scheduler.evictions", "count", "lower"),
    ("scheduler.seed_searches", "count", "lower"),
    ("maxflow.solves", "count", "lower"),
    ("maxflow.build_s", "s", "lower"),
    ("maxflow.solve_s", "s", "lower"),
    ("maxflow.requests_per_solve", "count", "lower"),
    ("maxflow.arcs_per_solve", "count", "lower"),
    ("maxflow.infeasible", "count", "lower"),
    ("model.cache_position_calls", "count", "lower"),
    ("model.cache_position_s", "s", "lower"),
    ("model.installs", "count", "lower"),
    ("model.severs", "count", "lower"),
    ("engine.requests", "count", "lower"),
    ("engine.issue_self_s", "s", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.apply_self_s", "s", "lower"),
    ("engine.retries", "count", "lower"),
    ("engine.loop_self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

STATIC_REQUEST = "scheduler.static_request"
SCORES = "adversary.scores"


class Instruments:
    def __init__(self):
        self.tracer = Tracer()
        self.violations: list[str] = []
        self.schedulers: list = []
        self.last_net = None

    def install(self) -> None:
        t, patch = self.tracer, self.tracer.patch
        add = t.add

        # allocation
        for name in ("allocate_regular", "allocate_purely_random"):
            patch(allocation, name,
                  t.span_wrapper("allocation", getattr(allocation, name)))

        # adversary
        def on_pick(span, args, kwargs, result):
            if result[0] is not None:
                add("adversary.picks")
        patch(adversary.Adversary, "next_request",
              t.span_wrapper("adversary.pick", adversary.Adversary.next_request, on_pick))
        patch(adversary.GreedyAdversary, "scores",
              t.span_wrapper(SCORES, adversary.GreedyAdversary.scores))
        patch(adversary, "generate_stressless",
              t.span_wrapper("adversary.generate", adversary.generate_stressless))

        # static scheduler
        def on_request(span, args, kwargs, result):
            add("static_accepted", result is not None)
        request = t.span_wrapper(STATIC_REQUEST, scheduler.schedule_request_static,
                                 on_request)
        patch(scheduler, "schedule_request_static", request)
        patch(engine, "schedule_request_static", request)

        def on_select(span, args, kwargs, result):
            if result is None and span.parent_name == STATIC_REQUEST:
                state, alloc, requester, video, j = args[:5]
                position = args[5] if len(args) > 5 else kwargs.get("position", 0)
                self.violations += checks.refusal_violations(
                    state, alloc, requester, video, j, position)
        select = t.span_wrapper("scheduler.select", scheduler.select_static, on_select)
        patch(scheduler, "select_static", select)
        patch(adversary, "select_static", select)

        def on_candidates(args, kwargs, result):
            top = t.current()
            if top is not None and top.parent_name == STATIC_REQUEST:
                add("commit_candidates", len(result))
                add("commit_candidate_lists")
        patch(scheduler, "static_candidates",
              t.leaf_wrapper("static_candidates", scheduler.static_candidates,
                             timed=False, on_return=on_candidates))

        # distributed scheduler
        DS = scheduler.DistributedScheduler
        init = DS.__init__

        def ds_init(sched, *args, **kwargs):
            init(sched, *args, **kwargs)
            if t.recording:
                self.schedulers.append(sched)
        patch(DS, "__init__", ds_init)

        def on_search(span, args, kwargs, result):
            add("search_ok", result is not None)
        patch(DS, "search", t.span_wrapper("scheduler.search", DS.search, on_search))
        patch(DS, "drain", t.span_wrapper("scheduler.drain", DS.drain))

        def on_grant(args, kwargs, result):
            add("grant_accepts", result.accept)
        patch(scheduler, "grant_connection",
              t.leaf_wrapper("grants", scheduler.grant_connection, timed=False,
                             on_return=on_grant))

        # maxflow
        def on_build(span, args, kwargs, net):
            self.last_net = net
            add("flow_requests", net.num_requests)
            add("flow_arcs", net.num_arcs)
        patch(maxflow, "build_request_graph",
              t.span_wrapper("maxflow.build", maxflow.build_request_graph, on_build))

        def on_solve(span, args, kwargs, res):
            self.violations += checks.flow_value_violations(args[0], res.value)
        patch(maxflow, "max_flow",
              t.span_wrapper("maxflow.solve", maxflow.max_flow, on_solve))

        def on_schedule(span, args, kwargs, result):
            if isinstance(result, maxflow.Infeasible):
                add("maxflow.infeasible")
            else:
                self.violations += checks.assignment_violations(self.last_net,
                                                                result.entries)
        schedule = t.span_wrapper("maxflow.schedule", maxflow.schedule_maxflow,
                                  on_schedule)
        patch(maxflow, "schedule_maxflow", schedule)
        patch(engine, "schedule_maxflow", schedule)

        # The installed connections are only visible once the engine has
        # decoded the flow; this private method is where that ends.
        resolve = getattr(engine.Engine, "_resolve_maxflow", None)
        if resolve is None:
            self.violations.append("Engine._resolve_maxflow is gone: the "
                                   "installed-flow check cannot run")
        else:
            def on_resolve(args, kwargs, ok):
                if ok:
                    self.violations += checks.installed_violations(args[0].state,
                                                                   self.last_net)
            patch(engine.Engine, "_resolve_maxflow",
                  t.leaf_wrapper("resolve", resolve, timed=False,
                                 on_return=on_resolve))

        # Cache connections that fell behind are torn by the tick's sweep, so
        # positions are checked right after it.
        sweep = getattr(engine.Engine, "_sweep_connections", None)
        if sweep is None:
            self.violations.append("Engine._sweep_connections is gone: the "
                                   "cache-position check cannot run")
        else:
            def on_sweep(args, kwargs, result):
                self.violations += checks.swept_cache_violations(args[0].state)
            patch(engine.Engine, "_sweep_connections",
                  t.leaf_wrapper("sweep", sweep, timed=False, on_return=on_sweep))

        # model
        SS = model.SimState
        patch(SS, "cache_position",
              t.leaf_wrapper("model.cache_position", SS.cache_position))
        patch(SS, "install_connection",
              t.leaf_wrapper("model.installs", SS.install_connection, timed=False))
        patch(SS, "sever_connection",
              t.leaf_wrapper("model.severs", SS.sever_connection, timed=False))

        # engine
        E = engine.Engine
        patch(E, "issue_request", t.span_wrapper("engine.issue", E.issue_request))

        def on_apply(span, args, kwargs, result):
            eng = args[0]
            if eng.mode == "dynamic-distributed":
                self.violations += checks.reserved_slot_violations(eng.state)
        patch(E, "apply", t.span_wrapper("engine.apply", E.apply, on_apply))

        def on_run(span, args, kwargs, result):
            add("engine.retries", result[0].retries)
        patch(engine, "run", t.span_wrapper("engine.loop", engine.run, on_run))
        patch(engine, "saturation_probe",
              t.span_wrapper("engine.loop", engine.saturation_probe))

    def metrics(self, rounds: int, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics per traced round (allocation and sequence
        generation: per set-up build)."""
        t = self.tracer
        count: dict[str, int] = {}
        self_s: dict[str, float] = {}
        dry_selects = dry_select_s = 0
        for sp in t.spans:
            key = sp.name
            if sp.name == "scheduler.select":
                if sp.parent_name == SCORES:
                    dry_selects += 1
                    dry_select_s += sp.self_s
                    continue
                if sp.parent_name != STATIC_REQUEST:
                    key = "scheduler.select_other"
            count[key] = count.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + sp.self_s
        c = t.counts

        def ratio(a, b):
            return a / b if b else 0.0

        solves = count.get("maxflow.solve", 0)
        per_round = {
            "adversary.picks": c.get("adversary.picks", 0),
            "adversary.pick_s": self_s.get("adversary.pick", 0.0)
            + self_s.get(SCORES, 0.0),
            "adversary.dry_run_selects": dry_selects,
            "adversary.dry_run_select_s": dry_select_s,
            "scheduler.static_requests": count.get(STATIC_REQUEST, 0),
            "scheduler.static_request_s": self_s.get(STATIC_REQUEST, 0.0),
            "scheduler.selects": count.get("scheduler.select", 0),
            "scheduler.select_s": self_s.get("scheduler.select", 0.0),
            "scheduler.searches": count.get("scheduler.search", 0),
            "scheduler.search_s": self_s.get("scheduler.search", 0.0),
            "scheduler.grants": t.leaf_calls.get("grants", 0),
            "scheduler.drains": count.get("scheduler.drain", 0),
            "scheduler.drain_s": self_s.get("scheduler.drain", 0.0),
            "scheduler.flips": sum(s.stats.flips for s in self.schedulers),
            "scheduler.evictions": sum(s.stats.evictions for s in self.schedulers),
            "scheduler.seed_searches": sum(s.stats.seed_searches
                                           for s in self.schedulers),
            "maxflow.solves": solves,
            "maxflow.build_s": self_s.get("maxflow.build", 0.0),
            "maxflow.solve_s": self_s.get("maxflow.solve", 0.0),
            "maxflow.infeasible": c.get("maxflow.infeasible", 0),
            "model.cache_position_calls": t.leaf_calls.get("model.cache_position", 0),
            "model.cache_position_s": t.leaf_s.get("model.cache_position", 0.0),
            "model.installs": t.leaf_calls.get("model.installs", 0),
            "model.severs": t.leaf_calls.get("model.severs", 0),
            "engine.requests": count.get("engine.issue", 0),
            "engine.issue_self_s": self_s.get("engine.issue", 0.0),
            "engine.events": count.get("engine.apply", 0),
            "engine.apply_self_s": self_s.get("engine.apply", 0.0),
            "engine.retries": c.get("engine.retries", 0),
            "engine.loop_self_s": self_s.get("engine.loop", 0.0),
        }
        out = {name: value / rounds for name, value in per_round.items()}
        builds = c.get("setup_builds", 1)
        out["allocation.calls"] = count.get("allocation", 0) / builds
        out["allocation.s"] = self_s.get("allocation", 0.0) / builds
        out["adversary.generate_s"] = self_s.get("adversary.generate", 0.0) / builds
        out["scheduler.static_accept_ratio"] = ratio(
            c.get("static_accepted", 0), count.get(STATIC_REQUEST, 0))
        out["scheduler.candidates_per_select"] = ratio(
            c.get("commit_candidates", 0), c.get("commit_candidate_lists", 0))
        out["scheduler.search_success_ratio"] = ratio(
            c.get("search_ok", 0), count.get("scheduler.search", 0))
        out["scheduler.grant_accept_ratio"] = ratio(
            c.get("grant_accepts", 0), t.leaf_calls.get("grants", 0))
        out["maxflow.requests_per_solve"] = ratio(c.get("flow_requests", 0), solves)
        out["maxflow.arcs_per_solve"] = ratio(c.get("flow_arcs", 0), solves)
        out["trace.overhead_ratio"] = overhead_ratio
        return {name: out[name] for name, _, _ in PER_LAYER}
