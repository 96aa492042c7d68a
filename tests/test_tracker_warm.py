"""The tracker re-solves from the connections already installed and installs
the maximum flow it reaches, partial or not.

A re-solve that cannot serve every request still installs a maximum flow, so
one unservable session no longer blocks later start-ups, and augmenting from
the installed flow never takes a stripe away from a session it serves."""

import random

import pytest

from helpers import scipy_max_flow_value, tiny_config
from vodsim import adversary as adv
from vodsim.allocation import allocate_regular
from vodsim.cli import config_for_k, probe_point
from vodsim.engine import Engine, run
from vodsim.maxflow import Infeasible, build_request_graph
from vodsim.model import CACHE, SimEvent


def tiny_offline_run(seed):
    """A small system with 5 random boxes offline and random requests over
    the rest for 40 ticks."""
    cfg = tiny_config(n=30, s=3, k=3, c=2, u=1, d=3)
    alloc = allocate_regular(cfg, seed)
    offline = random.Random(seed).sample(range(cfg.n), 5)
    rest = [b for b in range(cfg.n) if b not in offline]
    spec = adv.AdversarySpec(kind="random", seed=seed + 1)
    adversary = adv.make_adversary(cfg, spec, eligible=rest)
    return cfg, run(cfg, alloc, adversary, "dynamic-maxflow", seed, ticks=40,
                    offline=offline)


# Before warm starts, a re-solve that was not fully feasible installed
# nothing: 14/24/24 satisfied with 52/32/32 infeasible re-solves. On seeds 1
# and 2 the first infeasible re-solve comes with 24 sessions fully connected
# on 72 of the 75 upload slots, so filling the last 3 slots cannot complete
# a 25th session without taking a stripe from a started one.
@pytest.mark.parametrize("seed, before, after", [(0, 14, 22), (1, 24, 24),
                                                 (2, 24, 24)])
def test_infeasible_resolve_still_installs_a_maximum_flow(seed, before, after):
    cfg, (metrics, state) = tiny_offline_run(seed)
    assert metrics.infeasible_events > 0
    assert metrics.satisfied == after >= before
    slots = sum(int(state.slots[b]) for b in range(cfg.n) if state.active[b])
    assert sum(len(ups) for ups in state.uploads) == slots
    assert metrics.satisfied <= slots // cfg.s


def test_greedy_probe_survives_a_holderless_stripe():
    # Greedy's first pick at k=2 has a stripe whose two replicas both sit on
    # the requester, so its request has no arcs; before warm starts the
    # tracker then served 0 of 100 requests.
    cfg = config_for_k(2)
    res = probe_point(cfg, "greedy", "dynamic-maxflow", 0)
    assert 0 < res.satisfied <= res.ceiling


class CheckedEngine(Engine):
    """Checks every tracker re-solve against scipy's max flow of the network
    it was built from, and against the sessions it served before; counts
    the re-solves with a holderless request and the partial ones."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.resolves = self.holderless = self.partial = 0

    def _resolve_maxflow(self):
        st, s = self.state, self.cfg.s
        net = build_request_graph(st, self.alloc)
        full = [(sess, dict(sess.parents)) for sessions in st.sessions
                for sess in sessions if len(sess.parents) == s]
        result = super()._resolve_maxflow()
        self.resolves += 1
        self.holderless += any(not arcs for arcs in net.holder_arcs)
        if isinstance(result, Infeasible):
            self.partial += 1
            assert result.witness_capacity < len(result.witness_requests)

        conns = [c for ups in st.uploads for c in ups]
        assert len(conns) == scipy_max_flow_value(net)
        for c in conns:
            sess, (v, j) = c.session, c.stripe
            assert c.expires_at is None
            assert st.active[c.uploader] and c.uploader != sess.box
            ahead = st.cache_ahead(c.uploader, v, sess.position)
            assert (c.kind == CACHE) == ahead
            assert ahead or c.uploader in self.alloc.placement[v, j]
        for sess, parents in full:
            for j, old in parents.items():
                if j in sess.parents:
                    continue
                zapped = old.expires_at is not None
                dry = old.kind == CACHE and not st.cache_ahead(
                    old.uploader, sess.video, sess.position)
                assert zapped or dry, f"box {sess.box} lost stripe {j}"
        return result


def churn_events(rng, cfg, tick, offline):
    """A few random box events for one tick: failures, resurrections, zaps
    and stops; apply_event rejects the ones illegal in the state reached."""
    events = []
    for _ in range(rng.randint(0, 2)):
        box = rng.choice([b for b in range(cfg.n) if b not in offline])
        kind = rng.choice(["fail", "resurrect", "zap", "stop"])
        video = rng.randrange(cfg.m) if kind == "zap" else None
        events.append(SimEvent(time=tick, box=box, kind=kind, video=video))
    return events


def test_warm_start_keeps_a_maximum_flow_and_what_it_serves():
    totals = [0, 0, 0]
    for seed in range(24):
        rng = random.Random(seed)
        cfg = tiny_config(n=rng.randint(8, 16), s=rng.choice([2, 3]),
                          k=rng.choice([1, 2]), c=2, u=rng.choice([1, 2]), d=2,
                          video_duration=rng.choice([8, 15, 25]))
        alloc = allocate_regular(cfg, seed)
        offline = set(rng.sample(range(cfg.n), rng.randint(0, 3)))
        eligible = [b for b in range(cfg.n) if b not in offline]
        adversary = adv.make_adversary(
            cfg, adv.AdversarySpec(kind="random", seed=seed + 1),
            eligible=eligible)
        eng = CheckedEngine(cfg, alloc, "dynamic-maxflow", seed=seed,
                            offline=offline)
        request_p = rng.choice([0.2, 0.5])
        for tick in range(60):
            eng.step(churn_events(rng, cfg, tick, offline), adversary,
                     rate=int(rng.random() < request_p))
        totals = [t + x for t, x in zip(totals, (eng.resolves, eng.holderless,
                                                  eng.partial))]
    # the replays reach the cases they are there for: full and partial
    # re-solves, and holderless requests
    resolves, holderless, partial = totals
    assert 0 < holderless and 0 < partial < resolves
    print(f"{resolves} re-solves, {holderless} with a holderless request, "
          f"{partial} partial")
