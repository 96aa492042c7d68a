from fractions import Fraction

import numpy as np
import pytest

from helpers import assignment, check_forest, tiny_config
from vodsim import adversary as adv
from vodsim.allocation import AllocationMap, allocate_regular
from vodsim.config import SystemConfig
from vodsim.engine import Engine, Metrics, metrics_csv, run, saturation_probe
from vodsim.model import CACHE, SEED, SimEvent


def handcrafted(n, upload, storage, placement, s=1, m=None, k=None, **kw):
    placement = np.asarray(placement, dtype=np.int32)
    m = m if m is not None else placement.shape[0]
    k = k if k is not None else placement.shape[2]
    cfg = SystemConfig(n=n, upload=tuple(Fraction(u) for u in upload),
                       storage=tuple(Fraction(d) for d in storage),
                       c=kw.pop("c", s), s=s, k=k, m=m,
                       allocation_mode="purely_random", **kw)
    alloc = AllocationMap(mode="purely_random", n=n, m=m, s=s, k=k,
                          placement=placement)
    return cfg, alloc


def test_no_workload_means_no_change():
    cfg = tiny_config(n=4, d=2, s=1, k=2, m=4, u=1)
    alloc = allocate_regular(cfg, 0)
    metrics, state = run(cfg, alloc, None, "static", seed=0, ticks=5)
    assert metrics.issued == 0 and metrics.satisfied == 0
    assert (state.free == state.slots).all()
    assert all(not s for s in state.sessions)


def test_run_is_deterministic():
    cfg = tiny_config(n=8, d=2, s=2, k=2, m=8, u=2, c=2, video_duration=6)
    alloc = allocate_regular(cfg, 1)
    spec = adv.AdversarySpec(kind="random", seed=5)
    out = []
    for _ in range(2):
        adversary = adv.make_adversary(cfg, spec)
        metrics, state = run(cfg, alloc, adversary, "static", seed=9, ticks=30)
        assert metrics.satisfied + metrics.failed <= metrics.issued
        out.append((metrics.summary(),
                    [tuple(vars(r).values()) for r in metrics.per_tick],
                    sorted(assignment(state).entries)))
    assert out[0] == out[1]


def test_capacity_never_exceeded():
    cfg = tiny_config(n=8, d=2, s=2, k=2, m=8, u=1, c=2, video_duration=8)
    alloc = allocate_regular(cfg, 1)
    adversary = adv.make_adversary(cfg, adv.AdversarySpec(kind="random", seed=5))
    metrics, state = run(cfg, alloc, adversary, "static", seed=9, ticks=40)
    assert all(row.utilization <= 1.0 for row in metrics.per_tick)
    assert (state.free >= 0).all()
    for b in range(cfg.n):
        assert len(state.uploads[b]) == int(state.slots[b] - state.free[b])


def test_bandwidth_ceiling_reference_value():
    from vodsim.cli import config_for_k
    assert config_for_k(10).bandwidth_ceiling() == 106  # floor(100*16/15 slots)/15


def test_single_serving_box_saturates_at_one():
    # u=1, one video held by box 0 only: the first outside request succeeds,
    # afterwards the holder's own request finds no legal source (the serving
    # box's only slot stays reserved for allocation uploads)
    cfg, alloc = handcrafted(2, upload=[1, 1], storage=[1, 0],
                             placement=[[[0]]])
    eng = Engine(cfg, alloc, "static", seed=0)
    assert eng.issue_request(1, 0) is True
    eng.state.tick += 1
    eng._advance_playback(completions=False)
    assert eng.issue_request(0, 0) is False
    assert eng.metrics.satisfied == 1


def test_completion_retains_cache_and_serves_later():
    cfg, alloc = handcrafted(3, upload=[1, 2, 2], storage=[1, 0, 0],
                             placement=[[[0]]], video_duration=3)
    eng = Engine(cfg, alloc, "static", seed=0)
    assert eng.issue_request(1, 0)
    for _ in range(4):
        eng.state.tick += 1
        eng._advance_playback()
    assert eng.state.sessions[1] == []  # finished
    assert eng.state.idle_cache[1] == (0, 3)
    assert eng.state.free[0] == 1  # download link released
    # a new viewer can now be fed from the idle cache
    assert eng.issue_request(2, 0)
    up = eng.state.sessions[2][0].parents[0].uploader
    assert up in (0, 1)


def test_saturation_probe_counts_until_first_failure():
    cfg, alloc = handcrafted(2, upload=[1, 1], storage=[1, 0],
                             placement=[[[0]]])
    adversary = adv.make_adversary(cfg, adv.AdversarySpec(kind="random", seed=1))
    res = saturation_probe(cfg, alloc, adversary, "static", seed=0)
    assert res.ceiling == 2
    assert res.satisfied in (0, 1)  # 1 when the non-holder requests first


def test_static_reference_run_satisfies_every_box_once():
    from vodsim.cli import config_for_k, probe_point
    res = probe_point(config_for_k(10), "random", "static", seed=0)
    assert res.satisfied >= 100
    assert res.first_failure is not None


def test_single_replica_greedy_saturates_far_below_ceiling():
    from vodsim.cli import config_for_k, probe_point
    res = probe_point(config_for_k(1), "greedy", "static", seed=0)
    assert res.satisfied < res.ceiling / 2


class TestDynamicDistributed:
    def test_zap_grace_expires_and_downstream_reconnects(self):
        # box 1 plays v0 fed by the holder; box 2 plays v0 fed by box 1's
        # cache; when box 1 zaps away its upload survives t_S then the
        # downstream box re-searches (the spare holder slot takes over)
        cfg, alloc = handcrafted(4, upload=[2, 2, 2, 2], storage=[1, 0, 0, 1],
                                 placement=[[[0, 3]], [[3, 0]]],
                                 s=1, k=2, m=2, video_duration=30)
        events = [SimEvent(time=0, box=1, kind="start", video=0),
                  SimEvent(time=3, box=2, kind="start", video=0),
                  SimEvent(time=6, box=1, kind="zap", video=1)]
        metrics, state = run(cfg, alloc, None, "dynamic-distributed",
                             seed=4, events=events, ticks=12)
        assert metrics.satisfied == 3
        sess2 = state.sessions[2][0]
        assert sess2.parents, "downstream box must reconnect"
        assert sess2.parents[0].uploader in (0, 3)
        assert not metrics.unexplained_stalls()
        # box 1 still plays the zapped-to video
        assert state.sessions[1][0].video == 1

    def test_failure_of_sole_source_is_logged_stall(self):
        cfg, alloc = handcrafted(2, upload=[2, 2], storage=[1, 0],
                                 placement=[[[0, 0]]], s=1, k=2,
                                 video_duration=30)
        events = [SimEvent(time=0, box=1, kind="start", video=0),
                  SimEvent(time=5, box=0, kind="fail")]
        metrics, state = run(cfg, alloc, None, "dynamic-distributed",
                             seed=4, events=events, ticks=10)
        assert metrics.satisfied == 1
        assert len(metrics.stalls) >= 1
        assert all(s.cause == "uploader_failed" for s in metrics.stalls)
        assert not metrics.unexplained_stalls()

    def test_forest_invariant_on_swarm(self):
        cfg, alloc = handcrafted(5, upload=[2, 2, 2, 2, 2],
                                 storage=[0, 0, 0, 0, 1],
                                 placement=[[[4, 4]]], s=1, k=2,
                                 video_duration=60)
        events = [SimEvent(time=2 * i, box=i, kind="start", video=0)
                  for i in range(4)]
        metrics, state = run(cfg, alloc, None, "dynamic-distributed",
                             seed=4, events=events, ticks=12)
        ok, bad = check_forest(state)
        assert ok and not bad
        assert metrics.satisfied == 4
        # cache connections respect the position-ahead margin
        for ups in state.uploads:
            for conn in ups:
                if conn.kind == CACHE:
                    src = state.cache_position(conn.uploader, conn.stripe.video)
                    assert src >= conn.session.position + cfg.t_s


def test_dynamic_playback_tick():
    # one dynamic tick: a fully connected session advances; a session missing
    # a stripe and one not yet started hold; two boxes reaching the video's
    # end on the same tick both complete and both keep an idle cache
    cfg, alloc = handcrafted(6, upload=[5] * 6, storage=[2, 0, 0, 0, 0, 0],
                             placement=[[[0], [0]], [[0], [0]]], s=2,
                             video_duration=5)
    eng = Engine(cfg, alloc, "dynamic-maxflow", seed=0)
    st, end = eng.state, cfg.video_duration

    def session(box, video, position, started, stripes):
        sess = st.open_session(box, video)
        sess.position, sess.started = position, started
        for j in stripes:
            st.install_connection(0, sess, j, SEED)
        return sess

    full = session(1, 0, 2, True, (0, 1))
    partial = session(2, 0, 2, True, (0,))
    waiting = session(3, 0, 0, False, (0, 1))
    session(4, 1, end - 1, True, (0, 1))
    session(5, 0, end - 1, True, (0, 1))
    eng._advance_playback()
    assert (full.position, partial.position, waiting.position) == (3, 2, 0)
    assert st.sessions[4] == [] and st.sessions[5] == []
    assert st.idle_cache[4] == (1, end) and st.idle_cache[5] == (0, end)
    assert int(st.free[0]) == int(st.slots[0]) - 5  # the finished downloads left


class TestDynamicMaxflow:
    def test_events_reschedule_globally(self):
        cfg, alloc = handcrafted(4, upload=[1, 1, 1, 1], storage=[1, 1, 1, 1],
                                 placement=[[[0]], [[1]], [[2]], [[3]]],
                                 video_duration=30)
        events = [SimEvent(time=0, box=1, kind="start", video=0),
                  SimEvent(time=1, box=0, kind="start", video=1)]
        metrics, state = run(cfg, alloc, None, "dynamic-maxflow",
                             seed=0, events=events, ticks=6)
        assert metrics.satisfied == 2
        for b in range(cfg.n):
            assert len(state.uploads[b]) <= int(state.slots[b])
        for box in (0, 1):
            assert not state.sessions[box][0].missing_stripes(cfg.s)


def test_metrics_csv_schema():
    metrics = Metrics()
    metrics.issued = 3
    text = metrics_csv(metrics, header={"mode": "static"})
    lines = text.splitlines()
    assert lines[0] == "# schema=vodsim-metrics-v1"
    assert "# mode=static" in lines
    assert lines[-1].startswith("summary,")
    assert "issued=3" in lines[-1]


def test_invalid_mode_rejected():
    cfg = tiny_config(n=4, d=2, s=1, k=2, m=4, u=1)
    alloc = allocate_regular(cfg, 0)
    with pytest.raises(ValueError):
        Engine(cfg, alloc, "bogus")
