import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np

from vodsim.allocation import AllocationMap, allocate_regular
from vodsim.config import SystemConfig
from vodsim.engine import Engine
from vodsim.model import (CACHE, SEED, PlaybackSession, SimEvent, SimState,
                          StripeId)
from vodsim.scheduler import (ConnectionRequest, DistributedScheduler,
                              grant_connection, schedule_request_static,
                              select_static, static_candidates)


def handcrafted(n, upload, storage, placement, s=1, c=None, v_s=5, m=None, k=None):
    placement = np.asarray(placement, dtype=np.int32)
    m = m if m is not None else placement.shape[0]
    k = k if k is not None else placement.shape[2]
    cfg = SystemConfig(n=n, upload=tuple(Fraction(u) for u in upload),
                       storage=tuple(Fraction(d) for d in storage),
                       c=c or s, s=s, k=k, m=m, v_s=v_s,
                       allocation_mode="purely_random")
    alloc = AllocationMap(mode="purely_random", n=n, m=m, s=s, k=k,
                          placement=placement)
    return cfg, SimState(cfg=cfg, alloc=alloc), alloc


def add_session(state, box, video, position=0, started=True):
    sess = PlaybackSession(box=box, video=video, start_tick=0,
                           position=position, started=started)
    state.sessions[box].append(sess)
    state.join_swarm(sess)
    return sess


def fill_with_uploads(state, box, videos, kind=CACHE, stripe_j=0):
    """Saturate a box with uploads of the given videos."""
    conns = []
    for i, v in enumerate(videos):
        downloader = add_session(state, (box + 1 + i) % state.cfg.n, v,
                                 position=0)
        conns.append(state.install_connection(box, downloader, stripe_j, kind))
    return conns


def seed_req(requester, video, j=0, position=0):
    return ConnectionRequest(requester=requester, stripe=StripeId(video, j),
                             position=position, kind=SEED)


def cache_req(requester, video, j=0, position=0):
    return ConnectionRequest(requester=requester, stripe=StripeId(video, j),
                             position=position, kind=CACHE)


RNG = lambda: random.Random(0)


class TestGrantSteps:
    def test_step2_accepts_with_free_capacity(self):
        cfg, state, alloc = handcrafted(3, upload=[2, 2, 2], storage=[1, 1, 1],
                                        placement=[[[0]]])
        d = grant_connection(0, seed_req(1, 0), state, RNG())
        assert d.accept and d.step == 2

    def test_step1_refuses_duplicate_stripe_when_not_viewing(self):
        cfg, state, alloc = handcrafted(4, upload=[3, 1, 1, 1],
                                        storage=[1, 1, 1, 1],
                                        placement=[[[0]]])
        other = add_session(state, 1, 0)
        state.install_connection(0, other, 0, SEED)
        d = grant_connection(0, seed_req(2, 0), state, RNG())
        assert not d.accept and d.step == 1

    def test_step3_refuses_saturated_non_viewer(self):
        cfg, state, alloc = handcrafted(4, upload=[1, 1, 1, 1],
                                        storage=[1, 1, 1, 1],
                                        placement=[[[0]], [[1]]])
        other = add_session(state, 1, 1)
        state.install_connection(0, other, 0, SEED)  # box 0 saturated by v1
        d = grant_connection(0, seed_req(2, 0), state, RNG())
        assert not d.accept and d.step == 3

    def test_step4_refuses_behind_cache_with_flip_to_parent(self):
        cfg, state, alloc = handcrafted(4, upload=[2, 2, 2, 2],
                                        storage=[1, 1, 1, 1],
                                        placement=[[[3]]])
        x = add_session(state, 0, 0, position=2)
        parent = state.install_connection(3, x, 0, SEED)
        # requester at position 4 needs a source at >= 5; x is at 2
        d = grant_connection(0, cache_req(1, 0, position=4), state, RNG())
        assert not d.accept and d.step == 4
        assert d.flip_to == 3  # go up x's downloading chain

    def test_step5_evicts_other_video_upload_at_random(self):
        cfg, state, alloc = handcrafted(6, upload=[2, 1, 1, 1, 1, 1],
                                        storage=[1] * 6,
                                        placement=[[[0]], [[1]], [[2]]])
        x = add_session(state, 0, 0, position=5)
        victims = fill_with_uploads(state, 0, [1, 2], kind=CACHE)
        assert state.free[0] == 0
        seen = set()
        for seed in range(40):
            d = grant_connection(0, cache_req(5, 0, position=1), state,
                                 random.Random(seed))
            assert d.accept and d.step == 5
            assert d.evict in victims
            seen.add(victims.index(d.evict))
        assert seen == {0, 1}  # uniform choice reaches both

    def test_step5_never_cancels_a_lone_seed_upload(self):
        cfg, state, alloc = handcrafted(6, upload=[2, 1, 1, 1, 1, 1],
                                        storage=[1] * 6,
                                        placement=[[[0]], [[1]], [[2]]])
        x = add_session(state, 0, 0, position=5)
        seed_conn = fill_with_uploads(state, 0, [1], kind=SEED)[0]
        cache_conn = fill_with_uploads(state, 0, [2], kind=CACHE)[0]
        for seed in range(25):
            d = grant_connection(0, cache_req(5, 0, position=1), state,
                                 random.Random(seed))
            assert d.accept and d.step == 5
            assert d.evict is cache_conn  # the lone seed upload is protected

    def test_step5_cancels_one_of_two_seed_uploads(self):
        cfg, state, alloc = handcrafted(6, upload=[2, 1, 1, 1, 1, 1],
                                        storage=[1] * 6,
                                        placement=[[[0]], [[1]], [[2]]])
        x = add_session(state, 0, 0, position=5)
        seeds = fill_with_uploads(state, 0, [1], kind=SEED)
        seeds += fill_with_uploads(state, 0, [2], kind=SEED)
        hit = set()
        for seed in range(40):
            d = grant_connection(0, cache_req(5, 0, position=1), state,
                                 random.Random(seed))
            assert d.accept and d.step == 5
            hit.add(seeds.index(d.evict))
        assert hit == {0, 1}

    def test_step6_displaces_behind_downloader_and_redirects_it(self):
        cfg, state, alloc = handcrafted(4, upload=[1, 1, 1, 2],
                                        storage=[1, 1, 1, 1],
                                        placement=[[[3]]])
        x = add_session(state, 0, 0, position=9)
        z = add_session(state, 1, 0, position=1)
        z_conn = state.install_connection(0, z, 0, CACHE)
        d = grant_connection(0, cache_req(2, 0, position=5), state, RNG())
        assert d.accept and d.step == 6
        assert d.evict is z_conn
        assert d.flip_to == 2  # z re-probes the new downloader

    def test_step7_redirects_to_child_just_ahead(self):
        cfg, state, alloc = handcrafted(5, upload=[2, 1, 1, 1, 2],
                                        storage=[1] * 5,
                                        placement=[[[4]]])
        x = add_session(state, 0, 0, position=9)
        near = add_session(state, 1, 0, position=4)
        far = add_session(state, 2, 0, position=7)
        state.install_connection(0, near, 0, CACHE)
        state.install_connection(0, far, 0, CACHE)
        # requester at 2 is behind both children; x is saturated with same-video
        # cache uploads it cannot displace (requester is behind them too)
        d = grant_connection(0, cache_req(3, 0, position=2), state, RNG())
        assert not d.accept and d.step == 7
        assert d.flip_to == 1  # the child closest above position 2+1

    def test_reserved_slot_blocks_cache_but_not_seed(self):
        cfg, state, alloc = handcrafted(4, upload=[2, 1, 1, 1],
                                        storage=[1, 1, 1, 1],
                                        placement=[[[0]], [[1]]])
        x = add_session(state, 0, 0, position=5)
        fill_with_uploads(state, 0, [0], kind=CACHE)  # cache_up = slots-1
        assert state.free[0] == 1
        d_cache = grant_connection(0, cache_req(3, 0, position=1), state, RNG())
        assert d_cache.step != 2  # the last slot is reserved for seeds
        d_seed = grant_connection(0, seed_req(3, 0), state, RNG())
        assert d_seed.accept and d_seed.step == 2

    def test_grant_is_deterministic_given_rng(self):
        cfg, state, alloc = handcrafted(6, upload=[2, 1, 1, 1, 1, 1],
                                        storage=[1] * 6,
                                        placement=[[[0]], [[1]], [[2]]])
        add_session(state, 0, 0, position=5)
        fill_with_uploads(state, 0, [1, 2], kind=CACHE)
        d1 = grant_connection(0, cache_req(5, 0, position=1), state,
                              random.Random(99))
        d2 = grant_connection(0, cache_req(5, 0, position=1), state,
                              random.Random(99))
        assert (d1.step, d1.accept, d1.evict) == (d2.step, d2.accept, d2.evict)


class TestStripeSearch:
    def test_cold_video_uses_free_allocation_holder(self):
        cfg, state, alloc = handcrafted(3, upload=[1, 1, 1], storage=[1, 1, 1],
                                        placement=[[[0]]])
        sched = DistributedScheduler(state, alloc, random.Random(1))
        sess = add_session(state, 1, 0, started=False)
        conn = sched.search(sess, 0)
        assert conn is not None and conn.uploader == 0 and conn.kind == SEED
        assert sched.stats.seed_searches == 1

    def test_gate_blocks_allocation_when_swarm_and_seeds_saturated(self):
        # v_S = 1: swarm size 1 and one active seed download close the gate
        cfg, state, alloc = handcrafted(4, upload=[2, 2, 2, 2],
                                        storage=[1, 1, 1, 1],
                                        placement=[[[0]]], v_s=1)
        member = add_session(state, 1, 0, position=4)
        state.install_connection(0, member, 0, SEED)
        assert state.seed_active[0, 0] == 1
        sched = DistributedScheduler(state, alloc, random.Random(1))
        sess = add_session(state, 2, 0, started=False)
        conn = sched.search(sess, 0)
        # allocation list never consulted: the swarm member serves instead
        assert sched.stats.seed_searches == 0
        assert conn is not None and conn.uploader == 1 and conn.kind == CACHE

    def test_gate_closed_and_no_swarm_capacity_fails(self):
        cfg, state, alloc = handcrafted(4, upload=[2, 1, 2, 1],
                                        storage=[1, 1, 1, 1],
                                        placement=[[[0]]], v_s=1)
        member = add_session(state, 1, 0, position=4)
        state.install_connection(0, member, 0, SEED)
        # saturate the member so it cannot relay; its child has a single
        # slot that stays reserved for seed uploads
        other = add_session(state, 3, 0, position=2)
        state.install_connection(1, other, 0, CACHE)
        assert state.free[1] == 0
        sched = DistributedScheduler(state, alloc, random.Random(1))
        sess = add_session(state, 2, 0, started=False)
        conn = sched.search(sess, 0)
        assert conn is None
        assert sched.stats.failures == 1
        assert sched.stats.seed_searches == 0  # free holder exists but gated

    def test_search_exhaustion_reports_failure(self):
        cfg, state, alloc = handcrafted(2, upload=[1, 1], storage=[1, 1],
                                        placement=[[[0]]])
        sess0 = add_session(state, 1, 0)
        state.install_connection(0, sess0, 0, SEED)
        sched = DistributedScheduler(state, alloc, random.Random(1))
        # requester is the holder itself: nothing else can serve
        sess = add_session(state, 0, 0, started=False)
        assert sched.search(sess, 0) is None
        assert sched.stats.failures == 1


class TestConnectionFlipping:
    def chain_state(self, positions):
        """Boxes 0..2 playing video 0 at the given positions; box 3 is the
        only allocation holder with a single upload slot."""
        cfg, state, alloc = handcrafted(
            4, upload=[2, 2, 2, 1], storage=[0, 0, 0, 1],
            placement=[[[3]]], v_s=5)
        sessions = [add_session(state, b, 0, position=p)
                    for b, p in enumerate(positions)]
        return cfg, state, alloc, sessions

    def test_flip_target_probed_after_candidates_run_out(self):
        # a reseed search probes the lone holder only: box 0 plays the video
        # with its one slot taken by a cache child ahead of the requester, so
        # it refuses at step 7 and redirects to that child, which has a free
        # slot besides the reserved one; the redirect comes after the last
        # candidate was drawn, in a batch of one, and must still be probed
        cfg, state, alloc = handcrafted(4, upload=[1, 2, 1, 1],
                                        storage=[1, 0, 0, 0],
                                        placement=[[[0]]])
        add_session(state, 0, 0, position=9)
        child = add_session(state, 1, 0, position=5)
        state.install_connection(0, child, 0, CACHE)
        sched = DistributedScheduler(state, alloc, random.Random(1))
        sess = add_session(state, 2, 0, started=False)
        conn = sched.search(sess, 0, seed_only=True)
        assert conn is not None and conn.uploader == 1 and conn.kind == CACHE
        assert sched.stats.flips == 1
        assert sched.stats.failures == 0

    def test_rejoin_orders_always_sort_into_position_chain(self):
        # whatever positions the rejoining boxes hold, flipping must order
        # the tree by stripe position: seed -> foremost -> middle -> last
        for positions in itertools.permutations([2, 4, 6]):
            cfg, state, alloc, sessions = self.chain_state(list(positions))
            sched = DistributedScheduler(state, alloc, random.Random(7))
            for sess in sessions:
                sched.search(sess, 0)
                failures = sched.drain()
                assert failures == []
            by_pos = sorted(sessions, key=lambda s: -s.position)
            parents = {s.box: s.parents[0].uploader for s in sessions}
            assert parents[by_pos[0].box] == 3
            assert parents[by_pos[1].box] == by_pos[0].box
            assert parents[by_pos[2].box] == by_pos[1].box
            for s in sessions:
                conn = s.parents[0]
                if conn.kind == CACHE:
                    src = state.cache_position(conn.uploader, 0)
                    assert src >= s.position + cfg.t_s


class TestReseed:
    def test_eviction_of_seed_triggers_reseed_path(self):
        # box 0 plays v0 and is saturated by two seed uploads of other videos;
        # a cache request for v0 evicts one and the victim re-seeds from the
        # spare replica of its stripe
        cfg, state, alloc = handcrafted(
            6, upload=[2, 1, 1, 2, 1, 1], storage=[1, 1, 1, 1, 1, 1],
            placement=[[[0, 0]], [[0, 3]], [[0, 3]]], s=1, k=2, m=3)
        x = add_session(state, 0, 0, position=6)
        d1 = add_session(state, 4, 1)
        d2 = add_session(state, 5, 2)
        state.install_connection(0, d1, 0, SEED)
        state.install_connection(0, d2, 0, SEED)
        sched = DistributedScheduler(state, alloc, random.Random(5))
        requester = add_session(state, 1, 0, position=1, started=False)
        conn = sched.search(requester, 0)
        assert conn is not None and conn.uploader == 0
        failures = sched.drain()
        assert failures == []
        assert sum(sched.stats.reseeds.values()) >= 1
        # both downloaders end up connected (one via the spare holder)
        assert 0 in d1.parents and 0 in d2.parents
        assert {d1.parents[0].uploader, d2.parents[0].uploader} == {0, 3}


class TestStaticSelection:
    def test_prefers_least_loaded_for_video(self):
        cfg, state, alloc = handcrafted(4, upload=[2, 2, 1, 1],
                                        storage=[1, 1, 1, 1],
                                        placement=[[[0, 1]]], s=1, k=2, m=1)
        busy = add_session(state, 3, 0, position=3)
        state.install_connection(0, busy, 0, SEED)  # box 0 carries the video
        choice = select_static(state, alloc, 2, 0, 0)
        assert choice == (1, SEED)

    def test_order_free_then_video_load_then_box_id(self):
        # box 3 has the most free slots and wins although it already uploads
        # the video; boxes 0-2 have 2 free each, box 0 uploads the video, and
        # idle boxes 1 and 2 tie but for the id
        cfg, state, alloc = handcrafted(7, upload=[3, 2, 2, 4, 1, 1, 1],
                                        storage=[1] * 7,
                                        placement=[[[3, 2, 0, 1]]], s=1, k=4,
                                        m=1)
        for up, viewer in ((0, 4), (3, 5)):
            sess = add_session(state, viewer, 0, position=3)
            state.install_connection(up, sess, 0, SEED)
        assert [int(state.free[b]) for b in range(4)] == [2, 2, 2, 3]
        order = [c[2] for c in static_candidates(state, alloc, 6, 0, 0)]
        assert order == [3, 1, 2, 0]
        assert select_static(state, alloc, 6, 0, 0) == (3, SEED)

    def test_rollback_on_partial_failure(self):
        # stripe 0 has holders, stripe 1's only holder is the requester
        cfg, state, alloc = handcrafted(3, upload=[1, 1, 1], storage=[1, 1, 0],
                                        placement=[[[0], [1]]], s=2, k=1, m=1,
                                        c=2)
        free_before = state.free.copy()
        sess = schedule_request_static(state, alloc, 1, 0)
        assert sess is None
        assert (state.free == free_before).all()
        assert state.sessions[1] == []
        assert state.swarms.get(0, []) == []


class TestCacheSourceRule:
    def test_one_rule_on_random_states(self):
        # random static states with failed boxes, a box switched off while it
        # still holds a cache, idle caches from stop events and from
        # completions, and positions at, and one below, t_S ahead of each
        # query: cache_sources matches a brute-force scan, cache_ahead agrees
        # with it, and a cache grant refuses at step 4 exactly when
        # cache_ahead is false
        seen = Counter()
        for trial in range(30):
            rng = random.Random(trial)
            n, s = 12, rng.choice((1, 2))
            cfg = SystemConfig(n=n, upload=tuple(rng.choice((1, 2, 3)) for _ in range(n)),
                               storage=(Fraction(2),) * n, c=s, s=s, k=2, m=n,
                               t_s=2, video_duration=6)
            alloc = allocate_regular(cfg, trial)
            eng = Engine(cfg, alloc, "static", seed=trial)
            st = eng.state
            for _ in range(30):
                r = rng.random()
                active = [b for b in range(n) if st.active[b]]
                idle = [b for b in active if not st.sessions[b]]
                playing = [b for b in active if st.sessions[b]]
                if r < 0.4 and idle:
                    eng.issue_request(rng.choice(idle), rng.randrange(3))
                elif r < 0.65:
                    completed = {sess.box for ss in st.sessions for sess in ss
                                 if sess.position + 1 >= cfg.video_duration}
                    eng._advance_playback()
                    st.tick += 1
                    seen["idle_cache_from_completion"] += any(
                        st.idle_cache[b] is not None for b in completed)
                elif r < 0.78 and playing:
                    box = rng.choice(playing)
                    eng.apply(SimEvent(time=st.tick, box=box, kind="stop"))
                    seen["idle_cache_from_stop"] += st.idle_cache[box] is not None
                elif r < 0.86 and active:
                    eng.apply(SimEvent(time=st.tick, box=rng.choice(active), kind="fail"))
                    seen["failed_box"] += 1
                elif r < 0.9 and playing:
                    st.active[rng.choice(playing)] = False
                    seen["offline_with_cache"] += 1
                elif len(active) < n:
                    down = rng.choice([b for b in range(n) if not st.active[b]])
                    eng.apply(SimEvent(time=st.tick, box=down, kind="resurrect"))
                self.check_state(st, rng, seen)
        assert len(seen) == 8 and min(seen.values()) > 0, seen

    @staticmethod
    def check_state(st, rng, seen):
        cfg, t_s = st.cfg, st.cfg.t_s
        cached = {}  # (box, video) -> best cache position
        for b in range(cfg.n):
            caches = [(sess.video, sess.position) for sess in st.sessions[b]]
            if st.idle_cache[b] is not None:
                caches.append(st.idle_cache[b])
            for v, p in caches:
                cached[b, v] = max(p, cached.get((b, v), p))
        requester = rng.randrange(cfg.n)
        for v in sorted({v for _, v in cached}):
            for position in range(cfg.video_duration + 1):
                need = position + t_s
                expected = sorted(b for (b, vv), p in cached.items()
                                  if vv == v and p >= need and st.active[b])
                assert st.cache_sources(v, position) == expected
                seen["at_t_s"] += any(p == need for (_, vv), p in cached.items() if vv == v)
                seen["one_below_t_s"] += any(p == need - 1 for (_, vv), p in cached.items()
                                             if vv == v)
                for b in range(cfg.n):
                    if not st.active[b]:
                        continue
                    ahead = st.cache_ahead(b, v, position)
                    assert ahead == (b in expected)
                    j = rng.randrange(cfg.s)
                    if b == requester or (not st.playing(b, v)
                                          and st.uploads_stripe(b, StripeId(v, j))):
                        continue  # refused at step 0 or 1
                    d = grant_connection(b, cache_req(requester, v, j, position), st, rng)
                    assert (d.step == 4) == (not ahead)
                    seen["step4_refusals"] += d.step == 4
                    seen["past_step4"] += d.step != 4
