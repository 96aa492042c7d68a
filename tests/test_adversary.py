import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from helpers import chi_square_stat, dry_run_scores, tiny_config
from vodsim import adversary as adv
from vodsim.allocation import _finish, allocate_regular
from vodsim.config import SystemConfig
from vodsim.model import SEED, PlaybackSession, SimEvent, SimState
from vodsim.scheduler import select_static

CHI2_CRIT_DF2_P001 = 13.816  # chi-square 0.999 quantile, 2 degrees of freedom


def state_of(cfg, seed=0):
    alloc = allocate_regular(cfg, seed)
    return alloc, SimState(cfg=cfg, alloc=alloc)


class TestZipf:
    def make(self, m=3, gamma=2.0, seed=1):
        cfg = tiny_config(n=4, d=3, s=1, k=4, m=m, u=2)
        alloc, state = state_of(cfg)
        spec = adv.AdversarySpec(kind="zipf", seed=seed, gamma=gamma)
        return adv.ZipfAdversary(cfg, spec), state

    def test_rank_one_probability_exact(self):
        # m=3, gamma=2: P(rank 1) = 1/(1 + 1/4 + 1/9) = 36/49
        zipf, state = self.make()
        assert abs(zipf.cum[0] - 36 / 49) < 1e-12
        assert abs(zipf.cum[1] - (36 + 9) / 49) < 1e-12
        assert abs(zipf.cum[2] - 1.0) < 1e-12

    def test_gamma_zero_is_uniform(self):
        zipf, state = self.make(gamma=0.0)
        assert [round(c, 9) for c in zipf.cum] == [round(x, 9) for x in
                                                   (1 / 3, 2 / 3, 1.0)]

    def test_empirical_rank_one_frequency(self):
        zipf, state = self.make(seed=3)
        draws = 100_000
        hits = sum(zipf.pick_video(state, 0) == 0 for _ in range(draws))
        p = 36 / 49
        sigma = (p * (1 - p) / draws) ** 0.5
        assert abs(hits / draws - p) <= 3 * sigma


class TestTrace:
    def test_uniform_weights(self):
        trace = adv.PopularityTrace([(0, 1.0), (1, 1.0), (2, 1.0)])
        assert trace.distribution() == [(0, 1 / 3), (1, 1 / 3), (2, 1 / 3)]

    def test_degenerate_weight_always_picked(self):
        cfg = tiny_config(n=4, d=3, s=1, k=4, m=3, u=2)
        _, state = state_of(cfg)
        trace = adv.PopularityTrace([(0, 0.0), (1, 0.0), (2, 5.0)])
        spec = adv.AdversarySpec(kind="trace", seed=2, trace=trace)
        t = adv.TraceAdversary(cfg, spec)
        assert all(t.pick_video(state, 0) == 2 for _ in range(100))

    def test_chi_square_fit(self):
        cfg = tiny_config(n=4, d=3, s=1, k=4, m=3, u=2)
        _, state = state_of(cfg)
        trace = adv.PopularityTrace([(0, 2.0), (1, 1.0), (2, 1.0)])
        spec = adv.AdversarySpec(kind="trace", seed=5, trace=trace)
        t = adv.TraceAdversary(cfg, spec)
        counts = [0, 0, 0]
        for _ in range(100_000):
            counts[t.pick_video(state, 0)] += 1
        stat = chi_square_stat(counts, [0.5, 0.25, 0.25])
        assert stat < CHI2_CRIT_DF2_P001

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            adv.PopularityTrace([])
        with pytest.raises(ValueError):
            adv.PopularityTrace([(0, -1.0)])
        with pytest.raises(ValueError):
            adv.PopularityTrace([(0, 0.0)])

    def test_parse_and_recipes(self):
        text = "# popularity\n0,5.0\n1,1.0\n2,3.0\n3,2.0\n"
        trace = adv.PopularityTrace.parse(text)
        top = trace.top_m(2)
        assert [w for _, w in top.entries] == [5.0, 3.0]
        assert [v for v, _ in top.entries] == [0, 1]  # re-indexed catalog
        rnd = trace.random_m(2, seed=1)
        assert len(rnd.entries) == 2

    def test_trace_outside_catalog_rejected(self):
        cfg = tiny_config(n=4, d=3, s=1, k=4, m=3, u=2)
        trace = adv.PopularityTrace([(7, 1.0)])
        spec = adv.AdversarySpec(kind="trace", seed=0, trace=trace)
        with pytest.raises(ValueError):
            adv.TraceAdversary(cfg, spec)


class TestGreedy:
    def test_targets_weakest_forced_choice(self):
        # video 0's only holder retains one slot, video 1's is untouched
        cfg = SystemConfig(n=3, upload=(Fraction(2), Fraction(15), Fraction(1)),
                           storage=(Fraction(1), Fraction(1), Fraction(0)),
                           c=1, s=1, k=1, m=2,
                           allocation_mode="purely_random")
        placement = np.array([[[0]], [[1]]], dtype=np.int32)
        alloc = _finish("purely_random", 3, 2, 1, 1, placement)
        state = SimState(cfg=cfg, alloc=alloc)
        victim = PlaybackSession(box=2, video=0, start_tick=0)
        state.sessions[2].append(victim)
        state.join_swarm(victim)
        state.install_connection(0, victim, 0, SEED)
        spec = adv.AdversarySpec(kind="greedy", seed=0)
        greedy = adv.GreedyAdversary(cfg, spec, alloc)
        scores = greedy.scores(state, 2)
        assert scores[0] == 1 and scores[1] == 15
        assert greedy.pick_video(state, 2) == 0

    def test_all_equal_ties_break_to_lowest_id(self):
        cfg = tiny_config(n=4, d=3, s=1, k=2, m=6, u=2)
        alloc, state = state_of(cfg)
        greedy = adv.GreedyAdversary(cfg, adv.AdversarySpec(kind="greedy", seed=0), alloc)
        assert greedy.pick_video(state, 0) == 0

    def test_scaling_uploads_never_changes_the_pick(self):
        for scale in (2, 3):
            picks = []
            for u in (1, scale):
                cfg = tiny_config(n=5, d=2, s=1, k=2, m=5, u=u)
                alloc = allocate_regular(cfg, 4)
                state = SimState(cfg=cfg, alloc=alloc)
                greedy = adv.GreedyAdversary(
                    cfg, adv.AdversarySpec(kind="greedy", seed=0), alloc)
                picks.append(greedy.pick_video(state, 0))
            assert picks[0] == picks[1]

    def test_scorer_matches_selection_dry_run(self):
        from vodsim.engine import Engine
        cfg = tiny_config(n=12, d=4, s=3, k=2, m=24, u="1+1/3", c=3)
        alloc = allocate_regular(cfg, 2)
        greedy = adv.GreedyAdversary(cfg, adv.AdversarySpec(kind="greedy", seed=9),
                                     alloc, eligible=range(cfg.n))
        eng = Engine(cfg, alloc, "static", seed=2)
        rng = random.Random(0)
        for step in range(12):
            eng._advance_playback(completions=False)
            box, video = greedy.next_request(eng.state)
            scores = greedy.scores(eng.state, box)
            for v in rng.sample(range(cfg.m), 6) + [video]:
                worst, dead = None, False
                for j in range(cfg.s):
                    choice = select_static(eng.state, alloc, box, v, j)
                    if choice is None:
                        dead = True
                        break
                    b, _ = choice
                    rem = int(eng.state.free[b])
                    worst = rem if worst is None else min(worst, rem)
                assert int(scores[v]) == (-1 if dead else worst)
            if not eng.issue_request(box, video):
                break
            eng.state.tick += 1

    def test_scores_equal_dry_run_on_random_states(self):
        # random static states: offline boxes, stop-event idle caches on both
        # sides of t_S, requesters inside a swarm, boxes whose reserved slot
        # bars cache uploads, and loads of a video that has no swarm
        from vodsim.engine import Engine
        seen = Counter()
        for trial in range(80):
            rng = random.Random(trial)
            n, s = 12, rng.choice((2, 3))
            upload = tuple(rng.choice((1, Fraction(3, 2), 2)) for _ in range(n))
            cfg = SystemConfig(n=n, upload=upload, storage=(Fraction(2),) * n,
                               c=s, s=s, k=2, m=n, t_s=2)
            alloc = allocate_regular(cfg, trial)
            greedy = adv.GreedyAdversary(cfg, adv.AdversarySpec(kind="greedy"), alloc)
            eng = Engine(cfg, alloc, "static", seed=trial)
            st, t_s = eng.state, cfg.t_s
            for _ in range(40):
                r = rng.random()
                active = [b for b in range(n) if st.active[b]]
                idle = [b for b in active if not st.sessions[b]]
                playing = [b for b in active if st.sessions[b]]
                if r < 0.4 and idle:
                    video = rng.randrange(3) if rng.random() < 0.7 else rng.randrange(cfg.m)
                    eng.issue_request(rng.choice(idle), video)
                elif r < 0.65:
                    eng._advance_playback(completions=False)
                    st.tick += 1
                elif r < 0.78 and playing:
                    eng.apply(SimEvent(time=st.tick, box=rng.choice(playing), kind="stop"))
                elif r < 0.86 and active:
                    eng.apply(SimEvent(time=st.tick, box=rng.choice(active), kind="fail"))
                elif r < 0.9 and len(active) < n:
                    down = rng.choice([b for b in range(n) if not st.active[b]])
                    eng.apply(SimEvent(time=st.tick, box=down, kind="resurrect"))
                else:  # a download whose session is in no swarm
                    v = rng.randrange(cfg.m)
                    ups = [int(b) for b in alloc.holders(v, 0)
                           if st.active[b] and st.free[b] > 0]
                    if ups:
                        ghost = PlaybackSession(box=(ups[0] + 1) % n, video=v,
                                                start_tick=st.tick)
                        st.install_connection(ups[0], ghost, 0, SEED)
                members = [sess for swarm in st.swarms.values() for sess in swarm]
                for req in {rng.randrange(n), *[sess.box for sess in members[:1]]}:
                    expected = dry_run_scores(st, alloc, req)
                    assert np.array_equal(greedy.scores(st, req), expected)
                    seen["requester_in_swarm"] += any(m.box == req for m in members)
                ics = [ic for ic in st.idle_cache if ic is not None]
                seen["offline"] += not all(st.active)
                seen["idle_cache_below_t_s"] += any(p < t_s for _, p in ics)
                seen["idle_cache_at_t_s_or_more"] += any(p >= t_s for _, p in ics)
                seen["position_t_s_minus_1"] += any(m.position == t_s - 1 for m in members)
                seen["position_t_s"] += any(m.position == t_s for m in members)
                seen["reserved_slot_limit"] += any(
                    m.position >= t_s and st.active[m.box] and st.free[m.box] > 0
                    and st.cache_up[m.box] + 1 > st.slots[m.box] - 1 for m in members)
                seen["load_without_swarm"] += bool(set(st.video_load) - set(st.swarms))
        assert len(seen) == 8 and min(seen.values()) > 0, seen

    def test_greedy_strictly_weaker_than_random_at_k2(self):
        from vodsim.cli import config_for_k, probe_point
        cfg = config_for_k(2)
        greedy_sat, random_sat = [], []
        for seed in range(20):
            greedy_sat.append(probe_point(cfg, "greedy", "static", seed).satisfied)
            random_sat.append(probe_point(cfg, "random", "static", seed).satisfied)
        assert sum(greedy_sat) / 20 < sum(random_sat) / 20


class TestBoxStream:
    def test_requests_follow_permutation_rounds(self):
        cfg = tiny_config(n=4, d=3, s=1, k=4, m=3, u=2)
        alloc, state = state_of(cfg)
        spec = adv.AdversarySpec(kind="random", seed=8)
        a = adv.RandomAdversary(cfg, spec)
        boxes = [a.next_request(state)[0] for _ in range(8)]
        assert sorted(boxes[:4]) == [0, 1, 2, 3]
        assert sorted(boxes[4:]) == [0, 1, 2, 3]

    def test_inactive_boxes_skipped(self):
        cfg = tiny_config(n=4, d=3, s=1, k=4, m=3, u=2)
        alloc, state = state_of(cfg)
        state.active[2] = False
        a = adv.RandomAdversary(cfg, adv.AdversarySpec(kind="random", seed=8),
                                eligible=[0, 1, 3])
        boxes = [a.next_request(state)[0] for _ in range(6)]
        assert 2 not in boxes


class TestSpecValidation:
    def test_stressless_needs_small_pf(self):
        cfg = tiny_config(n=4, d=3, s=1, k=4, m=3, u=2, v_s=5)
        spec = adv.AdversarySpec(kind="stressless", p_f=0.5)
        assert any("p_f" in p for p in spec.validate(cfg))
        spec_ok = adv.AdversarySpec(kind="stressless", p_f=0.19)
        assert spec_ok.validate(cfg) == []

    def test_unknown_kind(self):
        cfg = tiny_config(n=4, d=3, s=1, k=4, m=3, u=2)
        assert adv.AdversarySpec(kind="nope").validate(cfg)
        with pytest.raises(ValueError):
            adv.make_adversary(cfg, adv.AdversarySpec(kind="nope"))


def stress_cfg(n=10, m=6, a="1", v_s=5):
    return SystemConfig(n=n, upload=(Fraction(2),) * n,
                        storage=(Fraction(3),) * n, c=2, s=2, k=2, m=m,
                        v_s=v_s, mu=Fraction(2), a=Fraction(a),
                        allocation_mode="purely_random")


class TestGrowthValidation:
    def seq(self, entries):
        return [SimEvent(time=t, box=b, kind=k, video=v)
                for (t, b, k, v) in entries]

    def test_empty_sequence_is_compliant(self):
        assert adv.validate_sequence(stress_cfg(), []) == []

    def test_three_to_seven_jump_is_flagged(self):
        # legal growth to size 3, then four arrivals in one start-up window
        events = self.seq([
            (0, 0, "start", 0), (1, 1, "start", 0), (2, 2, "start", 0),
            (3, 3, "start", 0), (3, 4, "start", 0), (3, 5, "start", 0),
            (3, 6, "start", 0),
        ])
        violations = adv.validate_sequence(stress_cfg(), events)
        assert any("7 > 2*3" in v for v in violations)

    def test_doubling_four_member_swarm_is_legal(self):
        base = [(0, 0, "start", 0), (1, 1, "start", 0),
                (2, 2, "start", 0), (2, 3, "start", 0)]
        grow4 = [(3, b, "start", 0) for b in (4, 5, 6, 7)]
        ok = adv.validate_sequence(stress_cfg(), self.seq(base + grow4))
        assert ok == []
        grow5 = grow4 + [(3, 8, "start", 0)]
        bad = adv.validate_sequence(stress_cfg(), self.seq(base + grow5))
        assert any("growth" in v for v in bad)

    def test_cold_video_arrivals_capped_by_vs(self):
        cfg = stress_cfg(v_s=2)
        events = self.seq([(0, 0, "start", 0), (0, 1, "start", 0),
                           (0, 2, "start", 0)])
        violations = adv.validate_sequence(cfg, events)
        assert any("v_S" in v for v in violations)

    def test_active_ratio_floor(self):
        cfg = stress_cfg(a="9/10")
        events = self.seq([(0, 0, "fail", None), (1, 1, "fail", None)])
        violations = adv.validate_sequence(cfg, events)
        assert any("active ratio" in v for v in violations)

    def test_illegal_transitions_flagged(self):
        events = self.seq([(0, 0, "fail", None), (1, 0, "fail", None),
                           (2, 1, "resurrect", None), (3, 2, "zap", 1)])
        violations = adv.validate_sequence(stress_cfg(), events)
        assert any("illegal fail" in v for v in violations)
        assert any("illegal resurrect" in v for v in violations)
        assert any("illegal zap" in v for v in violations)

    def test_swarms_per_video_clause(self):
        events = self.seq([(0, 0, "start", 0), (1, 0, "stop", None),
                           (5, 1, "start", 0)])
        assert adv.validate_sequence(stress_cfg(), events,
                                     swarms_per_video=1)
        assert adv.validate_sequence(stress_cfg(), events,
                                     swarms_per_video=2) == []


class TestStresslessGenerator:
    @pytest.mark.parametrize("seed,a,p_f,horizon", [
        (0, "1", 0.1, 60), (1, "4/5", 0.15, 120), (7, "9/10", 0.19, 200),
    ])
    def test_roundtrip_validates(self, seed, a, p_f, horizon):
        cfg = stress_cfg(n=20, m=10, a=a)
        spec = adv.AdversarySpec(kind="stressless", seed=seed, p_f=p_f,
                                 swarms_per_video=2)
        result = adv.generate_stressless(cfg, spec, horizon)
        assert result.events
        assert adv.validate_sequence(cfg, result.events,
                                     swarms_per_video=2) == []

    def test_single_swarm_per_video_never_restarts(self):
        cfg = stress_cfg(n=20, m=4)
        spec = adv.AdversarySpec(kind="stressless", seed=3, p_f=0.1,
                                 swarms_per_video=1)
        result = adv.generate_stressless(cfg, spec, 80)
        assert adv.validate_sequence(cfg, result.events,
                                     swarms_per_video=1) == []

    def test_event_serialization_roundtrip(self):
        cfg = stress_cfg(n=12, m=6)
        spec = adv.AdversarySpec(kind="stressless", seed=5, p_f=0.1)
        result = adv.generate_stressless(cfg, spec, 40)
        text = adv.dump_events(result.events)
        assert adv.load_events(text) == result.events

    def test_exhaustion_warns_with_prefix(self):
        cfg = stress_cfg(n=3, m=1)
        spec = adv.AdversarySpec(kind="stressless", seed=0, p_f=0.1,
                                 swarms_per_video=1)
        result = adv.generate_stressless(cfg, spec, 10_000)
        assert result.warnings
        assert adv.validate_sequence(cfg, result.events,
                                     swarms_per_video=1) == []
