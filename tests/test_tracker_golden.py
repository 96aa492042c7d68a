"""Golden regression: the max-flow tracker's decisions on a small stress-less
replay with box failures. The metric summaries were recorded from the
edge-list Dinic tracker, except `retries`; the connection tables and
`retries` from the warm-started tracker whose network numbers boxes by id.
Warm starts leave uploads spread over more boxes than from-scratch solves
did, so more failures hit an uploader and need a repair re-solve. Holder
arcs follow ascending box id, which changed which box a new link takes and
the repair counts (seed 1: 6 -> 9, seed 3: 11 -> 12); the other figures
stayed. Any change to which uploader serves which stripe shows here."""

import pytest

from vodsim import adversary as adv
from vodsim.allocation import allocate_purely_random
from vodsim.engine import run

from helpers import assignment, tiny_hetero_config


# seed -> (metrics summary, sorted (downloader, uploader, video, stripe))
EXPECTED = {
    1: (
        dict(issued=48, satisfied=48, failed=0, retries=9, stalls=0,
             unexplained_stalls=0, seed_searches=0, max_per_stripe_seed=0, infeasible_events=0),
        [
            (0, 4, 21, 1), (0, 7, 21, 0), (0, 7, 21, 3), (0, 11, 21, 2), (1, 11, 13, 3),
            (1, 12, 13, 0), (1, 12, 13, 1), (1, 12, 13, 2), (2, 1, 24, 0), (2, 5, 24, 1),
            (2, 5, 24, 2), (2, 7, 24, 3), (3, 2, 1, 3), (3, 4, 1, 0), (3, 11, 1, 1),
            (3, 13, 1, 2), (4, 2, 1, 3), (4, 5, 1, 0), (4, 5, 1, 1), (4, 15, 1, 2),
            (5, 1, 24, 0), (5, 7, 24, 3), (5, 8, 24, 1), (5, 13, 24, 2), (6, 3, 0, 0),
            (6, 9, 0, 3), (6, 10, 0, 1), (6, 10, 0, 2), (7, 0, 0, 3), (7, 2, 0, 1),
            (7, 3, 0, 0), (7, 10, 0, 2), (8, 0, 13, 1), (8, 1, 13, 2), (8, 1, 13, 3),
            (8, 7, 13, 0), (9, 3, 0, 0), (9, 10, 0, 1), (9, 10, 0, 2), (9, 13, 0, 3),
            (10, 4, 21, 1), (10, 7, 21, 0), (10, 11, 21, 2), (10, 14, 21, 3), (11, 8, 23, 0),
            (11, 8, 23, 2), (11, 12, 23, 3), (11, 13, 23, 1), (12, 0, 13, 1), (12, 1, 13, 2),
            (12, 7, 13, 0), (12, 11, 13, 3), (13, 5, 17, 2), (13, 7, 17, 0), (13, 12, 17, 3),
            (13, 14, 17, 1), (14, 0, 21, 0), (14, 0, 21, 1), (14, 0, 21, 2), (14, 0, 21, 3),
            (15, 5, 13, 1), (15, 8, 13, 0), (15, 12, 13, 2), (15, 12, 13, 3), (16, 1, 32, 0),
            (16, 1, 32, 1), (16, 1, 32, 3), (16, 4, 32, 2), (17, 0, 10, 2), (17, 2, 10, 3),
            (17, 5, 10, 1), (17, 8, 10, 0), (18, 2, 32, 0), (18, 2, 32, 3), (18, 3, 32, 1),
            (18, 3, 32, 2), (19, 2, 1, 3), (19, 4, 1, 0), (19, 4, 1, 1), (19, 15, 1, 2),
            (20, 2, 0, 1), (20, 3, 0, 0), (20, 10, 0, 2), (20, 13, 0, 3), (21, 8, 23, 0),
            (21, 8, 23, 2), (21, 11, 23, 1), (21, 14, 23, 3), (22, 4, 24, 1), (22, 4, 24, 3),
            (22, 5, 24, 0), (22, 5, 24, 2), (23, 1, 24, 0), (23, 7, 24, 3), (23, 12, 24, 1),
            (23, 14, 24, 2),
        ]),
    3: (
        dict(issued=48, satisfied=48, failed=0, retries=12, stalls=0,
             unexplained_stalls=0, seed_searches=0, max_per_stripe_seed=0, infeasible_events=0),
        [
            (0, 2, 1, 2), (0, 3, 1, 0), (0, 3, 1, 1), (0, 3, 1, 3), (1, 5, 8, 1),
            (1, 7, 8, 3), (1, 12, 8, 0), (1, 13, 8, 2), (2, 0, 1, 0), (2, 3, 1, 1),
            (2, 3, 1, 2), (2, 3, 1, 3), (3, 5, 1, 2), (3, 8, 1, 3), (3, 9, 1, 1),
            (3, 11, 1, 0), (4, 1, 19, 3), (4, 7, 19, 1), (4, 7, 19, 2), (4, 15, 19, 0),
            (5, 1, 3, 0), (5, 1, 3, 2), (5, 1, 3, 3), (5, 7, 3, 1), (6, 8, 14, 0),
            (6, 9, 14, 1), (6, 10, 14, 3), (6, 11, 14, 2), (7, 3, 15, 3), (7, 6, 15, 0),
            (7, 6, 15, 2), (7, 9, 15, 1), (8, 4, 12, 3), (8, 11, 12, 0), (8, 13, 12, 1),
            (8, 14, 12, 2), (9, 1, 12, 2), (9, 4, 12, 3), (9, 6, 12, 0), (9, 8, 12, 1),
            (10, 5, 8, 1), (10, 6, 8, 0), (10, 12, 8, 3), (10, 13, 8, 2), (11, 1, 26, 3),
            (11, 7, 26, 0), (11, 8, 26, 1), (11, 14, 26, 2), (12, 1, 3, 2), (12, 1, 3, 3),
            (12, 7, 3, 0), (12, 7, 3, 1), (13, 1, 3, 0), (13, 4, 3, 2), (13, 5, 3, 1),
            (13, 5, 3, 3), (14, 5, 31, 2), (14, 5, 31, 3), (14, 10, 31, 1), (14, 11, 31, 0),
            (15, 4, 24, 1), (15, 4, 24, 3), (15, 7, 24, 0), (15, 8, 24, 2), (16, 3, 1, 2),
            (16, 8, 1, 3), (16, 9, 1, 1), (16, 11, 1, 0), (17, 4, 8, 3), (17, 6, 8, 0),
            (17, 13, 8, 2), (17, 14, 8, 1), (18, 5, 1, 2), (18, 7, 1, 0), (18, 9, 1, 1),
            (18, 9, 1, 3), (19, 4, 12, 3), (19, 11, 12, 0), (19, 13, 12, 1), (19, 14, 12, 2),
            (20, 6, 12, 0), (20, 13, 12, 1), (20, 14, 12, 2), (20, 21, 12, 3), (21, 4, 12, 3),
            (21, 6, 12, 0), (21, 13, 12, 1), (21, 14, 12, 2), (22, 5, 31, 0), (22, 6, 31, 1),
            (22, 9, 31, 2), (22, 10, 31, 3), (23, 10, 31, 1), (23, 10, 31, 2), (23, 10, 31, 3),
            (23, 11, 31, 0),
        ]),
}


@pytest.mark.parametrize("seed", sorted(EXPECTED))
def test_tracker_replay_decisions_unchanged(seed):
    cfg = tiny_hetero_config()
    alloc = allocate_purely_random(cfg, seed)
    spec = adv.AdversarySpec(kind="stressless", seed=seed + 10, p_f=0.1)
    events = adv.generate_stressless(cfg, spec, 80).events
    assert any(ev.kind == "fail" for ev in events)
    metrics, state = run(cfg, alloc, None, "dynamic-maxflow", seed=seed,
                         events=events)
    summary, entries = EXPECTED[seed]
    assert metrics.summary() == summary
    assert sorted((down, up, st.video, st.stripe)
                  for down, up, st in assignment(state).entries) == entries
