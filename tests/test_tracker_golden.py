"""Golden regression: the max-flow tracker's decisions on a small stress-less
replay with box failures. The metric summaries were recorded from the
edge-list Dinic tracker, except `retries`; the connection tables and
`retries` from the tracker that re-solves from the installed connections.
Warm starts leave uploads spread over more boxes than from-scratch solves
did, so more failures hit an uploader and need a repair re-solve. Any change
to which uploader serves which stripe shows here."""

import pytest

from vodsim import adversary as adv
from vodsim.allocation import allocate_purely_random
from vodsim.engine import run

from helpers import assignment, tiny_hetero_config


# seed -> (metrics summary, sorted (downloader, uploader, video, stripe))
EXPECTED = {
    1: (
        dict(issued=48, satisfied=48, failed=0, retries=6, stalls=0,
             unexplained_stalls=0, seed_searches=0, max_per_stripe_seed=0, infeasible_events=0),
        [
            (0, 7, 21, 0), (0, 7, 21, 3), (0, 11, 21, 1), (0, 11, 21, 2), (1, 11, 13, 3),
            (1, 12, 13, 0), (1, 12, 13, 1), (1, 19, 13, 2), (2, 7, 24, 3), (2, 14, 24, 2),
            (2, 15, 24, 1), (2, 19, 24, 0), (3, 4, 1, 0), (3, 4, 1, 2), (3, 4, 1, 3),
            (3, 7, 1, 1), (4, 10, 1, 0), (4, 10, 1, 3), (4, 11, 1, 1), (4, 15, 1, 2),
            (5, 12, 24, 1), (5, 14, 24, 2), (5, 21, 24, 0), (5, 23, 24, 3), (6, 9, 0, 3),
            (6, 10, 0, 0), (6, 10, 0, 1), (6, 18, 0, 2), (7, 10, 0, 0), (7, 10, 0, 1),
            (7, 18, 0, 2), (7, 21, 0, 3), (8, 11, 13, 3), (8, 14, 13, 1), (8, 15, 13, 2),
            (8, 21, 13, 0), (9, 17, 0, 2), (9, 18, 0, 0), (9, 18, 0, 1), (9, 21, 0, 3),
            (10, 7, 21, 0), (10, 11, 21, 2), (10, 14, 21, 3), (10, 15, 21, 1), (11, 14, 23, 0),
            (11, 15, 23, 2), (11, 16, 23, 3), (11, 19, 23, 1), (12, 11, 13, 3), (12, 14, 13, 1),
            (12, 15, 13, 2), (12, 21, 13, 0), (13, 4, 17, 2), (13, 16, 17, 0), (13, 16, 17, 1),
            (13, 16, 17, 3), (14, 15, 21, 1), (14, 16, 21, 0), (14, 19, 21, 2), (14, 23, 21, 3),
            (15, 11, 13, 3), (15, 12, 13, 2), (15, 14, 13, 1), (15, 21, 13, 0), (16, 1, 32, 3),
            (16, 8, 32, 2), (16, 18, 32, 0), (16, 18, 32, 1), (17, 18, 10, 0), (17, 18, 10, 2),
            (17, 21, 10, 1), (17, 21, 10, 3), (18, 3, 32, 3), (18, 4, 32, 2), (18, 16, 32, 0),
            (18, 16, 32, 1), (19, 4, 1, 1), (19, 10, 1, 0), (19, 10, 1, 3), (19, 15, 1, 2),
            (20, 7, 0, 0), (20, 7, 0, 1), (20, 7, 0, 2), (20, 21, 0, 3), (21, 11, 23, 1),
            (21, 14, 23, 0), (21, 15, 23, 2), (21, 16, 23, 3), (22, 4, 24, 1), (22, 4, 24, 3),
            (22, 19, 24, 0), (22, 19, 24, 2), (23, 7, 24, 3), (23, 17, 24, 1), (23, 19, 24, 0),
            (23, 19, 24, 2),
        ]),
    3: (
        dict(issued=48, satisfied=48, failed=0, retries=11, stalls=0,
             unexplained_stalls=0, seed_searches=0, max_per_stripe_seed=0, infeasible_events=0),
        [
            (0, 3, 1, 0), (0, 3, 1, 1), (0, 3, 1, 2), (0, 3, 1, 3), (1, 4, 8, 3),
            (1, 8, 8, 0), (1, 17, 8, 1), (1, 17, 8, 2), (2, 5, 1, 2), (2, 8, 1, 3),
            (2, 17, 1, 0), (2, 19, 1, 1), (3, 7, 1, 0), (3, 18, 1, 1), (3, 18, 1, 2),
            (3, 18, 1, 3), (4, 8, 19, 3), (4, 11, 19, 2), (4, 15, 19, 0), (4, 22, 19, 1),
            (5, 12, 3, 0), (5, 12, 3, 1), (5, 12, 3, 2), (5, 14, 3, 3), (6, 10, 14, 0),
            (6, 10, 14, 3), (6, 11, 14, 2), (6, 17, 14, 1), (7, 3, 15, 3), (7, 5, 15, 0),
            (7, 11, 15, 2), (7, 20, 15, 1), (8, 4, 12, 3), (8, 11, 12, 0), (8, 17, 12, 1),
            (8, 21, 12, 2), (9, 4, 12, 3), (9, 8, 12, 1), (9, 8, 12, 2), (9, 11, 12, 0),
            (10, 4, 8, 3), (10, 8, 8, 0), (10, 17, 8, 1), (10, 22, 8, 2), (11, 7, 26, 0),
            (11, 8, 26, 1), (11, 14, 26, 2), (11, 21, 26, 3), (12, 7, 3, 0), (12, 7, 3, 1),
            (12, 7, 3, 2), (12, 7, 3, 3), (13, 4, 3, 2), (13, 5, 3, 3), (13, 7, 3, 0),
            (13, 17, 3, 1), (14, 10, 31, 1), (14, 10, 31, 2), (14, 10, 31, 3), (14, 12, 31, 0),
            (15, 4, 24, 1), (15, 8, 24, 2), (15, 11, 24, 0), (15, 11, 24, 3), (16, 9, 1, 1),
            (16, 9, 1, 3), (16, 11, 1, 0), (16, 21, 1, 2), (17, 7, 8, 3), (17, 12, 8, 0),
            (17, 14, 8, 1), (17, 21, 8, 2), (18, 5, 1, 2), (18, 12, 1, 3), (18, 17, 1, 0),
            (18, 17, 1, 1), (19, 11, 12, 0), (19, 20, 12, 1), (19, 20, 12, 2), (19, 20, 12, 3),
            (20, 18, 12, 2), (20, 21, 12, 0), (20, 21, 12, 1), (20, 21, 12, 3), (21, 18, 12, 2),
            (21, 19, 12, 0), (21, 19, 12, 1), (21, 20, 12, 3), (22, 5, 31, 3), (22, 10, 31, 1),
            (22, 18, 31, 2), (22, 21, 31, 0), (23, 5, 31, 3), (23, 12, 31, 0), (23, 19, 31, 1),
            (23, 19, 31, 2),
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
