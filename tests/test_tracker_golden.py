"""Golden regression: the max-flow tracker's decisions on a small stress-less
replay with box failures. The expected connection tables and metric
summaries were recorded from the edge-list Dinic tracker, before the solver
moved to the implicit residual graph; any change to which uploader serves
which stripe shows here."""

import pytest

from vodsim import adversary as adv
from vodsim.allocation import allocate_purely_random
from vodsim.engine import run

from helpers import assignment, tiny_hetero_config


# seed -> (metrics summary, sorted (downloader, uploader, video, stripe))
EXPECTED = {
    1: (
        dict(issued=48, satisfied=48, failed=0, retries=5, stalls=0,
             unexplained_stalls=0, seed_searches=0, max_per_stripe_seed=0, infeasible_events=0),
        [
            (0, 7, 21, 0), (0, 7, 21, 3), (0, 9, 21, 1), (0, 11, 21, 2), (1, 7, 13, 0),
            (1, 7, 13, 2), (1, 11, 13, 3), (1, 15, 13, 1), (2, 4, 24, 1), (2, 6, 24, 0),
            (2, 6, 24, 2), (2, 7, 24, 3), (3, 4, 1, 2), (3, 7, 1, 1), (3, 7, 1, 3),
            (3, 10, 1, 0), (4, 7, 1, 1), (4, 7, 1, 3), (4, 10, 1, 0), (4, 15, 1, 2),
            (5, 4, 24, 1), (5, 4, 24, 3), (5, 6, 24, 0), (5, 6, 24, 2), (6, 9, 0, 3),
            (6, 10, 0, 0), (6, 10, 0, 1), (6, 10, 0, 2), (7, 9, 0, 3), (7, 10, 0, 0),
            (7, 10, 0, 1), (7, 10, 0, 2), (8, 11, 13, 3), (8, 14, 13, 1), (8, 15, 13, 2),
            (8, 21, 13, 0), (9, 18, 0, 0), (9, 18, 0, 1), (9, 18, 0, 2), (9, 21, 0, 3),
            (10, 9, 21, 0), (10, 9, 21, 1), (10, 9, 21, 3), (10, 11, 21, 2), (11, 6, 23, 0),
            (11, 9, 23, 3), (11, 15, 23, 2), (11, 19, 23, 1), (12, 11, 13, 3), (12, 14, 13, 1),
            (12, 15, 13, 2), (12, 21, 13, 0), (13, 4, 17, 2), (13, 16, 17, 0), (13, 16, 17, 1),
            (13, 16, 17, 3), (14, 4, 21, 3), (14, 9, 21, 0), (14, 9, 21, 1), (14, 11, 21, 2),
            (15, 11, 13, 3), (15, 12, 13, 0), (15, 12, 13, 1), (15, 12, 13, 2), (16, 3, 32, 3),
            (16, 4, 32, 2), (16, 18, 32, 0), (16, 18, 32, 1), (17, 6, 10, 1), (17, 16, 10, 3),
            (17, 18, 10, 0), (17, 18, 10, 2), (18, 16, 32, 0), (18, 16, 32, 1), (18, 16, 32, 2),
            (18, 16, 32, 3), (19, 4, 1, 0), (19, 11, 1, 1), (19, 15, 1, 2), (19, 17, 1, 3),
            (20, 15, 0, 1), (20, 17, 0, 2), (20, 18, 0, 0), (20, 21, 0, 3), (21, 6, 23, 0),
            (21, 11, 23, 1), (21, 12, 23, 3), (21, 15, 23, 2), (22, 6, 24, 0), (22, 14, 24, 2),
            (22, 15, 24, 1), (22, 19, 24, 3), (23, 12, 24, 1), (23, 14, 24, 2), (23, 19, 24, 0),
            (23, 19, 24, 3),
        ]),
    3: (
        dict(issued=48, satisfied=48, failed=0, retries=7, stalls=0,
             unexplained_stalls=0, seed_searches=0, max_per_stripe_seed=0, infeasible_events=0),
        [
            (0, 3, 1, 0), (0, 3, 1, 1), (0, 3, 1, 2), (0, 3, 1, 3), (1, 7, 8, 3),
            (1, 16, 8, 2), (1, 17, 8, 0), (1, 17, 8, 1), (2, 3, 1, 0), (2, 3, 1, 1),
            (2, 3, 1, 2), (2, 3, 1, 3), (3, 7, 1, 0), (3, 7, 1, 3), (3, 17, 1, 1),
            (3, 18, 1, 2), (4, 3, 19, 1), (4, 7, 19, 2), (4, 17, 19, 3), (4, 21, 19, 0),
            (5, 7, 3, 0), (5, 7, 3, 1), (5, 7, 3, 2), (5, 7, 3, 3), (6, 9, 14, 0),
            (6, 11, 14, 2), (6, 16, 14, 1), (6, 17, 14, 3), (7, 5, 15, 0), (7, 11, 15, 2),
            (7, 16, 15, 1), (7, 18, 15, 3), (8, 11, 12, 0), (8, 16, 12, 1), (8, 18, 12, 2),
            (8, 20, 12, 3), (9, 11, 12, 0), (9, 16, 12, 1), (9, 18, 12, 2), (9, 20, 12, 3),
            (10, 7, 8, 3), (10, 16, 8, 2), (10, 17, 8, 0), (10, 17, 8, 1), (11, 16, 26, 2),
            (11, 16, 26, 3), (11, 17, 26, 0), (11, 19, 26, 1), (12, 9, 3, 2), (12, 17, 3, 1),
            (12, 18, 3, 0), (12, 20, 3, 3), (13, 9, 3, 2), (13, 18, 3, 0), (13, 20, 3, 3),
            (13, 21, 3, 1), (14, 10, 31, 1), (14, 10, 31, 3), (14, 11, 31, 0), (14, 18, 31, 2),
            (15, 5, 24, 2), (15, 11, 24, 0), (15, 11, 24, 3), (15, 18, 24, 1), (16, 9, 1, 1),
            (16, 9, 1, 3), (16, 11, 1, 0), (16, 21, 1, 2), (17, 12, 8, 3), (17, 19, 8, 1),
            (17, 20, 8, 0), (17, 21, 8, 2), (18, 9, 1, 1), (18, 9, 1, 3), (18, 11, 1, 0),
            (18, 21, 1, 2), (19, 20, 12, 0), (19, 20, 12, 1), (19, 20, 12, 2), (19, 21, 12, 3),
            (20, 2, 12, 2), (20, 21, 12, 0), (20, 21, 12, 1), (20, 21, 12, 3), (21, 2, 12, 2),
            (21, 2, 12, 3), (21, 19, 12, 0), (21, 19, 12, 1), (22, 5, 31, 0), (22, 9, 31, 2),
            (22, 10, 31, 1), (22, 10, 31, 3), (23, 5, 31, 0), (23, 9, 31, 2), (23, 10, 31, 1),
            (23, 10, 31, 3),
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
