import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (brute_force_min_cut, random_net, scipy_max_flow_value,
                     tiny_config)
from vodsim.allocation import allocate_regular
from vodsim.maxflow import (FlowNetwork, Infeasible, Unschedulable,
                            build_request_graph, check_expander,
                            max_flow, schedule_maxflow)
from vodsim.model import ConnectionAssignment, PlaybackSession, SimState, StripeId


def net_of(arcs, caps):
    return FlowNetwork(requests=[None] * len(arcs), requesters=[-1] * len(arcs),
                       box_ids=list(range(len(caps))), box_caps=list(caps),
                       holder_arcs=[sorted(a) for a in arcs])


def test_two_requests_one_slot_gives_flow_one():
    net = net_of([[0], [0]], caps=[1])
    assert max_flow(net).value == 1


def test_two_requests_two_slots_saturate():
    net = net_of([[0], [0]], caps=[2])
    res = max_flow(net)
    assert res.value == 2
    assert res.request_to_box == [0, 0]


def test_max_flow_matches_exhaustive_min_cut_small_nets():
    rng = random.Random(7)
    for _ in range(150):
        net = random_net(rng, max_req=6, max_box=4, allow_empty=True)
        assert max_flow(net).value == brute_force_min_cut(net)


def test_max_flow_properties_on_random_nets():
    pytest.importorskip("scipy")
    rng = random.Random(2024)
    for _ in range(1000):
        net = random_net(rng, max_req=30, max_box=10, max_cap=4, allow_empty=True)
        res = max_flow(net)
        assert res.value == scipy_max_flow_value(net)
        served = [r for r, bi in enumerate(res.request_to_box) if bi >= 0]
        assert len(served) == res.value
        load = [0] * len(net.box_ids)
        for r in served:
            assert res.request_to_box[r] in net.holder_arcs[r]
            load[res.request_to_box[r]] += 1
        assert all(used <= cap for used, cap in zip(load, net.box_caps))
        # the source side certifies the value: its cut has the same capacity
        side = res.source_side
        nb = {bi for r in side for bi in net.holder_arcs[r]}
        cut = net.num_requests - len(side) + sum(net.box_caps[bi] for bi in nb)
        assert cut == res.value


def test_expander_examples():
    ok, witness = check_expander(net_of([[0], [0]], caps=[1]))
    assert not ok and witness == [0, 1]
    ok, witness = check_expander(net_of([[0], [0]], caps=[2]))
    assert ok and witness is None


def test_expander_guard():
    net = net_of([[0]] * 21, caps=[21])
    with pytest.raises(ValueError):
        check_expander(net)


def test_expander_iff_flow_saturates():
    # the min-cut/max-flow lemma itself, cross-validated on random instances
    rng = random.Random(13)
    for _ in range(200):
        net = random_net(rng, max_req=8, max_box=5, allow_empty=True)
        ok, witness = check_expander(net)
        saturates = max_flow(net).value == net.num_requests
        assert ok == saturates
        if not ok:
            nb = set()
            for r in witness:
                nb.update(net.holder_arcs[r])
            assert sum(net.box_caps[b] for b in nb) < len(witness)


def test_flow_value_invariant_under_request_permutation():
    rng = random.Random(5)
    for _ in range(40):
        net = random_net(rng, max_req=8, max_box=4)
        perm = list(range(net.num_requests))
        rng.shuffle(perm)
        shuffled = net_of([net.holder_arcs[i] for i in perm], net.box_caps)
        assert max_flow(net).value == max_flow(shuffled).value


def playing_state(cfg, alloc, playing):
    """playing: list of (box, video, position)."""
    state = SimState(cfg=cfg, alloc=alloc)
    for box, video, pos in playing:
        sess = PlaybackSession(box=box, video=video, start_tick=0, position=pos,
                               started=True)
        state.sessions[box].append(sess)
        state.join_swarm(sess)
    return state


def test_request_graph_counts_and_arcs():
    cfg = tiny_config(n=4, d=2, s=2, m=4, k=2, c=2, u=1)
    alloc = allocate_regular(cfg, 3)
    state = playing_state(cfg, alloc, [(0, 0, 0), (1, 1, 0)])
    net = build_request_graph(state, alloc)
    assert net.num_requests == 2 * cfg.s  # one node per stripe being played
    for r in range(net.num_requests):
        assert net.holder_arcs[r], "every request needs holders"
        requester = net.requesters[r]
        assert all(net.box_ids[bi] != requester for bi in net.holder_arcs[r])


def test_request_graph_includes_only_ahead_caches():
    cfg = tiny_config(n=4, d=2, s=1, m=4, k=2, c=1, u=1)
    alloc = allocate_regular(cfg, 1)
    video = 0
    holders = set(alloc.holders(video, 0).tolist())
    behind, ahead = 2, 5  # requester at 2 needs sources at >= 2 + t_S
    others = [b for b in range(4) if b not in holders]
    state = playing_state(cfg, alloc, [
        (others[0], video, behind),
        (others[1], video, ahead),
    ])
    net = build_request_graph(state, alloc)
    idx = net.requesters.index(others[0])
    boxes = {net.box_ids[bi] for bi in net.holder_arcs[idx]}
    assert others[1] in boxes  # position 5 >= 2 + 1
    idx2 = net.requesters.index(others[1])
    boxes2 = {net.box_ids[bi] for bi in net.holder_arcs[idx2]}
    assert others[0] not in boxes2  # position 2 < 5 + 1


def test_zero_holder_stripe_is_unschedulable():
    cfg = tiny_config(n=2, d=1, s=1, m=2, k=1, c=1, u=1)
    alloc = allocate_regular(cfg, 0)
    video = 0
    sole = int(alloc.holders(video, 0)[0])
    state = playing_state(cfg, alloc, [(sole, video, 0)])
    with pytest.raises(Unschedulable):
        build_request_graph(state, alloc)
    result = schedule_maxflow(state, alloc)
    assert isinstance(result, Infeasible)
    assert result.witness_stripes == [StripeId(video, 0)]


def test_schedule_maxflow_feasible_instance():
    cfg = tiny_config(n=4, d=2, s=2, m=4, k=2, c=2, u=1)
    alloc = allocate_regular(cfg, 3)
    state = playing_state(cfg, alloc, [(0, 0, 0), (1, 1, 0)])
    result = schedule_maxflow(state, alloc)
    assert isinstance(result, ConnectionAssignment)
    # every playing box ends with s incoming stripe connections
    for box in (0, 1):
        assert sum(down == box for down, _, _ in result.entries) == cfg.s
    for uploader, cnt in result.per_uploader().items():
        assert cnt <= cfg.upload_slots(uploader)


def scarce_upload_fixture():
    """The scarce-upload obstruction: u=1, video v held only on one box; a
    chain of viewers exhausts that box's upload through caching, then the
    holder itself requests a video stored only on the chain's head."""
    cfg = tiny_config(n=5, d=1, s=1, m=5, k=1, c=1, u=1)
    # place video 0 on box 0 only; video 1 on box 1; others arbitrary
    import numpy as np
    placement = np.array([[[0]], [[1]], [[2]], [[3]], [[4]]], dtype=np.int32)
    from vodsim.allocation import _finish
    alloc = _finish("regular", 5, 5, 1, 1, placement)
    state = playing_state(cfg, alloc, [
        (1, 0, 3),  # b1 plays v since long: cache ahead of everyone
        (2, 0, 2),
        (3, 0, 1),
        (4, 0, 0),  # b4 just arrived
        (0, 1, 0),  # the holder of v requests a video stored only on b1
    ])
    return cfg, alloc, state


def test_scarce_upload_obstruction_is_infeasible():
    cfg, alloc, state = scarce_upload_fixture()
    result = schedule_maxflow(state, alloc)
    assert isinstance(result, Infeasible)
    assert result.flow_value < result.total_requests
    if result.witness_requests is not None:
        assert result.witness_capacity < len(result.witness_requests)


def test_scarce_upload_matches_expander_and_mincut():
    cfg, alloc, state = scarce_upload_fixture()
    net = build_request_graph(state, alloc)
    ok, witness = check_expander(net)
    assert not ok
    assert max_flow(net).value == brute_force_min_cut(net) == 4


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_unit_arc_flows_are_binary(seed):
    rng = random.Random(seed)
    net = random_net(rng, max_req=8, max_box=4)
    res = max_flow(net)
    served = [r for r in range(net.num_requests) if res.request_to_box[r] >= 0]
    assert len(served) == res.value
    for r in served:
        assert res.request_to_box[r] in net.holder_arcs[r]
