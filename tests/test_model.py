
from helpers import tiny_config
from vodsim.allocation import allocate_regular
from vodsim.model import (CACHE, SEED, PlaybackSession, SimEvent, SimState,
                          StripeId, apply_event, parse_event)


def make_state(**kw):
    cfg = tiny_config(**kw)
    alloc = allocate_regular(cfg, 0)
    return cfg, SimState(cfg=cfg, alloc=alloc)


def play(state, box, video, tick=0):
    sess = PlaybackSession(box=box, video=video, start_tick=tick)
    state.sessions[box].append(sess)
    state.join_swarm(sess)
    return sess


def test_stripe_id_ordering_is_video_major():
    ids = [StripeId(1, 0), StripeId(0, 2), StripeId(0, 1), StripeId(1, 1)]
    assert sorted(ids) == [StripeId(0, 1), StripeId(0, 2),
                           StripeId(1, 0), StripeId(1, 1)]


def test_install_and_sever_bookkeeping():
    cfg, state = make_state(n=4, u=2, d=2, s=2, c=2, k=2)
    sess = play(state, 0, 0)
    conn = state.install_connection(1, sess, 0, SEED)
    assert state.free[1] == cfg.upload_slots(1) - 1
    assert state.seed_active[0, 0] == 1
    assert state.load_for_video(1, 0) == 1
    assert sess.parents[0] is conn
    state.sever_connection(conn)
    assert state.free[1] == cfg.upload_slots(1)
    assert state.seed_active[0, 0] == 0
    assert state.load_for_video(1, 0) == 0
    assert sess.parents == {}
    state.sever_connection(conn)  # idempotent
    assert state.free[1] == cfg.upload_slots(1)


def test_fail_severs_uploads_and_enqueues_reschedules():
    cfg, state = make_state(n=4, u=2, d=2, s=2, c=2, k=2)
    downloaders = [play(state, b, 0) for b in (1, 2, 3)]
    for i, sess in enumerate(downloaders):
        state.install_connection(0, sess, i % 2, CACHE if i else SEED)
    res = apply_event(state, SimEvent(time=0, box=0, kind="fail"))
    assert res.applied
    assert len(res.resched) == 3  # one per severed upload
    assert state.upload_used(0) == 0
    assert not state.active[0]


def test_fail_on_failed_box_rejected():
    cfg, state = make_state()
    apply_event(state, SimEvent(time=0, box=1, kind="fail"))
    res = apply_event(state, SimEvent(time=1, box=1, kind="fail"))
    assert not res.applied
    assert res.event.box == 1


def test_resurrect_on_active_box_rejected():
    cfg, state = make_state()
    res = apply_event(state, SimEvent(time=0, box=0, kind="resurrect"))
    assert not res.applied
    assert "active" in res.reason


def test_zap_keeps_uploads_alive_with_expiry():
    cfg, state = make_state(n=4, u=2, d=2, s=2, c=2, k=2)
    zapper = play(state, 0, 0)
    other = play(state, 1, 0, tick=0)
    c1 = state.install_connection(0, other, 0, CACHE)
    c2 = state.install_connection(0, other, 1, CACHE)
    parent = state.install_connection(2, zapper, 0, CACHE)
    res = apply_event(state, SimEvent(time=5, box=0, kind="zap", video=1))
    assert res.applied
    assert res.request == (0, 1)
    # uploads of the old video persist but expire at now + t_S
    assert c1.expires_at == 5 + cfg.t_s and c2.expires_at == 5 + cfg.t_s
    assert not c1.closed and not c2.closed
    # the zapping box's own downloads are severed
    assert parent.closed
    assert state.swarms.get(0, []) == [other]


def test_stop_freezes_cache_position():
    cfg, state = make_state(n=4, u=2, d=2, s=2, c=2, k=2)
    sess = play(state, 0, 1)
    sess.position = 7
    res = apply_event(state, SimEvent(time=9, box=0, kind="stop"))
    assert res.applied
    assert state.idle_cache[0] == (1, 7)
    assert state.cache_position(0, 1) == 7
    assert 0 in state.idle_cache_by_video[1]


def test_start_on_playing_box_rejected():
    cfg, state = make_state()
    play(state, 0, 0)
    res = apply_event(state, SimEvent(time=0, box=0, kind="start", video=1))
    assert not res.applied


def test_event_serialization_roundtrip():
    for ev in (SimEvent(3, 1, "start", 5), SimEvent(4, 2, "fail")):
        assert parse_event(str(ev)) == ev


def test_cache_position_prefers_best_source():
    cfg, state = make_state(n=4, u=2, d=2, s=2, c=2, k=2)
    sess = play(state, 0, 1)
    sess.position = 3
    assert state.cache_position(0, 1) == 3
    assert state.cache_position(0, 0) is None


def test_assignment_snapshot():
    cfg, state = make_state(n=4, u=2, d=2, s=2, c=2, k=2)
    sess = play(state, 0, 0)
    state.install_connection(1, sess, 0, SEED)
    state.install_connection(2, sess, 1, SEED)
    asg = state.assignment()
    assert sorted(asg.per_uploader()) == [1, 2]
    assert sum(down == 0 for down, _, _ in asg.entries) == 2
