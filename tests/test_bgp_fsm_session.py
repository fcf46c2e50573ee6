"""BGP FSM transitions and live session behaviour over simulated TCP."""

import pytest

from repro.bgp import BgpSpeaker, PeerConfig, SpeakerConfig
from repro.bgp.fsm import FsmViolation, SessionState, transition
from repro.bgp.messages import NotificationMessage
from repro.bgp.errors import NotificationCode
from repro.tcpsim import TcpStack
from repro.sim.rand import DeterministicRandom


# -- pure FSM -----------------------------------------------------------------


def test_legal_transition_chain():
    state = SessionState.IDLE
    for target in (SessionState.CONNECT, SessionState.OPEN_SENT,
                   SessionState.OPEN_CONFIRM, SessionState.ESTABLISHED,
                   SessionState.IDLE):
        state = transition(state, target)
    assert state is SessionState.IDLE


def test_self_transition_allowed():
    assert transition(SessionState.CONNECT, SessionState.CONNECT) is SessionState.CONNECT


def test_illegal_transition_raises():
    with pytest.raises(FsmViolation):
        transition(SessionState.IDLE, SessionState.ESTABLISHED)
    with pytest.raises(FsmViolation):
        transition(SessionState.OPEN_SENT, SessionState.ESTABLISHED)


# -- live sessions ------------------------------------------------------------


def _speaker_pair(engine, two_hosts, hold_time=90, keepalive=30):
    a, b = two_hosts
    sa, sb = TcpStack(engine, a), TcpStack(engine, b)
    spk_a = BgpSpeaker(engine, sa, SpeakerConfig("a", 65001, "10.0.0.1"))
    spk_b = BgpSpeaker(engine, sb, SpeakerConfig("b", 65002, "10.0.0.2"))
    sess_a = spk_a.add_peer(PeerConfig("10.0.0.2", 65002, mode="active",
                                       hold_time=hold_time,
                                       keepalive_interval=keepalive))
    sess_b = spk_b.add_peer(PeerConfig("10.0.0.1", 65001, mode="passive",
                                       hold_time=hold_time,
                                       keepalive_interval=keepalive))
    spk_a.start()
    spk_b.start()
    return spk_a, spk_b, sess_a, sess_b


def test_session_establishes(engine, two_hosts):
    spk_a, spk_b, sess_a, sess_b = _speaker_pair(engine, two_hosts)
    engine.advance(2.0)
    assert sess_a.established and sess_b.established
    assert sess_a.established_at is not None


def test_hold_time_negotiated_to_minimum(engine, two_hosts):
    a, b = two_hosts
    sa, sb = TcpStack(engine, a), TcpStack(engine, b)
    spk_a = BgpSpeaker(engine, sa, SpeakerConfig("a", 65001, "10.0.0.1"))
    spk_b = BgpSpeaker(engine, sb, SpeakerConfig("b", 65002, "10.0.0.2"))
    sess_a = spk_a.add_peer(PeerConfig("10.0.0.2", 65002, mode="active", hold_time=30))
    sess_b = spk_b.add_peer(PeerConfig("10.0.0.1", 65001, mode="passive", hold_time=90))
    spk_a.start(); spk_b.start()
    engine.advance(2.0)
    assert sess_a.negotiated_hold_time == 30
    assert sess_b.negotiated_hold_time == 30


def test_wrong_asn_rejected_with_notification(engine, two_hosts):
    a, b = two_hosts
    sa, sb = TcpStack(engine, a), TcpStack(engine, b)
    spk_a = BgpSpeaker(engine, sa, SpeakerConfig("a", 65001, "10.0.0.1"))
    spk_b = BgpSpeaker(engine, sb, SpeakerConfig("b", 65002, "10.0.0.2"))
    # a expects 64999 but the peer is 65002
    sess_a = spk_a.add_peer(PeerConfig("10.0.0.2", 64999, mode="active"))
    spk_b.add_peer(PeerConfig("10.0.0.1", 65001, mode="passive"))
    spk_a.start(); spk_b.start()
    engine.advance(3.0)
    assert not sess_a.established


def test_keepalives_maintain_session(engine, two_hosts):
    spk_a, spk_b, sess_a, sess_b = _speaker_pair(
        engine, two_hosts, hold_time=3, keepalive=1)
    engine.advance(30.0)
    assert sess_a.established and sess_b.established
    assert sess_a.messages_sent > 8  # OPEN + many KEEPALIVEs


def test_hold_timer_expiry_drops_session(engine, two_hosts):
    spk_a, spk_b, sess_a, sess_b = _speaker_pair(
        engine, two_hosts, hold_time=3, keepalive=1)
    engine.advance(2.0)
    assert sess_a.established
    # silence b: its keepalives stop but TCP stays up
    sess_b.keepalive_timer.stop()
    spk_b.running = False
    engine.advance(10.0)
    assert not sess_a.established
    assert sess_a.session_drops == 1


def test_notification_drops_session(engine, two_hosts):
    spk_a, spk_b, sess_a, sess_b = _speaker_pair(engine, two_hosts)
    engine.advance(2.0)
    sess_b.send_message(NotificationMessage(NotificationCode.CEASE, 4))
    engine.advance(1.0)
    assert not sess_a.established


def test_session_drop_withdraws_routes_at_peer(engine, two_hosts):
    from repro.workloads.updates import RouteGenerator

    spk_a, spk_b, sess_a, sess_b = _speaker_pair(engine, two_hosts)
    engine.advance(2.0)
    gen = RouteGenerator(DeterministicRandom(4), 65002, next_hop="10.0.0.2")
    spk_b.originate_many("default", gen.routes(50))
    spk_b.readvertise(sess_b)
    engine.advance(2.0)
    assert len(spk_a.vrfs["default"].loc_rib) == 50
    spk_b.crash()
    sb_stack = spk_b.stack
    sb_stack.destroy()
    engine.advance(200.0)  # hold timer expires at a
    assert not sess_a.established
    assert len(spk_a.vrfs["default"].loc_rib) == 0


def test_active_side_reconnects_after_drop(engine, two_hosts):
    spk_a, spk_b, sess_a, sess_b = _speaker_pair(
        engine, two_hosts, hold_time=3, keepalive=1)
    engine.advance(2.0)
    sess_b._drop_session()  # b tears the session down
    engine.advance(1.0)
    assert not sess_a.established
    # b comes back (re-add passive session), a's retry reconnects
    spk_b.running = True
    spk_b.add_peer(PeerConfig("10.0.0.1", 65001, mode="passive",
                              hold_time=3, keepalive_interval=1))
    engine.advance(20.0)
    assert sess_a.established


def test_inferred_ack_number_matches_tcp(engine, two_hosts):
    """§3.1.2: initial SEQ + cumulative message bytes == TCP ACK number."""
    spk_a, spk_b, sess_a, sess_b = _speaker_pair(engine, two_hosts)
    engine.advance(2.0)
    conn = sess_a.conn
    assert sess_a.inferred_ack_number == conn.rcv_nxt
    # push more messages through and re-check
    engine.advance(40.0)  # keepalives flow
    assert sess_a.inferred_ack_number == conn.rcv_nxt
