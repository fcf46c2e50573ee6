"""Loss recovery, retransmission, congestion control behaviour."""

import pytest

from repro.sim import Engine, Network
from repro.tcpsim import RenoCongestionControl, TcpStack
from repro.tcpsim.state import TcpState

from conftest import drop_randomly, make_tcp_pair


def lossy_pair(engine, loss, seed=3):
    network = Network(engine)
    a = network.add_host("a", "10.0.0.1")
    b = network.add_host("b", "10.0.0.2")
    link = network.connect(a, b, latency=100e-6, bandwidth=1e9)
    drop_randomly(network, link, loss, seed)
    return TcpStack(engine, a), TcpStack(engine, b)


@pytest.mark.parametrize("loss", [0.01, 0.05, 0.1])
def test_transfer_survives_loss(engine, loss):
    sa, sb = lossy_pair(engine, loss)
    payload = bytes(i % 256 for i in range(120_000))
    client, _accepted, received = make_tcp_pair(engine, sa, sb, payload=payload)
    engine.run(until=120.0)
    assert bytes(received) == payload
    assert client.retransmissions > 0


def test_loss_causes_retransmissions_not_duplicated_delivery(engine):
    sa, sb = lossy_pair(engine, 0.08)
    payload = bytes(range(256)) * 200
    _client, _accepted, received = make_tcp_pair(engine, sa, sb, payload=payload)
    engine.run(until=60.0)
    assert bytes(received) == payload  # exactly once, in order


def test_handshake_survives_syn_loss(engine):
    sa, sb = lossy_pair(engine, 0.5, seed=11)
    client, accepted, _ = make_tcp_pair(engine, sa, sb)
    engine.run(until=60.0)
    assert client.state is TcpState.ESTABLISHED


def test_rto_backoff_on_blackhole(engine, two_stacks):
    sa, sb = two_stacks
    client, accepted, _ = make_tcp_pair(engine, sa, sb, payload=b"x")
    engine.advance(1.0)
    sb.host.fail()  # blackhole
    client.send(b"more data")
    start = engine.now
    engine.advance(10.0)
    # exponential backoff: far fewer than 10s/min_rto retransmissions
    assert 2 <= client.retransmissions <= 8


def test_user_timeout_resets_connection(engine, two_stacks):
    sa, sb = two_stacks
    client, accepted, _ = make_tcp_pair(engine, sa, sb, payload=b"x")
    engine.advance(1.0)
    resets = []
    client.on_reset = lambda _c, reason: resets.append(reason)
    sb.host.fail()
    client.send(b"void")
    engine.advance(300.0)
    assert resets == ["user-timeout"]
    assert client.state is TcpState.CLOSED


# -- congestion control unit tests ------------------------------------------


def test_reno_slow_start_doubles_per_rtt_equivalent():
    cc = RenoCongestionControl(mss=1000)
    initial = cc.cwnd
    cc.on_ack(1000)
    assert cc.cwnd == initial + 1000
    assert cc.in_slow_start


def test_reno_congestion_avoidance_linear():
    cc = RenoCongestionControl(mss=1000)
    cc.ssthresh = cc.cwnd  # force CA
    start = cc.cwnd
    # a full window of acks grows cwnd by one MSS
    acked = 0
    while acked < start:
        cc.on_ack(1000)
        acked += 1000
    assert start < cc.cwnd <= start + 2 * 1000


def test_reno_fast_retransmit_halves():
    cc = RenoCongestionControl(mss=1000)
    cc.cwnd = 64_000
    cc.ssthresh = 32_000
    cc.on_fast_retransmit()
    assert cc.ssthresh == 32_000
    assert cc.fast_recovery
    cc.on_ack(1000)  # full ack deflates
    assert not cc.fast_recovery
    assert cc.cwnd == 32_000


def test_reno_timeout_collapses_to_one_mss():
    cc = RenoCongestionControl(mss=1000)
    cc.cwnd = 64_000
    cc.on_timeout()
    assert cc.cwnd == 1000
    assert cc.ssthresh == 32_000
    assert cc.in_slow_start


def test_reno_ssthresh_floor_two_mss():
    cc = RenoCongestionControl(mss=1000)
    cc.cwnd = 1000
    cc.on_timeout()
    assert cc.ssthresh == 2000


def test_fast_retransmit_triggered_by_triple_dupack(engine):
    # 1 loss early in a long transfer triggers dup-acks and fast retransmit
    sa, sb = lossy_pair(engine, 0.02, seed=21)
    payload = b"q" * 500_000
    client, _accepted, received = make_tcp_pair(engine, sa, sb, payload=payload)
    engine.run(until=120.0)
    assert bytes(received) == payload
    assert client.cc.loss_events + client.cc.timeout_events >= 1
