"""gRPC-style channels and IP SLA probes."""

import pytest

from repro.control.channels import GrpcChannel, HealthServer
from repro.control.ipsla import IpSlaProber, IpSlaResponder
from repro.sim import Engine, Network


@pytest.fixture
def net(engine):
    network = Network(engine)
    network.enable_fabric()
    return network


def test_heartbeats_stream_status(engine, net):
    ctrl = net.add_host("ctrl", "1.1.1.1")
    target = net.add_host("t", "1.1.1.2")
    HealthServer(engine, target, status_fn=lambda: {"x": 42}, port=50051)
    statuses = []
    channel = GrpcChannel(engine, ctrl, "t", "1.1.1.2", target_port=50051,
                          on_status=lambda ch, s: statuses.append(s))
    channel.start()
    engine.advance(1.0)
    assert statuses and statuses[-1] == {"x": 42}
    assert channel.healthy
    assert channel.last_reply_at is not None


def test_unhealthy_after_miss_threshold(engine, net):
    ctrl = net.add_host("ctrl", "1.1.1.1")
    target = net.add_host("t", "1.1.1.2")
    HealthServer(engine, target, port=50051)
    events = []
    channel = GrpcChannel(engine, ctrl, "t", "1.1.1.2", target_port=50051,
                          on_unhealthy=lambda ch: events.append(("down", engine.now)),
                          on_healthy=lambda ch: events.append(("up", engine.now)))
    channel.start()
    engine.advance(1.0)
    t_fail = engine.now
    target.fail()
    engine.advance(2.0)
    assert events and events[0][0] == "down"
    # detection within ~2 intervals + timeout
    assert events[0][1] - t_fail < 1.0


def test_healthy_again_after_recovery(engine, net):
    ctrl = net.add_host("ctrl", "1.1.1.1")
    target = net.add_host("t", "1.1.1.2")
    HealthServer(engine, target, port=50051)
    events = []
    channel = GrpcChannel(engine, ctrl, "t", "1.1.1.2", target_port=50051,
                          on_unhealthy=lambda ch: events.append("down"),
                          on_healthy=lambda ch: events.append("up"))
    channel.start()
    engine.advance(0.5)
    target.fail()
    engine.advance(2.0)
    target.recover()
    engine.advance(2.0)
    assert events == ["down", "up"]


def test_channel_stop_halts_beats(engine, net):
    ctrl = net.add_host("ctrl", "1.1.1.1")
    target = net.add_host("t", "1.1.1.2")
    server = HealthServer(engine, target, port=50051)
    channel = GrpcChannel(engine, ctrl, "t", "1.1.1.2", target_port=50051)
    channel.start()
    engine.advance(0.5)
    served = server.rpc.requests_served
    channel.stop()
    engine.advance(1.0)
    # at most one heartbeat that was already in flight may still land
    assert server.rpc.requests_served <= served + 1
    settled = server.rpc.requests_served
    engine.advance(1.0)
    assert server.rpc.requests_served == settled


def test_ipsla_prober_reports_transitions(engine, net):
    src = net.add_host("agent", "1.1.1.1")
    t1 = net.add_host("t1", "1.1.1.2")
    t2 = net.add_host("t2", "1.1.1.3")
    IpSlaResponder(engine, t1)
    IpSlaResponder(engine, t2)
    changes = []
    prober = IpSlaProber(engine, src, "agent",
                         on_change=lambda p, name, ok: changes.append((name, ok)))
    prober.add_target("t1", "1.1.1.2")
    prober.add_target("t2", "1.1.1.3")
    prober.start()
    engine.advance(1.0)
    assert prober.reachable("t1") and prober.reachable("t2")
    t1.fail()
    engine.advance(2.0)
    assert ("t1", False) in changes
    assert prober.reachable("t2")
    t1.recover()
    engine.advance(2.0)
    assert ("t1", True) in changes


def test_ipsla_prober_blind_when_own_network_down(engine, net):
    """A prober whose own NIC is down must not report targets as failed
    (it cannot observe anything) — prevents self-inflicted false alarms."""
    src = net.add_host("m1", "1.1.1.1")
    t1 = net.add_host("t1", "1.1.1.2")
    IpSlaResponder(engine, t1)
    changes = []
    prober = IpSlaProber(engine, src, "m1",
                         on_change=lambda p, name, ok: changes.append((name, ok)))
    prober.add_target("t1", "1.1.1.2")
    prober.start()
    engine.advance(1.0)
    changes.clear()
    src.fail_network()
    engine.advance(3.0)
    assert changes == []


def test_ipsla_retarget(engine, net):
    src = net.add_host("agent", "1.1.1.1")
    t1 = net.add_host("t1", "1.1.1.2")
    t2 = net.add_host("t2", "1.1.1.3")
    IpSlaResponder(engine, t1)
    IpSlaResponder(engine, t2)
    prober = IpSlaProber(engine, src, "agent")
    prober.add_target("x", "1.1.1.2")
    prober.start()
    engine.advance(0.5)
    prober.retarget("x", "1.1.1.3")
    t1.fail()
    engine.advance(2.0)
    assert prober.reachable("x") is True  # now probing t2
