"""Unit tests for the datagram/RPC layer."""

import pytest

from repro.sim import Engine, Network
from repro.sim.engine import SimulationError
from repro.sim.rpc import DatagramSocket, RefusalResponder, RpcClient, RpcServer


def answer(fn):
    """A handler that replies at once with ``fn(method, body)``."""
    return lambda method, body, respond: respond(fn(method, body))


@pytest.fixture
def net(engine):
    network = Network(engine)
    network.enable_fabric()
    return network


@pytest.fixture
def hosts(net):
    return net.add_host("a", "1.1.1.1"), net.add_host("b", "1.1.1.2")


def test_datagram_roundtrip(engine, hosts):
    a, b = hosts
    sock_b = DatagramSocket(b, 9000)
    got = []
    sock_b.on_receive = lambda packet: got.append((packet.src, packet.payload))
    sock_a = DatagramSocket(a, 9001)
    sock_a.sendto("1.1.1.2", 9000, {"hello": 1})
    engine.run_until_idle()
    assert got == [("1.1.1.1", {"hello": 1})]


def test_datagram_src_override(engine, hosts):
    a, b = hosts
    sock_b = DatagramSocket(b, 9000)
    got = []
    sock_b.on_receive = lambda packet: got.append(packet.src)
    DatagramSocket(a, 9001).sendto("1.1.1.2", 9000, "x", src_override="9.9.9.9")
    engine.run_until_idle()
    assert got == ["9.9.9.9"]


def test_closed_socket_rejects_send(engine, hosts):
    a, _b = hosts
    sock = DatagramSocket(a, 9001)
    sock.close()
    with pytest.raises(Exception):
        sock.sendto("1.1.1.2", 9000, "x")


def test_rpc_reply(engine, hosts):
    a, b = hosts
    RpcServer(engine, b, 7000,
              answer(lambda method, body: {"method": method, "x": body["x"] + 1}))
    client = RpcClient(engine, a, "1.1.1.2", 7000)
    got = []
    client.call("inc", {"x": 1}, on_reply=got.append)
    engine.run_until_idle()
    assert got == [{"method": "inc", "x": 2}]
    assert client.replies == 1


def test_rpc_service_time_delays_reply(engine, hosts):
    a, b = hosts
    RpcServer(engine, b, 7000, answer(lambda m, body: {}), service_time=lambda m, b_: 0.05)
    client = RpcClient(engine, a, "1.1.1.2", 7000)
    times = []
    client.call("op", {}, on_reply=lambda rep: times.append(engine.now))
    engine.run_until_idle()
    assert times[0] >= 0.05


def test_rpc_timeout_on_dead_server(engine, hosts):
    a, b = hosts
    RpcServer(engine, b, 7000, answer(lambda m, body: {}))
    b.fail()
    client = RpcClient(engine, a, "1.1.1.2", 7000)
    outcomes = []
    client.call(
        "op", {}, on_reply=lambda rep: outcomes.append("reply"),
        on_timeout=lambda: outcomes.append("timeout"), timeout=0.2,
    )
    engine.run_until_idle()
    assert outcomes == ["timeout"]
    assert client.timeouts == 1


def test_rpc_late_reply_after_timeout_dropped(engine, hosts):
    a, b = hosts
    RpcServer(engine, b, 7000, answer(lambda m, body: {}), service_time=lambda m, b_: 1.0)
    client = RpcClient(engine, a, "1.1.1.2", 7000)
    outcomes = []
    client.call(
        "op", {}, on_reply=lambda rep: outcomes.append("reply"),
        on_timeout=lambda: outcomes.append("timeout"), timeout=0.2,
    )
    engine.run_until_idle()
    assert outcomes == ["timeout"]  # the 1 s reply arrives but is dropped


def test_rpc_concurrent_requests_matched_by_id(engine, hosts):
    a, b = hosts
    RpcServer(engine, b, 7000, answer(lambda m, body: {"id": body["id"]}))
    client = RpcClient(engine, a, "1.1.1.2", 7000)
    got = []
    for i in range(5):
        client.call("op", {"id": i}, on_reply=lambda rep: got.append(rep["id"]))
    engine.run_until_idle()
    assert sorted(got) == [0, 1, 2, 3, 4]


def test_rpc_cancel_all(engine, hosts):
    a, b = hosts
    RpcServer(engine, b, 7000, answer(lambda m, body: {}), service_time=lambda m, b_: 0.5)
    client = RpcClient(engine, a, "1.1.1.2", 7000)
    outcomes = []
    client.call("op", {}, on_reply=lambda rep: outcomes.append("reply"),
                on_timeout=lambda: outcomes.append("timeout"))
    client.cancel_all()
    engine.run_until_idle()
    assert outcomes == []


def test_async_rpc_server_deferred_reply(engine, hosts):
    a, b = hosts

    def handler(method, body, respond):
        engine.schedule(0.3, respond, {"deferred": True})

    RpcServer(engine, b, 7000, handler)
    client = RpcClient(engine, a, "1.1.1.2", 7000)
    times = []
    client.call("op", {}, on_reply=lambda rep: times.append((engine.now, rep)))
    engine.run_until_idle()
    assert times and times[0][0] >= 0.3
    assert times[0][1]["deferred"] is True


def test_rpc_handler_runs_in_the_delivering_event_or_after_service_time(
        engine, hosts):
    a, b = hosts
    ran = []

    def handler(method, body, respond):
        ran.append(engine.now)
        respond({})

    RpcServer(engine, b, 7000, handler)
    RpcServer(engine, b, 7001, handler, service_time=lambda m, body: 0.25)
    # no service time: one event per direction, the handler inside the
    # request's delivery
    client = RpcClient(engine, a, "1.1.1.2", 7000)
    client.call("op", {}, on_reply=lambda rep: None)
    assert engine.run_until_idle() == 2
    # a service time: the handler on an event of its own, that much later
    sent = engine.now
    served = RpcClient(engine, a, "1.1.1.2", 7001)
    served.call("op", {}, on_reply=lambda rep: None)
    assert engine.run_until_idle() == 3
    one_way = ran[0]
    assert ran[1] == pytest.approx(sent + one_way + 0.25)


def test_rpc_across_partition_times_out(engine, net):
    a = net.add_host("a", "1.1.1.1")
    b = net.add_host("b", "1.1.1.2")
    RpcServer(engine, b, 7000, answer(lambda m, body: {}))
    b.fail_network()
    client = RpcClient(engine, a, "1.1.1.2", 7000)
    outcomes = []
    client.call("op", {}, on_reply=lambda r: outcomes.append("reply"),
                on_timeout=lambda: outcomes.append("timeout"), timeout=0.2)
    engine.run_until_idle()
    assert outcomes == ["timeout"]


def test_call_on_closed_client_raises_and_leaves_nothing_behind(engine, hosts):
    a, b = hosts
    RpcServer(engine, b, 7000, answer(lambda m, body: {}))
    client = RpcClient(engine, a, "1.1.1.2", 7000)
    client.close()
    outcomes = []
    with pytest.raises(SimulationError):
        client.call("op", {}, on_reply=lambda rep: outcomes.append("reply"),
                    on_timeout=lambda: outcomes.append("timeout"),
                    timeout=1.0)
    # no timer was armed for the refused call: nothing fires later
    assert engine.pending() == 0
    engine.run(until=5.0)
    assert outcomes == []
    assert (client.replies, client.timeouts, client.refusals) == (0, 0, 0)


def test_refusal_responder_answers_an_unbound_port(engine, hosts):
    a, b = hosts
    responder = RefusalResponder(engine, b)
    client = RpcClient(engine, a, "1.1.1.2", 7000)  # nothing serves 7000
    outcomes = []
    client.call("op", {}, on_reply=lambda rep: outcomes.append("reply"),
                on_timeout=lambda: outcomes.append("timeout"),
                on_refused=lambda: outcomes.append(("refused", engine.now)),
                timeout=1.0)
    engine.run_until_idle()
    # refused after one round trip, long before the timeout
    assert [o[0] for o in outcomes] == ["refused"]
    assert outcomes[0][1] < 0.01
    assert responder.refusals == 1
    assert (client.replies, client.timeouts, client.refusals) == (0, 0, 1)


def test_refusal_falls_back_to_on_timeout(engine, hosts):
    a, b = hosts
    RefusalResponder(engine, b)
    client = RpcClient(engine, a, "1.1.1.2", 7000)
    outcomes = []
    client.call("op", {}, on_reply=lambda rep: outcomes.append("reply"),
                on_timeout=lambda: outcomes.append(("timeout", engine.now)),
                timeout=1.0)
    engine.run_until_idle()
    assert [o[0] for o in outcomes] == ["timeout"]
    assert outcomes[0][1] < 0.01  # the refusal, not the timer
    assert (client.timeouts, client.refusals) == (0, 1)


def test_retarget_fails_in_flight_requests_at_once(engine, hosts):
    a, b = hosts
    RpcServer(engine, b, 7000, answer(lambda m, body: {}),
              service_time=lambda m, body: 0.5)
    client = RpcClient(engine, a, "1.1.1.2", 7000)
    outcomes = []
    client.call("op", {}, on_reply=lambda rep: outcomes.append("reply"),
                on_refused=lambda: outcomes.append(("refused", engine.now)))
    client.call("op", {}, on_reply=lambda rep: outcomes.append("reply"),
                on_timeout=lambda: outcomes.append(("timeout", engine.now)))
    engine.run(until=0.1)
    client.retarget("1.1.1.1")
    # both fail now, through refused or its timeout fallback
    assert outcomes == [("refused", 0.1), ("timeout", 0.1)]
    assert client.refusals == 2
    # the old server's late replies and the cancelled timers change nothing
    engine.run_until_idle()
    assert len(outcomes) == 2
    assert (client.replies, client.timeouts) == (0, 0)
