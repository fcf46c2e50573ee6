"""Unit tests for the network fabric: delivery, loss, failures, anchors."""

import pytest

from repro.containers import HostMachine, Underlay
from repro.sim import Engine, Network, Packet
from repro.sim.engine import SimulationError


def _packet(src, dst, size=100, payload="p"):
    return Packet(src, dst, "udp", 1000, 2000, payload, size)


@pytest.fixture
def net(engine):
    return Network(engine)


def test_delivery_over_link(engine, net):
    a = net.add_host("a", "1.1.1.1")
    b = net.add_host("b", "1.1.1.2")
    net.connect(a, b, latency=1e-3, bandwidth=1e9)
    got = []
    b.bind("udp", 2000, got.append)
    a.send(_packet("1.1.1.1", "1.1.1.2"))
    engine.run_until_idle()
    assert len(got) == 1
    assert engine.now >= 1e-3


def test_duplicate_address_rejected(net):
    net.add_host("a", "1.1.1.1")
    with pytest.raises(SimulationError):
        net.add_host("b", "1.1.1.1")


def test_replace_address_rebinds(engine, net):
    a = net.add_host("a", "1.1.1.1")
    old = net.add_host("svc", "9.9.9.9")
    new = net.add_host("svc2", "9.9.9.9", replace=True)
    assert net.host_by_address("9.9.9.9") is new


def test_unbound_port_drops_packet(engine, net):
    a = net.add_host("a", "1.1.1.1")
    b = net.add_host("b", "1.1.1.2")
    net.connect(a, b)
    a.send(_packet("1.1.1.1", "1.1.1.2"))
    engine.run_until_idle()
    assert b.dropped_unbound == 1


def test_unknown_destination_dropped(engine, net):
    a = net.add_host("a", "1.1.1.1")
    net.enable_fabric()
    assert a.send(_packet("1.1.1.1", "8.8.8.8")) is True  # sent, then dropped
    assert net.packets_dropped == 1


def test_no_path_raises_without_fabric(engine, net):
    a = net.add_host("a", "1.1.1.1")
    b = net.add_host("b", "1.1.1.2")
    with pytest.raises(SimulationError):
        a.send(_packet("1.1.1.1", "1.1.1.2"))


def test_fabric_fallback_delivers(engine, net):
    net.enable_fabric()
    a = net.add_host("a", "1.1.1.1")
    b = net.add_host("b", "1.1.1.2")
    got = []
    b.bind("udp", 2000, got.append)
    a.send(_packet("1.1.1.1", "1.1.1.2"))
    engine.run_until_idle()
    assert got


def test_link_down_drops(engine, net):
    a = net.add_host("a", "1.1.1.1")
    b = net.add_host("b", "1.1.1.2")
    link = net.connect(a, b)
    link.fail()
    got = []
    b.bind("udp", 2000, got.append)
    a.send(_packet("1.1.1.1", "1.1.1.2"))
    engine.run_until_idle()
    assert not got
    link.up = True  # repaired
    a.send(_packet("1.1.1.1", "1.1.1.2"))
    engine.run_until_idle()
    assert got


def test_dead_host_cannot_send(engine, net):
    a = net.add_host("a", "1.1.1.1")
    b = net.add_host("b", "1.1.1.2")
    net.connect(a, b)
    a.fail()
    assert a.send(_packet("1.1.1.1", "1.1.1.2")) is False


def test_dead_host_does_not_receive(engine, net):
    a = net.add_host("a", "1.1.1.1")
    b = net.add_host("b", "1.1.1.2")
    net.connect(a, b)
    got = []
    b.bind("udp", 2000, got.append)
    b.fail()
    a.send(_packet("1.1.1.1", "1.1.1.2"))
    engine.run_until_idle()
    assert not got


def test_nic_failure_blocks_but_host_up(engine, net):
    a = net.add_host("a", "1.1.1.1")
    a.fail_network()
    assert a.up and not a.reachable()
    a.recover_network()
    assert a.reachable()


def test_anchored_endpoint_traverses_parent(engine, net):
    machine = net.add_host("m", "1.1.1.1")
    container = net.add_host("c", "1.1.1.100", anchor=machine)
    peer = net.add_host("p", "1.1.1.2")
    net.connect(machine, peer)
    got = []
    peer.bind("udp", 2000, got.append)
    container.send(_packet("1.1.1.100", "1.1.1.2"))
    engine.run_until_idle()
    assert got


def test_anchored_endpoint_unreachable_when_parent_down(engine, net):
    machine = net.add_host("m", "1.1.1.1")
    container = net.add_host("c", "1.1.1.100", anchor=machine)
    machine.fail()
    assert not container.reachable()


def test_anchored_endpoint_unreachable_when_parent_nic_down(engine, net):
    machine = net.add_host("m", "1.1.1.1")
    container = net.add_host("c", "1.1.1.100", anchor=machine)
    machine.fail_network()
    assert not container.reachable()
    assert container.up


def test_serialization_delay_caps_throughput(engine, net):
    # 1 Mbps link: a 1250-byte packet takes 10 ms to serialize; ten
    # packets queue behind each other.
    a = net.add_host("a", "1.1.1.1")
    b = net.add_host("b", "1.1.1.2")
    net.connect(a, b, latency=0.0, bandwidth=1e6)
    times = []
    b.bind("udp", 2000, lambda p: times.append(engine.now))
    for _ in range(10):
        a.send(_packet("1.1.1.1", "1.1.1.2", size=1250))
    engine.run_until_idle()
    assert len(times) == 10
    assert abs(times[-1] - 0.1) < 1e-6  # 10 x 10 ms


def test_local_delivery_between_same_anchor(engine, net):
    machine = net.add_host("m", "1.1.1.1")
    c1 = net.add_host("c1", "1.1.1.100", anchor=machine)
    c2 = net.add_host("c2", "1.1.1.101", anchor=machine)
    got = []
    c2.bind("udp", 2000, got.append)
    c1.send(_packet("1.1.1.100", "1.1.1.101"))
    engine.run_until_idle()
    assert got
    assert engine.now == Network.LOCAL_LATENCY


def test_tap_observes_all_packets(engine, net):
    a = net.add_host("a", "1.1.1.1")
    b = net.add_host("b", "1.1.1.2")
    net.connect(a, b)
    seen = []
    net.tap(lambda packet, delivered: seen.append((packet.dst, delivered)))
    a.send(_packet("1.1.1.1", "1.1.1.2"))
    a.send(_packet("1.1.1.1", "5.5.5.5"))
    engine.run_until_idle()
    assert seen == [("1.1.1.2", True), ("5.5.5.5", False)]


def test_link_statistics(engine, net):
    a = net.add_host("a", "1.1.1.1")
    b = net.add_host("b", "1.1.1.2")
    link = net.connect(a, b)
    b.bind("udp", 2000, lambda p: None)
    a.send(_packet("1.1.1.1", "1.1.1.2", size=500))
    engine.run_until_idle()
    assert link.packets_carried == 1
    assert link.bytes_carried == 500


# -- the registry has one door ------------------------------------------------


def _moved_service(engine, net):
    """A service address claimed on gw-1 and then moved to gw-2, with one
    packet already sent to it from ``client`` (so its path is resolved)."""
    net.enable_fabric()
    first = HostMachine(engine, net, "gw-1", "10.1.0.1")
    second = HostMachine(engine, net, "gw-2", "10.2.0.1")
    client = net.add_host("client", "10.3.0.1")
    underlay = Underlay(net)
    old = underlay.claim("10.99.0.1", first, first.create_container("a"), "v1")
    new = underlay.claim("10.99.0.1", second, second.create_container("b"), "v1")
    got = []
    old.endpoint.bind("udp", 2000, lambda p: got.append("old"))
    new.endpoint.bind("udp", 2000, lambda p: got.append("new"))
    client.send(_packet("10.3.0.1", "10.99.0.1"))
    engine.run_until_idle()
    assert got == ["new"]
    return underlay, client, old, new, got


def test_remove_host_of_a_moved_address_leaves_the_new_owner(engine, net):
    """``remove_host(host)`` used to pop whatever owned ``host.address``:
    after a migration that is the new active endpoint."""
    _underlay, client, old, new, got = _moved_service(engine, net)
    net.remove_host(old.endpoint)
    assert net.host_by_address("10.99.0.1") is new.endpoint
    client.send(_packet("10.3.0.1", "10.99.0.1"))
    engine.run_until_idle()
    assert got == ["new", "new"]


def test_release_after_a_move_drops_the_next_packet(engine, net):
    """Releasing a moved address goes through ``remove_host``, so a
    path resolved before the release cannot outlive it."""
    _underlay, client, _old, new, got = _moved_service(engine, net)
    net.remove_host(new.endpoint)
    assert net.host_by_address("10.99.0.1") is None
    dropped = net.packets_dropped
    client.send(_packet("10.3.0.1", "10.99.0.1"))  # resolved path, now stale
    fresh = net.add_host("fresh", "10.4.0.1")
    fresh.send(_packet("10.4.0.1", "10.99.0.1"))  # no path resolved yet
    engine.run_until_idle()
    assert got == ["new"]
    assert net.packets_dropped == dropped + 2
    assert new.endpoint.rx_packets == 1


def test_unreachable_and_pathless_destination_is_a_silent_drop(engine, net):
    a = net.add_host("a", "1.1.1.1")
    b = net.add_host("b", "1.1.1.2")
    b.fail()
    assert a.send(_packet("1.1.1.1", "1.1.1.2")) is True  # no link, no fabric
    assert net.packets_dropped == 1
    b.recover()
    with pytest.raises(SimulationError):
        a.send(_packet("1.1.1.1", "1.1.1.2"))


def test_direct_state_poke_is_seen_by_a_resolved_path(engine, net):
    a = net.add_host("a", "1.1.1.1")
    machine = net.add_host("m", "1.1.1.2")
    b = net.add_host("b", "1.1.1.3", anchor=machine)
    net.connect(a, machine)
    got = []
    b.bind("udp", 2000, got.append)
    a.send(_packet("1.1.1.1", "1.1.1.3"))
    machine.network_up = False  # no lever called: state is read per packet
    a.send(_packet("1.1.1.1", "1.1.1.3"))
    machine.network_up = True
    b.up = False
    a.send(_packet("1.1.1.1", "1.1.1.3"))
    b.up = True
    a.send(_packet("1.1.1.1", "1.1.1.3"))
    engine.run_until_idle()
    assert len(got) == 2 and net.packets_dropped == 2
