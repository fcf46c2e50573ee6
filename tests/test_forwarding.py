"""FIB, RIB->FIB sync, data-plane forwarding, non-stop forwarding."""

import random

import pytest

from repro.bgp import LocRib, PathAttributes, Prefix
from repro.bgp.attributes import AsPath
from repro.bgp.rib import Path
from repro.forwarding import DataPlane, Fib, FibSyncer, TrafficFlow
from repro.forwarding.fib import DEFAULT_SYNC_INTERVAL
from repro.sim import Engine, Network


def _route(prefix_text, next_hop, peer="p1", lp=None):
    """``(prefix, path)`` for ``LocRib.offer``."""
    return Prefix.parse(prefix_text), Path(
        PathAttributes(as_path=AsPath.sequence(64512), next_hop=next_hop,
                       local_pref=lp),
        peer,
    )


# -- Fib ------------------------------------------------------------------------


def test_fib_longest_prefix_match():
    fib = Fib()
    fib.program(Prefix.parse("10.0.0.0/8"), "1.1.1.1")
    fib.program(Prefix.parse("10.1.0.0/16"), "2.2.2.2")
    assert fib.lookup("10.1.5.5").next_hop == "2.2.2.2"
    assert fib.lookup("10.9.0.1").next_hop == "1.1.1.1"
    assert fib.lookup("192.0.2.1") is None
    assert fib.misses == 1


def test_fib_unprogram():
    fib = Fib()
    p = Prefix.parse("10.0.0.0/8")
    fib.program(p, "1.1.1.1")
    assert p in fib
    fib.unprogram(p)
    assert p not in fib
    assert fib.lookup("10.0.0.1") is None


def test_fib_reprogram_updates_next_hop():
    fib = Fib()
    p = Prefix.parse("10.0.0.0/8")
    fib.program(p, "1.1.1.1")
    fib.program(p, "3.3.3.3")
    assert fib.lookup("10.0.0.1").next_hop == "3.3.3.3"
    assert len(fib) == 1


# -- FibSyncer --------------------------------------------------------------------


def test_syncer_programs_from_loc_rib(engine):
    rib = LocRib()
    rib.offer(*_route("10.0.0.0/8", "1.1.1.1"))
    rib.offer(*_route("192.0.2.0/24", "2.2.2.2"))
    fib = Fib()
    syncer = FibSyncer(engine, fib, lambda: rib)
    changes = syncer.sync_now()
    assert changes == 2
    assert len(fib) == 2
    assert syncer.sync_now() == 0  # converged: no further changes


def test_syncer_tracks_withdrawals_and_best_changes(engine):
    rib = LocRib()
    rib.offer(*_route("10.0.0.0/8", "1.1.1.1", peer="a", lp=100))
    fib = Fib()
    syncer = FibSyncer(engine, fib, lambda: rib)
    syncer.sync_now()
    rib.offer(*_route("10.0.0.0/8", "9.9.9.9", peer="b", lp=200))  # better path
    syncer.sync_now()
    assert fib.lookup("10.0.0.1").next_hop == "9.9.9.9"
    rib.retract(Prefix.parse("10.0.0.0/8"), "b")
    rib.retract(Prefix.parse("10.0.0.0/8"), "a")
    syncer.sync_now()
    assert len(fib) == 0


def test_syncer_holds_state_when_control_plane_down(engine):
    rib_holder = [LocRib()]
    rib_holder[0].offer(*_route("10.0.0.0/8", "1.1.1.1"))
    fib = Fib()
    syncer = FibSyncer(engine, fib, lambda: rib_holder[0])
    syncer.sync_now()
    rib_holder[0] = None  # control plane dies
    assert syncer.sync_now() == 0
    assert fib.lookup("10.0.0.1").next_hop == "1.1.1.1"  # DSR: keeps forwarding


def test_syncer_periodic(engine):
    rib = LocRib()
    fib = Fib()
    syncer = FibSyncer(engine, fib, lambda: rib)
    syncer.start()
    engine.advance(0.5 * DEFAULT_SYNC_INTERVAL)
    rib.offer(*_route("10.0.0.0/8", "1.1.1.1"))
    engine.advance(2 * DEFAULT_SYNC_INTERVAL)
    assert len(fib) == 1


# -- DataPlane / TrafficFlow -------------------------------------------------------


@pytest.fixture
def plane(engine):
    network = Network(engine)
    network.enable_fabric()
    network.add_host("nh", "1.1.1.1")
    fib = Fib()
    return engine, network, DataPlane(engine, network, fib)


def test_dataplane_forwards_with_route(plane):
    engine, network, dp = plane
    dp.fib.program(Prefix.parse("10.0.0.0/8"), "1.1.1.1")
    assert dp.forward("10.0.0.5", 1000)
    assert dp.forwarded_packets == 1


def test_dataplane_drops_without_route(plane):
    engine, network, dp = plane
    assert not dp.forward("10.0.0.5", 1000)
    assert dp.dropped_no_route == 1


def test_dataplane_drops_when_next_hop_down(plane):
    engine, network, dp = plane
    dp.fib.program(Prefix.parse("10.0.0.0/8"), "1.1.1.1")
    network.host_by_address("1.1.1.1").fail()
    assert not dp.forward("10.0.0.5", 1000)
    assert dp.dropped_next_hop_down == 1


def test_traffic_flow_accounting(plane):
    engine, network, dp = plane
    dp.fib.program(Prefix.parse("10.0.0.0/8"), "1.1.1.1")
    flow = TrafficFlow(engine, dp, "10.0.0.5", rate_pps=1000)
    flow.start()
    engine.advance(1.0)
    flow.stop()
    assert 900 <= flow.offered_packets <= 1100
    assert flow.lost_packets == 0
    assert flow.delivered_packets == flow.offered_packets


def test_traffic_flow_loss_interval_tracking(plane):
    engine, network, dp = plane
    prefix = Prefix.parse("10.0.0.0/8")
    dp.fib.program(prefix, "1.1.1.1")
    flow = TrafficFlow(engine, dp, "10.0.0.5", rate_pps=1000)
    flow.start()
    engine.advance(0.5)
    dp.fib.unprogram(prefix)  # outage begins
    engine.advance(0.25)
    dp.fib.program(prefix, "1.1.1.1", engine.now)  # restored
    engine.advance(0.5)
    flow.stop()
    assert flow.lost_packets > 0
    assert flow.delivered_packets > 0
    assert abs(flow.total_loss_time() - 0.25) < 0.05
    assert len(flow.loss_intervals) == 1


def test_nonstop_forwarding_through_nsr_migration():
    """The headline data-plane claim: traffic toward routes learned from
    the gateway keeps flowing while the gateway's BGP container migrates;
    a baseline crash of the same workload loses downtime x rate."""
    import sys
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    from conftest import build_tensor_fixture
    from repro.failures import FailureInjector

    system, pair, remotes = build_tensor_fixture(seed=300, routes=200)
    engine = system.engine
    remote, _session = remotes[0]
    # the remote AS forwards toward the 200 routes it learned from us...
    # here we model the reverse: OUR data plane forwards toward the 200
    # routes learned FROM the remote, surviving the local BGP migration
    fib = Fib("gw")
    syncer = FibSyncer(
        engine, fib,
        lambda: pair.speaker.vrfs["v0"].loc_rib if pair.speaker.running else None,
    )
    syncer.start()
    engine.advance(1.0)
    assert len(fib) == 200
    dp = DataPlane(engine, system.network, fib)
    flow = TrafficFlow(engine, dp, "10.0.0.1", rate_pps=10_000)
    flow.start()
    engine.advance(1.0)
    FailureInjector(system).inject("container", pair, {})
    engine.advance(30.0)
    flow.stop()
    assert flow.lost_packets == 0, flow.loss_intervals
    assert flow.delivered_packets > 200_000
