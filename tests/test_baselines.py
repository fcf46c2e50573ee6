"""Baseline daemons: profiles, packing behaviour, recovery model."""


import pytest

from repro.baselines import (
    BirdDaemon,
    FrrDaemon,
    GoBgpDaemon,
    NsrEnabledRouter,
    baseline_recovery_row,
)
from repro.bgp import AsPath, PathAttributes, Prefix
from repro.bgp.messages import MAX_MESSAGE_SIZE
from repro.sim import DeterministicRandom, Engine, Network
from repro.workloads.updates import RouteGenerator
from repro.sim.rand import DeterministicRandom


@pytest.fixture
def net(engine):
    return Network(engine, DeterministicRandom(12))


def _daemon_pair(engine, net, cls):
    a = cls(engine, net, "gw", "10.0.0.1", 65001)
    b = FrrDaemon(engine, net, "peer", "10.0.0.2", 64512)
    a.connect_to(b.host)
    a.add_vrf("v1")
    b.add_vrf("v1")
    a.add_peer("10.0.0.2", 64512, vrf_name="v1", mode="passive")
    sess = b.add_peer("10.0.0.1", 65001, vrf_name="v1", mode="active")
    a.start()
    b.start()
    engine.advance(3.0)
    return a, b, sess


@pytest.mark.parametrize("cls", [FrrDaemon, GoBgpDaemon, BirdDaemon])
def test_daemons_interoperate(engine, net, cls):
    a, b, sess = _daemon_pair(engine, net, cls)
    assert sess.established
    gen = RouteGenerator(DeterministicRandom(1), 64512, next_hop="10.0.0.2")
    b.speaker.originate_many("v1", gen.routes(200))
    b.speaker.readvertise(sess)
    engine.advance(3.0)
    assert len(a.speaker.vrfs["v1"].loc_rib) == 200


def test_gobgp_has_no_update_packing(engine, net):
    gobgp = GoBgpDaemon(engine, net, "g", "10.0.0.5", 65001)
    assert gobgp.speaker.config.update_packing is False
    frr = FrrDaemon(engine, net, "f", "10.0.0.6", 65001)
    assert frr.speaker.config.update_packing is True


def test_gobgp_sends_one_update_per_route(engine, net):
    a, b, sess = _daemon_pair(engine, net, GoBgpDaemon)
    gen = RouteGenerator(DeterministicRandom(2), 65001, next_hop="10.0.0.1")
    a.speaker.originate_many("v1", gen.uniform_routes(50))
    gw_session = next(iter(a.speaker.sessions.values()))
    a.speaker.readvertise(gw_session)
    engine.advance(3.0)
    # 50 routes -> 50 separate UPDATE messages (plus OPEN/KEEPALIVE)
    assert gw_session.messages_sent >= 50 + 2


def test_frr_packs_shared_attributes(engine, net):
    a, b, sess = _daemon_pair(engine, net, FrrDaemon)
    gen = RouteGenerator(DeterministicRandom(2), 65001, next_hop="10.0.0.1")
    a.speaker.originate_many("v1", gen.uniform_routes(50))
    gw_session = next(iter(a.speaker.sessions.values()))
    messages_before = gw_session.messages_sent
    a.speaker.readvertise(gw_session)
    engine.advance(3.0)
    assert gw_session.messages_sent - messages_before <= 2  # one packed UPDATE


@pytest.mark.parametrize("cls", [FrrDaemon, GoBgpDaemon])
def test_withdrawals_reach_the_peer_in_both_families(engine, net, cls):
    """The IPv6 advertisement is recorded in the Adj-RIB-Out like the
    IPv4 one, so its withdrawal is sent too, with or without packing."""
    a, b, _sess = _daemon_pair(engine, net, cls)
    attrs = PathAttributes(as_path=AsPath.sequence(65001), next_hop="10.0.0.1")
    prefixes = [Prefix.parse("198.51.100.0/24"), Prefix.parse("2001:db8:1::/48")]
    for prefix in prefixes:
        a.speaker.originate("v1", prefix, attrs)
    engine.advance(3.0)
    peer_rib = b.speaker.vrfs["v1"].loc_rib
    assert all(peer_rib.best(prefix) is not None for prefix in prefixes)
    for prefix in prefixes:
        a.speaker.withdraw_originated("v1", prefix)
    engine.advance(3.0)
    assert [str(prefix) for prefix in prefixes
            if peer_rib.best(prefix) is not None] == []


@pytest.mark.parametrize("cls", [FrrDaemon, GoBgpDaemon])
def test_ipv6_table_is_cut_to_the_message_size_limit(engine, net, cls):
    """1,000 IPv6 /48s under one attribute set overflow one MP_REACH_NLRI:
    the readvertise cuts them into UPDATEs that each fit."""
    a, b, _sess = _daemon_pair(engine, net, cls)
    attrs = PathAttributes(as_path=AsPath.sequence(65001), next_hop="10.0.0.1")
    base = Prefix.parse("2001:db8::/32").value
    a.speaker.originate_many("v1", [
        (Prefix(base + (index << 80), 48, Prefix.AFI_IPV6), attrs)
        for index in range(1_000)])
    sizes = []
    send = a.speaker.dispatch_send

    def sizing_send(session, message, generation_cost=None):
        sizes.append(len(message.to_wire()))
        send(session, message, generation_cost)

    a.speaker.dispatch_send = sizing_send
    a.speaker.readvertise(next(iter(a.speaker.sessions.values())))
    engine.advance(3.0)
    assert len(sizes) > 1 and max(sizes) <= MAX_MESSAGE_SIZE
    assert len(b.speaker.vrfs["v1"].loc_rib) == 1_000


def test_crash_leads_to_peer_withdrawal(engine, net):
    a, b, sess = _daemon_pair(engine, net, FrrDaemon)
    gen = RouteGenerator(DeterministicRandom(3), 65001, next_hop="10.0.0.1")
    a.speaker.originate_many("v1", gen.routes(20))
    gw_session = next(iter(a.speaker.sessions.values()))
    a.speaker.readvertise(gw_session)
    engine.advance(3.0)
    learned = [r for r in b.speaker.vrfs["v1"].loc_rib.best_routes()
               if r.source_kind == "ebgp"]
    assert len(learned) == 20
    a.crash()
    engine.advance(200.0)  # hold timer expires
    assert not sess.established
    learned = [r for r in b.speaker.vrfs["v1"].loc_rib.best_routes()
               if r.source_kind == "ebgp"]
    assert learned == []  # link considered broken: all routes withdrawn


def test_profiles_have_calibrated_costs():
    from repro.sim.calibration import RECEIVE_COST_PER_UPDATE

    assert RECEIVE_COST_PER_UPDATE["frr"] < RECEIVE_COST_PER_UPDATE["bird"]
    assert RECEIVE_COST_PER_UPDATE["bird"] <= RECEIVE_COST_PER_UPDATE["gobgp"]
    assert RECEIVE_COST_PER_UPDATE["gobgp"] < RECEIVE_COST_PER_UPDATE["tensor"]


# -- recovery model (Table 1 brackets) ----------------------------------------


def test_baseline_recovery_rows_match_table1():
    app = baseline_recovery_row("application")
    assert app["total"] == pytest.approx(27.0)  # paper: ~30
    machine = baseline_recovery_row("host_machine")
    assert machine["total"] == pytest.approx(230.0)  # paper: ~240
    network = baseline_recovery_row("host_network")
    assert network["total"] == pytest.approx(25.0)  # paper: ~25


def test_baseline_container_row_is_na():
    row = baseline_recovery_row("container")
    assert row["total"] is None


def test_workload_factor_scales_bgp_recovery():
    light = baseline_recovery_row("application", workload_factor=1.0)
    heavy = baseline_recovery_row("application", workload_factor=10.0)
    assert heavy["recovery"] == 10 * light["recovery"]
    assert heavy["detection"] == light["detection"]


# -- NSR-enabled router model ---------------------------------------------------


def test_nsr_router_sla_class():
    router = NsrEnabledRouter()
    assert "Online" in router.recovery_class
    assert router.link_downtime_seconds("host_machine") == 0.0
    assert router.recovery_time_seconds("application") < 10


def test_nsr_router_costs_table2():
    router = NsrEnabledRouter()
    dev = router.development_cost()
    assert dev["labor_man_months"] == 500
    assert router.deployment_cost_usd() == 15_000
    assert router.maintenance_man_hours_per_month() == 110
