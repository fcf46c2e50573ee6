"""Baseline daemons: profiles, packing behaviour, recovery model.

A baseline daemon is the repository's own speaker on a plain host under
one implementation's processing profile, the way the Fig. 6(c) bench
builds it.
"""


import pytest

from repro.baselines import NsrEnabledRouter, baseline_recovery_row
from repro.bgp import AsPath, PathAttributes, PeerConfig, Prefix, SpeakerConfig
from repro.bgp.messages import MAX_MESSAGE_SIZE
from repro.bgp.speaker import BgpSpeaker
from repro.sim import DeterministicRandom, Network
from repro.tcpsim import TcpStack
from repro.workloads.updates import RouteGenerator

#: The open-source daemons of Fig. 6, by the profile their speaker runs.
DAEMONS = {"FrrDaemon": "frr", "GoBgpDaemon": "gobgp", "BirdDaemon": "bird"}


@pytest.fixture
def net(engine):
    return Network(engine)


def _daemon(engine, net, name, address, local_as, profile):
    """``(host, speaker)`` of one plain-host daemon with VRF v1."""
    host = net.add_host(name, address)
    speaker = BgpSpeaker(engine, TcpStack(engine, host),
                         SpeakerConfig(name, local_as, address, profile=profile))
    speaker.add_vrf("v1")
    return host, speaker


def _daemon_pair(engine, net, profile):
    a_host, a = _daemon(engine, net, "gw", "10.0.0.1", 65001, profile)
    b_host, b = _daemon(engine, net, "peer", "10.0.0.2", 64512, "frr")
    net.connect(a_host, b_host)
    a.add_peer(PeerConfig("10.0.0.2", 64512, vrf_name="v1", mode="passive"))
    sess = b.add_peer(PeerConfig("10.0.0.1", 65001, vrf_name="v1", mode="active"))
    a.start()
    b.start()
    engine.advance(3.0)
    return a, b, sess


@pytest.mark.parametrize("daemon", ["FrrDaemon", "GoBgpDaemon", "BirdDaemon"])
def test_daemons_interoperate(engine, net, daemon):
    a, b, sess = _daemon_pair(engine, net, DAEMONS[daemon])
    assert sess.established
    gen = RouteGenerator(DeterministicRandom(1), 64512, next_hop="10.0.0.2")
    b.originate_many("v1", gen.routes(200))
    b.readvertise(sess)
    engine.advance(3.0)
    assert len(a.vrfs["v1"].loc_rib) == 200


def test_gobgp_has_no_update_packing(engine, net):
    _, gobgp = _daemon(engine, net, "g", "10.0.0.5", 65001, "gobgp")
    assert gobgp.config.update_packing is False
    _, frr = _daemon(engine, net, "f", "10.0.0.6", 65001, "frr")
    assert frr.config.update_packing is True


def test_gobgp_sends_one_update_per_route(engine, net):
    a, b, sess = _daemon_pair(engine, net, "gobgp")
    gen = RouteGenerator(DeterministicRandom(2), 65001, next_hop="10.0.0.1")
    a.originate_many("v1", gen.uniform_routes(50))
    gw_session = next(iter(a.sessions.values()))
    a.readvertise(gw_session)
    engine.advance(3.0)
    # 50 routes -> 50 separate UPDATE messages (plus OPEN/KEEPALIVE)
    assert gw_session.messages_sent >= 50 + 2


def test_frr_packs_shared_attributes(engine, net):
    a, b, sess = _daemon_pair(engine, net, "frr")
    gen = RouteGenerator(DeterministicRandom(2), 65001, next_hop="10.0.0.1")
    a.originate_many("v1", gen.uniform_routes(50))
    gw_session = next(iter(a.sessions.values()))
    messages_before = gw_session.messages_sent
    a.readvertise(gw_session)
    engine.advance(3.0)
    assert gw_session.messages_sent - messages_before <= 2  # one packed UPDATE


@pytest.mark.parametrize("daemon", ["FrrDaemon", "GoBgpDaemon"])
def test_withdrawals_reach_the_peer_in_both_families(engine, net, daemon):
    """The IPv6 advertisement is recorded in the Adj-RIB-Out like the
    IPv4 one, so its withdrawal is sent too, with or without packing."""
    a, b, _sess = _daemon_pair(engine, net, DAEMONS[daemon])
    attrs = PathAttributes(as_path=AsPath.sequence(65001), next_hop="10.0.0.1")
    prefixes = [Prefix.parse("198.51.100.0/24"), Prefix.parse("2001:db8:1::/48")]
    for prefix in prefixes:
        a.originate("v1", prefix, attrs)
    engine.advance(3.0)
    peer_rib = b.vrfs["v1"].loc_rib
    assert all(peer_rib.best(prefix) is not None for prefix in prefixes)
    for prefix in prefixes:
        a.withdraw_originated("v1", prefix)
    engine.advance(3.0)
    assert [str(prefix) for prefix in prefixes
            if peer_rib.best(prefix) is not None] == []


@pytest.mark.parametrize("daemon", ["FrrDaemon", "GoBgpDaemon"])
def test_ipv6_table_is_cut_to_the_message_size_limit(engine, net, daemon):
    """1,000 IPv6 /48s under one attribute set overflow one MP_REACH_NLRI:
    the readvertise cuts them into UPDATEs that each fit."""
    a, b, _sess = _daemon_pair(engine, net, DAEMONS[daemon])
    attrs = PathAttributes(as_path=AsPath.sequence(65001), next_hop="10.0.0.1")
    base = Prefix.parse("2001:db8::/32").value
    a.originate_many("v1", [
        (Prefix(base + (index << 80), 48, Prefix.AFI_IPV6), attrs)
        for index in range(1_000)])
    sizes = []
    send = a.dispatch_send

    def sizing_send(session, message, generation_cost=None):
        sizes.append(len(message.to_wire()))
        send(session, message, generation_cost)

    a.dispatch_send = sizing_send
    a.readvertise(next(iter(a.sessions.values())))
    engine.advance(3.0)
    assert len(sizes) > 1 and max(sizes) <= MAX_MESSAGE_SIZE
    assert len(b.vrfs["v1"].loc_rib) == 1_000


def test_crash_leads_to_peer_withdrawal(engine, net):
    a, b, sess = _daemon_pair(engine, net, "frr")
    gen = RouteGenerator(DeterministicRandom(3), 65001, next_hop="10.0.0.1")
    a.originate_many("v1", gen.routes(20))
    gw_session = next(iter(a.sessions.values()))
    a.readvertise(gw_session)
    engine.advance(3.0)
    learned = [r for r in b.vrfs["v1"].loc_rib.best_routes()
               if r.source_kind == "ebgp"]
    assert len(learned) == 20
    a.crash()
    a.stack.destroy()
    engine.advance(200.0)  # hold timer expires
    assert not sess.established
    learned = [r for r in b.vrfs["v1"].loc_rib.best_routes()
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


# -- NSR-enabled router model ---------------------------------------------------


def test_nsr_router_sla_class():
    router = NsrEnabledRouter()
    assert "Online" in router.recovery_class


def test_nsr_router_costs_table2():
    router = NsrEnabledRouter()
    dev = router.development_cost()
    assert dev["labor_man_months"] == 500
    assert router.deployment_cost_usd() == 15_000
    assert router.maintenance_man_hours_per_month() == 110
