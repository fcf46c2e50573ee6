"""Speaker behaviours: VRF isolation, graceful shutdown, MRAI batching."""


import pytest

from repro.bgp import BgpSpeaker, PeerConfig, SpeakerConfig
from repro.bgp.messages import UpdateMessage
from repro.sim import DeterministicRandom, Engine, Network
from repro.tcpsim import TcpStack
from repro.workloads.updates import RouteGenerator
from repro.sim.rand import DeterministicRandom


def _two_vrf_setup(engine, network):
    network.enable_fabric()
    gw_host = network.add_host("gw", "10.0.0.1")
    gw = BgpSpeaker(engine, TcpStack(engine, gw_host),
                    SpeakerConfig("gw", 65001, "10.0.0.1"))
    remotes = {}
    for i, vrf in enumerate(("red", "blue")):
        addr = f"10.0.0.{i + 2}"
        host = network.add_host(vrf, addr)
        remote = BgpSpeaker(engine, TcpStack(engine, host),
                            SpeakerConfig(vrf, 64512 + i, addr))
        remote.add_vrf(vrf)
        gw.add_vrf(vrf)
        gw.add_peer(PeerConfig(addr, 64512 + i, vrf_name=vrf, mode="passive"))
        remote.add_peer(PeerConfig("10.0.0.1", 65001, vrf_name=vrf, mode="active"))
        remotes[vrf] = remote
    gw.start()
    for remote in remotes.values():
        remote.start()
    engine.advance(3.0)
    return gw, remotes


def test_vrf_isolation(engine, network):
    """Routes learned in one VRF never leak into another (§3.1.2: one VRF
    per peering AS is the separation the splitting design relies on)."""
    gw, remotes = _two_vrf_setup(engine, network)
    gen = RouteGenerator(DeterministicRandom(1), 64512, next_hop="10.0.0.2")
    red_session = list(remotes["red"].sessions.values())[0]
    remotes["red"].originate_many("red", gen.routes(30))
    remotes["red"].readvertise(red_session)
    engine.advance(3.0)
    assert len(gw.vrfs["red"].loc_rib) == 30
    assert len(gw.vrfs["blue"].loc_rib) == 0
    # and the blue peer received nothing
    blue_session = list(remotes["blue"].sessions.values())[0]
    assert blue_session.updates_received == 0


def test_mrai_batches_changes_into_few_updates(engine, network):
    """Many loc-rib changes inside one MRAI window leave as packed
    UPDATEs, not one message per prefix."""
    network.enable_fabric()
    a_host = network.add_host("a", "10.0.0.1")
    b_host = network.add_host("b", "10.0.0.2")
    a = BgpSpeaker(engine, TcpStack(engine, a_host),
                   SpeakerConfig("a", 64512, "10.0.0.1"))
    b = BgpSpeaker(engine, TcpStack(engine, b_host),
                   SpeakerConfig("b", 65001, "10.0.0.2"))
    a.add_vrf("v")
    b.add_vrf("v")
    session_a = a.add_peer(PeerConfig("10.0.0.2", 65001, vrf_name="v", mode="active"))
    b.add_peer(PeerConfig("10.0.0.1", 64512, vrf_name="v", mode="passive"))
    a.start()
    b.start()
    engine.advance(3.0)
    messages_before = session_a.messages_sent
    gen = RouteGenerator(DeterministicRandom(2), 64512, next_hop="10.0.0.1")
    # 200 originations in a burst, all with pooled attributes
    for prefix, attrs in gen.uniform_routes(200):
        a.originate("v", prefix, attrs)
    engine.advance(2.0)
    b_session = list(b.sessions.values())[0]
    assert len(b.vrfs["v"].loc_rib) == 200
    # one MRAI flush, one shared attribute set -> a handful of messages
    assert session_a.messages_sent - messages_before <= 5


def test_withdrawals_batch_through_mrai(engine, network):
    network.enable_fabric()
    a_host = network.add_host("a", "10.0.0.1")
    b_host = network.add_host("b", "10.0.0.2")
    a = BgpSpeaker(engine, TcpStack(engine, a_host),
                   SpeakerConfig("a", 64512, "10.0.0.1"))
    b = BgpSpeaker(engine, TcpStack(engine, b_host),
                   SpeakerConfig("b", 65001, "10.0.0.2"))
    a.add_vrf("v")
    b.add_vrf("v")
    session_a = a.add_peer(PeerConfig("10.0.0.2", 65001, vrf_name="v", mode="active"))
    b.add_peer(PeerConfig("10.0.0.1", 64512, vrf_name="v", mode="passive"))
    a.start()
    b.start()
    engine.advance(3.0)
    gen = RouteGenerator(DeterministicRandom(3), 64512, next_hop="10.0.0.1")
    routes = gen.uniform_routes(100)
    for prefix, attrs in routes:
        a.originate("v", prefix, attrs)
    engine.advance(2.0)
    assert len(b.vrfs["v"].loc_rib) == 100
    before = session_a.messages_sent
    for prefix, _attrs in routes:
        a.withdraw_originated("v", prefix)
    engine.advance(2.0)
    assert len(b.vrfs["v"].loc_rib) == 0
    assert session_a.messages_sent - before <= 3  # packed withdrawals


def test_routes_of_one_update_share_one_peer_id(engine, network):
    """peer_id, source kind, import policy and the RIB entry points are
    resolved once per UPDATE: every route it teaches — v4 NLRI and the
    v6 reachability riding in MP_REACH — carries the same peer_id
    object, with contents exactly as a per-route resolution gave."""
    from repro.bgp import AsPath, PathAttributes, Prefix
    from repro.bgp.multiprotocol import attach_mp_reach

    network.enable_fabric()
    a_host = network.add_host("a", "10.0.0.1")
    b_host = network.add_host("b", "10.0.0.2")
    a = BgpSpeaker(engine, TcpStack(engine, a_host),
                   SpeakerConfig("a", 64512, "10.0.0.1"))
    b = BgpSpeaker(engine, TcpStack(engine, b_host),
                   SpeakerConfig("b", 65001, "10.0.0.2"))
    a.add_vrf("v")
    b.add_vrf("v")
    a.add_peer(PeerConfig("10.0.0.2", 65001, vrf_name="v", mode="active"))
    session_b = b.add_peer(
        PeerConfig("10.0.0.1", 64512, vrf_name="v", mode="passive"))
    a.start()
    b.start()
    engine.advance(3.0)
    assert session_b.established

    v4 = [Prefix.parse(f"198.51.{i}.0/24") for i in range(6)]
    v6 = [Prefix.parse("2001:db8:1::/48"), Prefix.parse("2001:db8:2::/48")]
    attrs = attach_mp_reach(
        PathAttributes(as_path=AsPath.sequence(64512), next_hop="10.0.0.1"),
        Prefix.parse("2001:db8::1/128").value, v6)
    learned_before = session_b.routes_learned
    received_before = session_b.updates_received
    session_b.handle_message(UpdateMessage(attributes=attrs, nlri=v4), 64)

    stored = list(session_b.adj_rib_in.items())
    assert [prefix for prefix, _path in stored] == v4 + v6
    paths = {id(path): path for _prefix, path in stored}
    assert len(paths) == 2  # one per run: the v4 block, the v6 block
    assert len({id(path.peer_id) for path in paths.values()}) == 1
    assert all(path.peer_id == "v:10.0.0.1" == session_b.peer_id
               and path.source_kind == "ebgp"
               and path.attributes is attrs for path in paths.values())
    loc_rib = b.vrfs["v"].loc_rib
    assert all(loc_rib.best(prefix) is path for prefix, path in stored)
    assert session_b.routes_learned - learned_before == 8
    assert session_b.updates_received - received_before == 8

    # A later UPDATE withdraws under an equal peer_id, v4 and v6 alike.
    from repro.bgp.attributes import FLAG_OPTIONAL
    from repro.bgp.multiprotocol import (TYPE_MP_UNREACH_NLRI,
                                         encode_mp_unreach)
    gone = PathAttributes(unknown=(
        (FLAG_OPTIONAL, TYPE_MP_UNREACH_NLRI, encode_mp_unreach(v6[:1])[3:]),))
    session_b.handle_message(
        UpdateMessage(withdrawn=v4[:2], attributes=gone), 64)
    assert len(session_b.adj_rib_in) == len(loc_rib) == 5
    assert session_b.updates_received - received_before == 11

    # eBGP loop detection still drops the whole message before any route.
    looped = PathAttributes(as_path=AsPath.sequence(64512, 65001),
                            next_hop="10.0.0.1")
    session_b.handle_message(
        UpdateMessage(attributes=looped, nlri=[Prefix.parse("203.0.113.0/24")]),
        64)
    assert len(session_b.adj_rib_in) == 5
