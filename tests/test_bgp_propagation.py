"""Live route propagation: eBGP -> iBGP, withdrawals, policies, refresh."""


import pytest

from repro.bgp import BgpSpeaker, PeerConfig, Prefix, SpeakerConfig
from repro.bgp.messages import RouteRefreshMessage, UpdateMessage
from repro.bgp.policy import PolicyAction, PrefixList, RouteMap, RouteMapEntry
from repro.sim import DeterministicRandom, Engine, Network
from repro.tcpsim import TcpStack
from repro.workloads.updates import RouteGenerator
from repro.sim.rand import DeterministicRandom


def _mesh(engine, network, specs):
    """Build speakers {name: (speaker, host)} from {name: (addr, asn)}."""
    network.enable_fabric(latency=5e-5)
    speakers = {}
    for name, (addr, asn) in specs.items():
        host = network.add_host(name, addr)
        speakers[name] = BgpSpeaker(
            engine, TcpStack(engine, host), SpeakerConfig(name, asn, addr)
        )
        speakers[name].add_vrf("v")
    return speakers


def _connect(engine, speakers, active, passive, **kwargs):
    passive_speaker = speakers[passive]
    active_speaker = speakers[active]
    passive_speaker.add_peer(PeerConfig(
        active_speaker.stack.host.address,
        active_speaker.config.local_as, vrf_name="v", mode="passive", **kwargs))
    return active_speaker.add_peer(PeerConfig(
        passive_speaker.stack.host.address,
        passive_speaker.config.local_as, vrf_name="v", mode="active", **kwargs))


def test_ebgp_route_propagates_to_ibgp_peer(engine, network):
    """external AS -> border speaker -> iBGP neighbour."""
    speakers = _mesh(engine, network, {
        "external": ("10.0.0.1", 64512),
        "border": ("10.0.0.2", 65001),
        "internal": ("10.0.0.3", 65001),
    })
    _connect(engine, speakers, "external", "border")
    _connect(engine, speakers, "internal", "border")
    for speaker in speakers.values():
        speaker.start()
    engine.advance(3.0)
    gen = RouteGenerator(DeterministicRandom(1), 64512, next_hop="10.0.0.1")
    prefix, attrs = gen.routes(1)[0]
    speakers["external"].originate("v", prefix, attrs)
    engine.advance(3.0)
    internal_rib = speakers["internal"].vrfs["v"].loc_rib
    route = internal_rib.best(prefix)
    assert route is not None
    assert route.source_kind == "ibgp"
    # the border prepended nothing on iBGP, but external's eBGP hop added 64512
    assert 64512 in route.attributes.as_path.as_list()


def test_ibgp_split_horizon(engine, network):
    """iBGP-learned routes do not re-propagate to other iBGP peers."""
    speakers = _mesh(engine, network, {
        "rr1": ("10.0.0.1", 65001),
        "hub": ("10.0.0.2", 65001),
        "rr2": ("10.0.0.3", 65001),
    })
    _connect(engine, speakers, "rr1", "hub")
    _connect(engine, speakers, "rr2", "hub")
    for speaker in speakers.values():
        speaker.start()
    engine.advance(3.0)
    # the path must not contain AS 65001 or the hub's loop detection
    # (correctly) rejects it, so the internal route carries an external
    # origin AS
    gen = RouteGenerator(DeterministicRandom(2), 64999, next_hop="10.0.0.1")
    prefix, attrs = gen.routes(1)[0]
    speakers["rr1"].originate("v", prefix, attrs)
    engine.advance(3.0)
    assert speakers["hub"].vrfs["v"].loc_rib.best(prefix) is not None
    # split horizon: hub must NOT forward an iBGP route to rr2
    assert speakers["rr2"].vrfs["v"].loc_rib.best(prefix) is None


def test_withdrawal_propagates(engine, network):
    speakers = _mesh(engine, network, {
        "a": ("10.0.0.1", 64512),
        "b": ("10.0.0.2", 65001),
    })
    session = _connect(engine, speakers, "a", "b")
    for speaker in speakers.values():
        speaker.start()
    engine.advance(3.0)
    gen = RouteGenerator(DeterministicRandom(3), 64512, next_hop="10.0.0.1")
    prefix, attrs = gen.routes(1)[0]
    speakers["a"].originate("v", prefix, attrs)
    engine.advance(3.0)
    assert speakers["b"].vrfs["v"].loc_rib.best(prefix) is not None
    speakers["a"].withdraw_originated("v", prefix)
    engine.advance(3.0)
    assert speakers["b"].vrfs["v"].loc_rib.best(prefix) is None


def test_import_policy_filters_on_live_session(engine, network):
    speakers = _mesh(engine, network, {
        "a": ("10.0.0.1", 64512),
        "b": ("10.0.0.2", 65001),
    })
    blocked = PrefixList("blocked", [Prefix.parse("10.66.0.0/16")])
    import_policy = RouteMap("imp", [
        RouteMapEntry(permit=False, match_prefix_list=blocked),
        RouteMapEntry(permit=True),
    ])
    speakers["b"].add_peer(PeerConfig("10.0.0.1", 64512, vrf_name="v",
                                      mode="passive", import_policy=import_policy))
    session = speakers["a"].add_peer(PeerConfig("10.0.0.2", 65001, vrf_name="v",
                                                mode="active"))
    for speaker in speakers.values():
        speaker.start()
    engine.advance(3.0)
    gen = RouteGenerator(DeterministicRandom(4), 64512, next_hop="10.0.0.1")
    allowed = Prefix.parse("10.50.1.0/24")
    denied = Prefix.parse("10.66.1.0/24")
    speakers["a"].originate("v", allowed, gen.attr_pool[0])
    speakers["a"].originate("v", denied, gen.attr_pool[0])
    engine.advance(3.0)
    rib = speakers["b"].vrfs["v"].loc_rib
    assert rib.best(allowed) is not None
    assert rib.best(denied) is None


def test_export_policy_rewrites_on_live_session(engine, network):
    speakers = _mesh(engine, network, {
        "a": ("10.0.0.1", 64512),
        "b": ("10.0.0.2", 65001),
    })
    export_policy = RouteMap("exp", [
        RouteMapEntry(action=PolicyAction(prepend_as=64512, prepend_count=3,
                                          add_communities=(0xDEAD,))),
    ])
    speakers["a"].add_peer(PeerConfig("10.0.0.2", 65001, vrf_name="v",
                                      mode="active", export_policy=export_policy))
    speakers["b"].add_peer(PeerConfig("10.0.0.1", 64512, vrf_name="v",
                                      mode="passive"))
    for speaker in speakers.values():
        speaker.start()
    engine.advance(3.0)
    gen = RouteGenerator(DeterministicRandom(5), 64512, next_hop="10.0.0.1")
    prefix, attrs = gen.routes(1)[0]
    speakers["a"].originate("v", prefix, attrs)
    engine.advance(3.0)
    route = speakers["b"].vrfs["v"].loc_rib.best(prefix)
    assert route is not None
    path = route.attributes.as_path.as_list()
    # 3 policy prepends + the eBGP export prepend
    assert path.count(64512) >= 4
    assert 0xDEAD in route.attributes.communities


def test_route_refresh_readvertises(engine, network):
    speakers = _mesh(engine, network, {
        "a": ("10.0.0.1", 64512),
        "b": ("10.0.0.2", 65001),
    })
    session_a = _connect(engine, speakers, "a", "b")
    for speaker in speakers.values():
        speaker.start()
    engine.advance(3.0)
    gen = RouteGenerator(DeterministicRandom(6), 64512, next_hop="10.0.0.1")
    speakers["a"].originate_many("v", gen.routes(50))
    speakers["a"].readvertise(session_a)
    engine.advance(3.0)
    rib_b = speakers["b"].vrfs["v"].loc_rib
    assert len(rib_b) == 50
    # b wipes its table locally (simulating an operator clear) and asks
    # for a refresh
    session_b = next(iter(speakers["b"].sessions.values()))
    for prefix in list(session_b.adj_rib_in.prefixes()):
        session_b.adj_rib_in.withdraw(prefix)
        rib_b.retract(prefix, session_b.peer_id)
    assert len(rib_b) == 0
    session_b.send_message(RouteRefreshMessage())
    engine.advance(3.0)
    assert len(rib_b) == 50


def test_best_path_switchover_propagates(engine, network):
    """When the best path changes upstream, downstream peers converge."""
    speakers = _mesh(engine, network, {
        "src1": ("10.0.0.1", 64512),
        "src2": ("10.0.0.2", 64513),
        "mid": ("10.0.0.3", 65001),
        "sink": ("10.0.0.4", 64999),
    })
    _connect(engine, speakers, "src1", "mid")
    _connect(engine, speakers, "src2", "mid")
    _connect(engine, speakers, "sink", "mid")
    for speaker in speakers.values():
        speaker.start()
    engine.advance(3.0)
    gen = RouteGenerator(DeterministicRandom(7), 64512, next_hop="10.0.0.1")
    prefix = Prefix.parse("203.0.113.0/24")
    # src1 offers a long path; sink should first see it via src1
    speakers["src1"].originate("v", prefix,
                               gen.attr_pool[0].replace(as_path=gen.attr_pool[0].as_path.prepend(64512, 3)))
    engine.advance(3.0)
    sink_route = speakers["sink"].vrfs["v"].loc_rib.best(prefix)
    assert sink_route is not None
    first_path_len = sink_route.attributes.as_path.path_length()
    # src2 offers a shorter path; mid switches best and re-advertises
    speakers["src2"].originate("v", prefix, gen.attr_pool[1])
    engine.advance(3.0)
    sink_route = speakers["sink"].vrfs["v"].loc_rib.best(prefix)
    assert sink_route.attributes.as_path.path_length() < first_path_len
    assert 64513 in sink_route.attributes.as_path.as_list()


def test_withdrawals_survive_a_loop_rejected_nlri_half(engine, network):
    """One UPDATE withdraws p and announces q with the receiver's AS in
    the path: q is refused, but p is gone — from the receiver, from its
    counters, and from the peer beyond it."""
    speakers = _mesh(engine, network, {
        "a": ("10.0.0.1", 64512),
        "b": ("10.0.0.2", 65001),
        "c": ("10.0.0.3", 64513),
    })
    a_to_b = _connect(engine, speakers, "a", "b")
    _connect(engine, speakers, "c", "b")
    for speaker in speakers.values():
        speaker.start()
    engine.advance(3.0)
    gen = RouteGenerator(DeterministicRandom(8), 64512, next_hop="10.0.0.1")
    p, q = Prefix.parse("10.20.0.0/16"), Prefix.parse("10.21.0.0/16")
    speakers["a"].originate("v", p, gen.attr_pool[0])
    engine.advance(3.0)
    b_rib = speakers["b"].vrfs["v"].loc_rib
    c_rib = speakers["c"].vrfs["v"].loc_rib
    assert b_rib.best(p) is not None and c_rib.best(p) is not None

    b_from_a = speakers["b"].sessions["v:10.0.0.1"]
    received = b_from_a.updates_received
    looped = gen.attr_pool[1].replace(
        as_path=gen.attr_pool[1].as_path.prepend(65001))
    a_to_b.send_message(UpdateMessage(withdrawn=[p], attributes=looped,
                                      nlri=[q]))
    engine.advance(3.0)
    assert b_rib.best(q) is None and c_rib.best(q) is None
    assert b_rib.best(p) is None
    assert c_rib.best(p) is None
    assert b_from_a.updates_received == received + 2


# -- offer's (old, new) identity contract, end to end -------------------------
#
# A speaker propagates a change unless ``old is new``.  One UPDATE's run of
# prefixes shares one path object, so re-storing that object (a prefix
# repeated in the block) must still read as a change, exactly as a fresh
# per-route object did.


def _chain(engine, network):
    """a (AS 64512) -> b (AS 65001) -> c (AS 64513); returns the a->b
    session, b's session from a, c's session from b, and b's change log:
    ``(prefix, changed)`` per change b's sessions handed the speaker."""
    speakers = _mesh(engine, network, {
        "a": ("10.0.0.1", 64512),
        "b": ("10.0.0.2", 65001),
        "c": ("10.0.0.3", 64513),
    })
    a_to_b = _connect(engine, speakers, "a", "b")
    _connect(engine, speakers, "c", "b")
    for speaker in speakers.values():
        speaker.start()
    engine.advance(3.0)
    b = speakers["b"]
    log = []
    propagate = b.best_paths_changed

    def logged(origin_session, changes):
        log.extend((prefix, old is not new) for prefix, old, new in changes)
        propagate(origin_session, changes)

    b.best_paths_changed = logged
    return (a_to_b, b.sessions["v:10.0.0.1"],
            speakers["c"].sessions["v:10.0.0.2"], log)


def _attrs(local_pref=None):
    gen = RouteGenerator(DeterministicRandom(9), 64512, next_hop="10.0.0.1")
    return gen.attr_pool[0].replace(local_pref=local_pref)


def test_equal_reannounce_in_a_later_update_still_propagates(engine, network):
    a_to_b, _b_from_a, c_from_b, log = _chain(engine, network)
    p = Prefix.parse("10.30.0.0/16")
    for _ in range(2):
        a_to_b.send_message(UpdateMessage(attributes=_attrs(), nlri=[p]))
        engine.advance(3.0)
    assert log == [(p, True), (p, True)]
    assert c_from_b.updates_received == 2
    assert c_from_b.speaker.vrfs["v"].loc_rib.best(p) is not None


def test_prefix_repeated_in_one_nlri_block_is_two_changes(engine, network):
    a_to_b, b_from_a, c_from_b, log = _chain(engine, network)
    p, q = Prefix.parse("10.31.0.0/16"), Prefix.parse("10.32.0.0/16")
    a_to_b.send_message(UpdateMessage(attributes=_attrs(), nlri=[p, q, p]))
    engine.advance(3.0)
    assert log == [(p, True), (q, True), (p, True)]
    assert b_from_a.updates_received == 3 and len(b_from_a.adj_rib_in) == 2
    assert c_from_b.updates_received == 2  # queued per prefix: p once


def test_withdraw_then_announce_in_one_update(engine, network):
    a_to_b, b_from_a, c_from_b, log = _chain(engine, network)
    p = Prefix.parse("10.33.0.0/16")
    a_to_b.send_message(UpdateMessage(attributes=_attrs(), nlri=[p]))
    engine.advance(3.0)
    a_to_b.send_message(UpdateMessage(withdrawn=[p], attributes=_attrs(200),
                                      nlri=[p]))
    engine.advance(3.0)
    assert log == [(p, True), (p, True), (p, True)]
    assert b_from_a.adj_rib_in.get(p).attributes.local_pref == 200
    # c hears the announcement, never a withdrawal of p.
    assert c_from_b.updates_received == 2
    assert c_from_b.speaker.vrfs["v"].loc_rib.best(p) is not None
