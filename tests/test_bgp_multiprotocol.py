"""Multiprotocol BGP: IPv6 NLRI via MP_REACH/MP_UNREACH (RFC 4760)."""

import pytest

from repro.bgp import PathAttributes, Prefix
from repro.bgp.attributes import AsPath
from repro.bgp.errors import BgpError
from repro.bgp.messages import UpdateMessage, decode_message
from repro.bgp.multiprotocol import (
    MpReach,
    MpUnreach,
    attach_mp_reach,
    decode_mp_reach,
    decode_mp_unreach,
    encode_mp_reach,
    encode_mp_unreach,
    mp_routes_of,
)
from repro.bgp.prefixes import prefix_afi

V6_NH = Prefix.parse("2001:db8::1/128").value
V6_PREFIXES = [
    Prefix.parse("2001:db8:1::/48"),
    Prefix.parse("2001:db8:2::/48"),
    Prefix.parse("2400:cb00::/32"),
]


def _strip_header(wire):
    return wire[4:] if len(wire) - 3 > 255 else wire[3:]


def test_mp_reach_roundtrip():
    wire = encode_mp_reach(V6_NH, V6_PREFIXES)
    decoded = decode_mp_reach(_strip_header(wire))
    assert decoded == MpReach(2, 1, V6_NH, V6_PREFIXES)


def test_mp_unreach_roundtrip():
    wire = encode_mp_unreach(V6_PREFIXES[:2])
    decoded = decode_mp_unreach(_strip_header(wire))
    assert decoded == MpUnreach(2, 1, V6_PREFIXES[:2])


def test_mp_reach_rejects_v4_prefixes():
    with pytest.raises(ValueError):
        encode_mp_reach(V6_NH, [Prefix.parse("10.0.0.0/8")])


def test_mp_reach_truncated_raises():
    with pytest.raises(BgpError):
        decode_mp_reach(b"\x00\x02\x01")
    with pytest.raises(BgpError):
        decode_mp_unreach(b"\x00")


def test_attach_mp_reach_travels_in_update():
    attrs = PathAttributes(as_path=AsPath.sequence(65001), next_hop="1.2.3.4")
    v6_attrs = attach_mp_reach(attrs, V6_NH, V6_PREFIXES)
    message = UpdateMessage(attributes=v6_attrs, nlri=[Prefix.parse("10.0.0.0/8")])
    decoded = decode_message(message.to_wire())
    reach, unreach = mp_routes_of(decoded.attributes)
    assert unreach is None
    assert reach.next_hop == V6_NH
    assert reach.nlri == tuple(V6_PREFIXES)
    # the v4 parts are untouched
    assert decoded.nlri == (Prefix.parse("10.0.0.0/8"),)
    assert decoded.attributes.as_path.as_list() == [65001]


def test_attach_mp_reach_replaces_existing():
    attrs = PathAttributes(next_hop="1.2.3.4")
    once = attach_mp_reach(attrs, V6_NH, V6_PREFIXES[:1])
    twice = attach_mp_reach(once, V6_NH, V6_PREFIXES[1:])
    reach, _ = mp_routes_of(twice)
    assert reach.nlri == tuple(V6_PREFIXES[1:])
    mp_entries = [e for e in twice.unknown if e[1] == 14]
    assert len(mp_entries) == 1


def test_mp_routes_of_empty():
    attrs = PathAttributes(next_hop="1.2.3.4")
    assert mp_routes_of(attrs) == (None, None)


def test_v6_routes_learnable_over_session(engine, two_hosts):
    """A v6 table carried in MP_REACH applies into a v6-keyed Loc-RIB."""
    from repro.bgp import BgpSpeaker, PeerConfig, SpeakerConfig
    from repro.bgp.rib import Path
    from repro.tcpsim import TcpStack

    a, b = two_hosts
    sa, sb = TcpStack(engine, a), TcpStack(engine, b)
    spk_a = BgpSpeaker(engine, sa, SpeakerConfig("a", 65001, "10.0.0.1"))
    spk_b = BgpSpeaker(engine, sb, SpeakerConfig("b", 64512, "10.0.0.2"))
    spk_a.add_peer(PeerConfig("10.0.0.2", 64512, mode="active"))
    sess_b = spk_b.add_peer(PeerConfig("10.0.0.1", 65001, mode="passive"))
    spk_a.start(); spk_b.start()
    engine.advance(2.0)
    assert sess_b.established
    # b originates v6 prefixes: carried in MP_REACH inside the attributes;
    # NLRI keying works because Prefix is AFI-aware
    attrs = PathAttributes(as_path=AsPath.sequence(64512), next_hop="10.0.0.2")
    v6_attrs = attach_mp_reach(attrs, V6_NH, V6_PREFIXES)
    path = Path(v6_attrs, "local:b", "local")
    for prefix in V6_PREFIXES:
        spk_b.vrfs["default"].loc_rib.offer(prefix, path)
    spk_b.readvertise(sess_b)
    engine.advance(2.0)
    learned = [r for r in spk_a.vrfs["default"].loc_rib.best_routes()
               if prefix_afi(r.prefix) == Prefix.AFI_IPV6]
    assert len(learned) == 3
    reach, _ = mp_routes_of(learned[0].attributes)
    # eBGP next-hop-self: the advertising speaker rewrote the MP next hop
    # to its own (v4-mapped) address
    from repro.bgp.attributes import ipv4_to_int
    assert reach is not None
    assert reach.next_hop == (0xFFFF << 32) | ipv4_to_int("10.0.0.2")
