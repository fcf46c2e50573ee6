"""BGP message wire formats and the incremental stream decoder."""

import pytest
from hypothesis import given, strategies as st

from repro.bgp import (
    KeepaliveMessage,
    MessageDecoder,
    NotificationMessage,
    OpenMessage,
    PathAttributes,
    Prefix,
    RouteRefreshMessage,
    UpdateMessage,
)
from repro.bgp.attributes import AsPath
from repro.bgp.capabilities import Capabilities
from repro.bgp.errors import BgpError, NotificationCode, UpdateSubcode
from repro.bgp.messages import HEADER_SIZE, MAX_MESSAGE_SIZE, decode_message
from repro.bgp.prefixes import decode_nlri_block, encode_nlri_block

from nlri_reference import decode_block_reference


def test_keepalive_is_bare_header():
    wire = KeepaliveMessage().to_wire()
    assert len(wire) == HEADER_SIZE
    assert decode_message(wire) == KeepaliveMessage()


def test_open_roundtrip_with_capabilities():
    msg = OpenMessage(
        65001, 90, 0x0A0B0C0D,
        Capabilities(four_octet_as=65001, route_refresh=True,
                     graceful_restart_time=120),
    )
    decoded = decode_message(msg.to_wire())
    assert decoded == msg
    assert decoded.capabilities.graceful_restart_time == 120


def test_open_4_octet_asn_uses_as_trans():
    msg = OpenMessage(70000, 90, 1, Capabilities(four_octet_as=70000))
    wire = msg.to_wire()
    # 2-octet field carries AS_TRANS; decoder recovers the real ASN
    assert decode_message(wire).asn == 70000


def test_update_roundtrip():
    msg = UpdateMessage(
        withdrawn=[Prefix.parse("10.9.0.0/16")],
        attributes=PathAttributes(as_path=AsPath.sequence(65001), next_hop="1.2.3.4"),
        nlri=[Prefix.parse("10.0.0.0/8"), Prefix.parse("192.0.2.0/24")],
    )
    assert decode_message(msg.to_wire()) == msg
    assert msg.route_count() == 3


def test_pure_withdrawal_update():
    msg = UpdateMessage(withdrawn=[Prefix.parse("10.0.0.0/8")])
    decoded = decode_message(msg.to_wire())
    assert decoded.attributes is None
    assert decoded.withdrawn == msg.withdrawn


def test_update_over_4096_rejected():
    nlri = [Prefix(i << 8, 24) for i in range(2000)]
    msg = UpdateMessage(attributes=PathAttributes(next_hop="1.1.1.1"), nlri=nlri)
    with pytest.raises(BgpError):
        msg.to_wire()


def test_notification_roundtrip():
    msg = NotificationMessage(NotificationCode.CEASE, 2, b"shutdown")
    decoded = decode_message(msg.to_wire())
    assert decoded == msg


def test_route_refresh_roundtrip():
    msg = RouteRefreshMessage(afi=2, safi=1)
    assert decode_message(msg.to_wire()) == msg


def test_decoder_yields_sizes():
    decoder = MessageDecoder()
    k = KeepaliveMessage().to_wire()
    out = list(decoder.feed(k + k))
    assert [size for _m, size in out] == [HEADER_SIZE, HEADER_SIZE]
    assert decoder.bytes_consumed == 2 * HEADER_SIZE
    assert decoder.messages_decoded == 2


def test_decoder_handles_fragmentation():
    msg = UpdateMessage(
        attributes=PathAttributes(next_hop="1.2.3.4"),
        nlri=[Prefix.parse("10.0.0.0/8")],
    )
    wire = msg.to_wire()
    decoder = MessageDecoder()
    out = []
    for i in range(len(wire)):
        out.extend(decoder.feed(wire[i : i + 1]))
    assert len(out) == 1
    assert out[0][0] == msg
    assert out[0][1] == len(wire)
    assert decoder.pending_bytes == 0


def test_decoder_partial_message_buffers():
    wire = KeepaliveMessage().to_wire()
    decoder = MessageDecoder()
    assert list(decoder.feed(wire[:10])) == []
    assert decoder.pending_bytes == 10


def test_decoder_bad_marker_raises():
    decoder = MessageDecoder()
    with pytest.raises(BgpError):
        list(decoder.feed(b"\x00" * HEADER_SIZE))


def test_decoder_bad_length_raises():
    wire = bytearray(KeepaliveMessage().to_wire())
    wire[16:18] = (MAX_MESSAGE_SIZE + 1).to_bytes(2, "big")
    with pytest.raises(BgpError):
        list(MessageDecoder().feed(bytes(wire)))


def test_decoder_bad_type_raises():
    wire = bytearray(KeepaliveMessage().to_wire())
    wire[18] = 99
    with pytest.raises(BgpError):
        list(MessageDecoder().feed(bytes(wire)))


def test_decode_message_rejects_trailing_garbage():
    wire = KeepaliveMessage().to_wire()
    with pytest.raises(BgpError):
        decode_message(wire + wire)


def test_interleaved_message_types_stream():
    msgs = [
        OpenMessage(65001, 90, 7, Capabilities(four_octet_as=65001)),
        KeepaliveMessage(),
        UpdateMessage(attributes=PathAttributes(next_hop="9.9.9.9"),
                      nlri=[Prefix.parse("10.0.0.0/24")]),
        NotificationMessage(NotificationCode.CEASE, 4),
    ]
    stream = b"".join(m.to_wire() for m in msgs)
    decoded = [m for m, _s in MessageDecoder().feed(stream)]
    assert decoded == msgs


def test_capabilities_roundtrip_empty():
    caps = Capabilities(afis=((1, 1),), route_refresh=False)
    assert Capabilities.from_wire(caps.to_wire()).route_refresh is False


def test_capabilities_multiprotocol_v6():
    caps = Capabilities(afis=((1, 1), (2, 1)), four_octet_as=65001)
    decoded = Capabilities.from_wire(caps.to_wire())
    assert (2, 1) in decoded.afis


@st.composite
def update_strategy(draw):
    count = draw(st.integers(min_value=0, max_value=50))
    nlri = [Prefix((i * 7919) % (2**24) << 8, 24) for i in range(count)]
    withdrawn_count = draw(st.integers(min_value=0, max_value=20))
    withdrawn = [Prefix((i * 104729) % (2**16) << 16, 16) for i in range(withdrawn_count)]
    attrs = None
    if nlri:
        asns = draw(st.lists(st.integers(min_value=1, max_value=2**32 - 1),
                             min_size=1, max_size=5))
        attrs = PathAttributes(as_path=AsPath.sequence(*asns), next_hop="1.2.3.4")
    return UpdateMessage(withdrawn=withdrawn, attributes=attrs, nlri=nlri)


@given(msg=update_strategy())
def test_update_wire_roundtrip_property(msg):
    assert decode_message(msg.to_wire()) == msg


@given(splits=st.lists(st.integers(min_value=1, max_value=64), min_size=0, max_size=30),
       count=st.integers(min_value=1, max_value=20))
def test_decoder_arbitrary_fragmentation_property(splits, count):
    """However the byte stream is fragmented, decoding is identical."""
    msgs = [KeepaliveMessage().to_wire() for _ in range(count)]
    stream = b"".join(msgs)
    decoder = MessageDecoder()
    out = []
    offset = 0
    for split in splits:
        out.extend(decoder.feed(stream[offset : offset + split]))
        offset += split
    out.extend(decoder.feed(stream[offset:]))
    assert len(out) == count
    assert decoder.bytes_consumed == len(stream)


# ----------------------------------------------------------------------
# the NLRI block decoder against the per-prefix loop it replaced
# ----------------------------------------------------------------------

def _reference_verdict(block, afi):
    try:
        return decode_block_reference(block, afi)
    except (ValueError, IndexError):
        return None


def _block_verdict(block, afi):
    try:
        return decode_nlri_block(block, afi)
    except BgpError as error:
        assert error.code == NotificationCode.UPDATE_MESSAGE_ERROR
        assert error.subcode == UpdateSubcode.INVALID_NETWORK_FIELD
        return None


@st.composite
def nlri_blocks(draw):
    """(afi, prefixes, wire) of a well-formed block of either family."""
    afi = draw(st.sampled_from([Prefix.AFI_IPV4, Prefix.AFI_IPV6]))
    bits = 32 if afi == Prefix.AFI_IPV4 else 128
    prefixes = draw(st.lists(st.builds(
        Prefix,
        st.integers(min_value=0, max_value=2**bits - 1),
        st.integers(min_value=0, max_value=bits),
        st.just(afi)), max_size=40))
    return afi, prefixes, b"".join(prefix.to_wire() for prefix in prefixes)


@given(block=nlri_blocks())
def test_block_decoder_matches_reference_on_valid_blocks(block):
    afi, prefixes, wire = block
    decoded = decode_nlri_block(wire, afi)
    assert decoded == prefixes == decode_block_reference(wire, afi)
    assert [hash(prefix) for prefix in decoded] == [hash(p) for p in prefixes]
    assert encode_nlri_block(decoded) == wire
    # anywhere inside a larger buffer, bounded by offset and end
    framed = b"\xff\xff" + wire + b"\xff"
    assert decode_nlri_block(framed, afi, 2, 2 + len(wire)) == prefixes


@given(wire=st.binary(max_size=48),
       afi=st.sampled_from([Prefix.AFI_IPV4, Prefix.AFI_IPV6]))
def test_block_decoder_rejects_what_the_reference_rejects(wire, afi):
    assert _block_verdict(wire, afi) == _reference_verdict(wire, afi)


@given(block=nlri_blocks(), cut=st.integers(min_value=1, max_value=17),
       length=st.integers(min_value=0, max_value=255))
def test_block_decoder_rejects_damaged_blocks_like_the_reference(block, cut,
                                                                 length):
    afi, _prefixes, wire = block
    for damaged in (wire[:-cut], bytes([length]) + wire[1:],
                    wire + bytes([length])):
        assert _block_verdict(damaged, afi) == _reference_verdict(damaged, afi)


def _update_wire(body):
    return (b"\xff" * 16 + (HEADER_SIZE + len(body)).to_bytes(2, "big")
            + b"\x02" + body)


@pytest.mark.parametrize("body, subcode", [
    (b"\x00\x00\x00\x00\x21\x0a\x00\x00\x00\x00",
     UpdateSubcode.INVALID_NETWORK_FIELD),      # /33 in the NLRI
    (b"\x00\x00\x00\x00\x18\x0a\x01",
     UpdateSubcode.INVALID_NETWORK_FIELD),      # /24 with two octets
    (b"\x00\x02\x18\x0a\x00\x00",
     UpdateSubcode.INVALID_NETWORK_FIELD),      # withdrawn /24 cut by its length
    (b"\x00\x09\x18\x0a\x01\x01\x00\x00",
     UpdateSubcode.MALFORMED_ATTRIBUTE_LIST),   # withdrawn length past the body
    (b"\x00\x00\x00\x40\x40\x01\x01\x00",
     UpdateSubcode.MALFORMED_ATTRIBUTE_LIST),   # attribute length past the body
    (b"\x00\x00\x00",
     UpdateSubcode.MALFORMED_ATTRIBUTE_LIST),   # no room for the second length
])
def test_malformed_update_is_a_protocol_error_not_a_crash(body, subcode):
    with pytest.raises(BgpError) as raised:
        list(MessageDecoder().feed(_update_wire(body)))
    assert raised.value.code == NotificationCode.UPDATE_MESSAGE_ERROR
    assert raised.value.subcode == subcode


def test_update_keeps_the_blocks_that_arrived():
    msg = UpdateMessage(
        withdrawn=[Prefix.parse("10.9.0.0/16")],
        attributes=PathAttributes(next_hop="1.2.3.4"),
        nlri=[Prefix.parse("10.1.0.0/16"), Prefix.parse("10.2.3.0/24")],
    )
    decoded = decode_message(msg.to_wire())
    assert decoded.withdrawn_wire == msg.withdrawn_wire == b"\x10\x0a\x09"
    assert decoded.nlri_wire == msg.nlri_wire == b"\x10\x0a\x01\x18\x0a\x02\x03"
    assert decoded.to_wire() == msg.to_wire()
