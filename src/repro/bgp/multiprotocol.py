"""Multiprotocol BGP (RFC 4760): IPv6 NLRI in MP_REACH/MP_UNREACH.

IPv4 routes travel in the classic UPDATE NLRI fields; IPv6 routes travel
inside the MP_REACH_NLRI / MP_UNREACH_NLRI path attributes.  The paper's
deployment identifies connections by "a 36B four-tuple identification
for IPv6-based TCP connection", i.e. the production peerings are v6 —
this module lets the reproduction carry v6 reachability end to end.
"""

from repro.bgp.attributes import (
    FLAG_OPTIONAL,
    TYPE_MP_REACH_NLRI,
    TYPE_MP_UNREACH_NLRI,
    _encode_attr,
)
from repro.bgp.capabilities import SAFI_UNICAST
from repro.bgp.errors import BgpError, NotificationCode, UpdateSubcode
from repro.bgp.prefixes import (
    AFI_IPV6,
    decode_nlri_block,
    encode_nlri_block,
    prefix_afi,
    prefix_text,
)


class MpReach:
    """Decoded MP_REACH_NLRI: (afi, safi, next_hop, nlri), plus the NLRI
    block's bytes as they arrived."""

    __slots__ = ("afi", "safi", "next_hop", "nlri", "nlri_wire")

    def __init__(self, afi, safi, next_hop, nlri, nlri_wire=None):
        self.afi = afi
        self.safi = safi
        self.next_hop = next_hop  # Prefix-style address value (int)
        self.nlri = tuple(nlri)
        self.nlri_wire = (encode_nlri_block(self.nlri) if nlri_wire is None
                          else nlri_wire)

    def __eq__(self, other):
        return isinstance(other, MpReach) and (
            self.afi, self.safi, self.next_hop, self.nlri
        ) == (other.afi, other.safi, other.next_hop, other.nlri)

    def __repr__(self):
        return f"<MpReach afi={self.afi} +{len(self.nlri)}>"


class MpUnreach:
    """Decoded MP_UNREACH_NLRI: (afi, safi, withdrawn), plus the
    withdrawn block's bytes as they arrived."""

    __slots__ = ("afi", "safi", "withdrawn", "withdrawn_wire")

    def __init__(self, afi, safi, withdrawn, withdrawn_wire=None):
        self.afi = afi
        self.safi = safi
        self.withdrawn = tuple(withdrawn)
        self.withdrawn_wire = (encode_nlri_block(self.withdrawn)
                               if withdrawn_wire is None else withdrawn_wire)

    def __eq__(self, other):
        return isinstance(other, MpUnreach) and (
            self.afi, self.safi, self.withdrawn
        ) == (other.afi, other.safi, other.withdrawn)

    def __repr__(self):
        return f"<MpUnreach afi={self.afi} -{len(self.withdrawn)}>"


def _v6_block(prefixes):
    prefixes = tuple(prefixes)
    for prefix in prefixes:
        if prefix_afi(prefix) != AFI_IPV6:
            raise ValueError(f"{prefix_text(prefix)} is not IPv6")
    return encode_nlri_block(prefixes)


def encode_mp_reach(next_hop_v6, nlri):
    """Encode an MP_REACH_NLRI attribute for IPv6 unicast.

    ``next_hop_v6`` is a 128-bit int (use Prefix.parse("...") .value);
    ``nlri`` is an iterable of v6 prefix keys.
    """
    body = bytearray()
    body += AFI_IPV6.to_bytes(2, "big")
    body.append(SAFI_UNICAST)
    body.append(16)  # next-hop length
    body += next_hop_v6.to_bytes(16, "big")
    body.append(0)  # reserved (SNPA count)
    body += _v6_block(nlri)
    return _encode_attr(FLAG_OPTIONAL, TYPE_MP_REACH_NLRI, bytes(body))


def encode_mp_unreach(withdrawn):
    """Encode an MP_UNREACH_NLRI attribute for IPv6 unicast."""
    body = bytearray()
    body += AFI_IPV6.to_bytes(2, "big")
    body.append(SAFI_UNICAST)
    body += _v6_block(withdrawn)
    return _encode_attr(FLAG_OPTIONAL, TYPE_MP_UNREACH_NLRI, bytes(body))


def decode_mp_reach(value):
    """Decode an MP_REACH_NLRI attribute body."""
    if len(value) < 5:
        raise BgpError(NotificationCode.UPDATE_MESSAGE_ERROR,
                       UpdateSubcode.OPTIONAL_ATTRIBUTE_ERROR,
                       message="short MP_REACH_NLRI")
    afi = int.from_bytes(value[0:2], "big")
    safi = value[2]
    nh_len = value[3]
    offset = 4
    if offset + nh_len + 1 > len(value):
        raise BgpError(NotificationCode.UPDATE_MESSAGE_ERROR,
                       UpdateSubcode.OPTIONAL_ATTRIBUTE_ERROR,
                       message="truncated MP_REACH next hop")
    next_hop = int.from_bytes(value[offset : offset + nh_len], "big")
    offset += nh_len
    offset += 1  # reserved
    return MpReach(afi, safi, next_hop, decode_nlri_block(value, afi, offset),
                   nlri_wire=value[offset:])


def decode_mp_unreach(value):
    """Decode an MP_UNREACH_NLRI attribute body."""
    if len(value) < 3:
        raise BgpError(NotificationCode.UPDATE_MESSAGE_ERROR,
                       UpdateSubcode.OPTIONAL_ATTRIBUTE_ERROR,
                       message="short MP_UNREACH_NLRI")
    afi = int.from_bytes(value[0:2], "big")
    safi = value[2]
    return MpUnreach(afi, safi, decode_nlri_block(value, afi, 3),
                     withdrawn_wire=value[3:])


def mp_routes_of(attributes):
    """Extract (MpReach|None, MpUnreach|None) from unknown-attr passthrough.

    MP attributes are optional non-transitive in the RFC; we carry them
    as optional attributes through the generic unknown tuple so the core
    attribute class stays lean.
    """
    reach = None
    unreach = None
    for _flags, attr_type, value in attributes.unknown:
        if attr_type == TYPE_MP_REACH_NLRI:
            reach = decode_mp_reach(value)
        elif attr_type == TYPE_MP_UNREACH_NLRI:
            unreach = decode_mp_unreach(value)
    return reach, unreach


def attach_mp_reach(attributes, next_hop_v6, nlri):
    """Return a copy of ``attributes`` carrying the given v6 NLRI."""
    return _attach(attributes, TYPE_MP_REACH_NLRI,
                   encode_mp_reach(next_hop_v6, nlri))


def attach_mp_unreach(attributes, withdrawn):
    """Return a copy of ``attributes`` withdrawing the given v6 prefixes."""
    return _attach(attributes, TYPE_MP_UNREACH_NLRI,
                   encode_mp_unreach(withdrawn))


def _attach(attributes, attr_type, wire):
    # strip the generic attr header: flags, type, length
    header_len = 4 if len(wire) - 3 > 255 else 3
    unknown = tuple(
        entry for entry in attributes.unknown if entry[1] != attr_type
    ) + ((FLAG_OPTIONAL, attr_type, wire[header_len:]),)
    return attributes.replace(unknown=unknown)
