"""The per-route code the batched UPDATE path replaced, kept as the
reference the differential tests compare it with.

- :func:`prefix_from_wire` / :func:`decode_block_reference`: the
  ``Prefix.from_wire`` loop that ``UpdateMessage.from_body`` and the
  MP_REACH/MP_UNREACH decoders ran before
  :func:`repro.bgp.prefixes.decode_nlri_block`.
- :func:`decode_block`: that function's own per-prefix loop as it was
  before the fixed-width kernel, raising the same ``BgpError`` (code,
  subcode, message) on a bad length octet or a truncated tail.
- :func:`nlri_wires` / :func:`cuts` / :func:`pack_group` /
  :func:`pack_withdrawals`: the per-prefix encoder and the greedy
  budget cut the advertise stage ran before the fixed-width kernel
  (:func:`repro.bgp.prefixes.fixed_width_block`); every UPDATE they
  build is the one the kernel must build, byte for byte.
- :func:`per_route_delta`: the RIB delta builder that probed the
  Adj-RIB-In once per NLRI prefix after the apply step (IPv4 fields
  only — it never saw MP_REACH routes, which is the bug the run-based
  delta fixed), and :func:`delta_routes`, which flattens a stored
  run-based delta to the same per-route shape.
"""

from repro.bgp.errors import BgpError, NotificationCode, UpdateSubcode
from repro.bgp.messages import HEADER_SIZE, MAX_MESSAGE_SIZE, UpdateMessage
from repro.bgp.multiprotocol import attach_mp_unreach
from repro.bgp.packing import _BARE_ATTRIBUTES, _MP_UNREACH_OVERHEAD
from repro.bgp.prefixes import (
    AFI_IPV4,
    AFI_IPV6,
    Prefix,
    decode_nlri_block,
    prefix_afi,
    prefix_fields,
    prefix_text,
)
from repro.core.replication import delta_runs


def prefix_from_wire(data, offset, afi=Prefix.AFI_IPV4):
    """Decode one wire prefix; returns (prefix, new_offset)."""
    length = data[offset]
    offset += 1
    octets = (length + 7) // 8
    bits = 32 if afi == Prefix.AFI_IPV4 else 128
    if length > bits:
        raise ValueError(f"prefix length {length} exceeds AFI width {bits}")
    raw = bytes(data[offset : offset + octets])
    if len(raw) < octets:
        raise ValueError("truncated prefix")
    value = int.from_bytes(raw + b"\x00" * (bits // 8 - octets), "big")
    return Prefix(value, length, afi), offset + octets


def decode_block_reference(data, afi=Prefix.AFI_IPV4):
    """Every prefix of ``data``, one ``prefix_from_wire`` at a time.
    Raises ValueError or IndexError on a malformed block."""
    prefixes = []
    offset = 0
    while offset < len(data):
        prefix, offset = prefix_from_wire(data, offset, afi)
        prefixes.append(prefix)
    return prefixes


def decode_block(data, afi=AFI_IPV4, offset=0, end=None):
    """The keys of the wire prefixes in ``data[offset:end]``, one
    prefix at a time."""
    if end is None:
        end = len(data)
    bits = 32 if afi == AFI_IPV4 else 128
    prefixes = []
    while offset < end:
        length = data[offset]
        if length > bits:
            raise _invalid_network_field(
                f"prefix length {length} exceeds AFI width {bits}")
        octets = (length + 7) // 8
        offset += 1
        stop = offset + octets
        if stop > end:
            raise _invalid_network_field("truncated prefix")
        value = int.from_bytes(data[offset:stop], "big") << (bits - 8 * octets)
        prefixes.append((afi - 1) << 136
                        | value >> (bits - length) << (bits - length) << 8
                        | length)
        offset = stop
    return prefixes


def _invalid_network_field(message):
    return BgpError(NotificationCode.UPDATE_MESSAGE_ERROR,
                    UpdateSubcode.INVALID_NETWORK_FIELD, message=message)


def nlri_wires(prefixes):
    """The wire form of each prefix, one ``to_bytes`` at a time, host
    bits cleared."""
    wires = []
    for key in prefixes:
        afi, value, length = prefix_fields(key)
        bits = 32 if afi == AFI_IPV4 else 128
        octets = (length + 7) // 8
        kept = value >> (bits - length) << (bits - length)
        wires.append(bytes((length,))
                     + (kept >> (bits - 8 * octets)).to_bytes(octets, "big"))
    return wires


def cuts(wires, budget):
    """``(start, stop)`` pairs cutting ``wires`` into the fewest
    consecutive batches of at most ``budget`` bytes each (a batch of
    one wire may exceed it)."""
    start = used = 0
    for index, wire in enumerate(wires):
        if used + len(wire) > budget and index > start:
            yield start, index
            start, used = index, 0
        used += len(wire)
    if wires:
        yield start, len(wires)


def pack_group(attributes, prefixes):
    """``prefixes`` sharing ``attributes`` in minimal UPDATEs."""
    budget = MAX_MESSAGE_SIZE - HEADER_SIZE - 4 - len(attributes.to_wire())
    wires = nlri_wires(prefixes)
    return [UpdateMessage(attributes=attributes, nlri=prefixes[start:stop],
                          nlri_wire=b"".join(wires[start:stop]))
            for start, stop in cuts(wires, budget)]


def pack_withdrawals(prefixes):
    """Withdrawn prefixes in minimal UPDATEs: IPv4 in the withdrawn
    routes, IPv6 in MP_UNREACH_NLRI."""
    v4 = [prefix for prefix in prefixes if prefix_afi(prefix) == AFI_IPV4]
    v6 = [prefix for prefix in prefixes if prefix_afi(prefix) == AFI_IPV6]
    room = MAX_MESSAGE_SIZE - HEADER_SIZE - 4
    v4_wires = nlri_wires(v4)
    messages = [UpdateMessage(withdrawn=v4[start:stop],
                              withdrawn_wire=b"".join(v4_wires[start:stop]))
                for start, stop in cuts(v4_wires, room)]
    messages.extend(
        UpdateMessage(attributes=attach_mp_unreach(
            _BARE_ATTRIBUTES, v6[start:stop]))
        for start, stop in cuts(nlri_wires(v6), room - _MP_UNREACH_OVERHEAD))
    return messages


def per_route_delta(session, message):
    """``(announce, withdraw)`` as the old builder wrote them:
    ``(prefix text, attrs_wire, peer_id, source_kind)`` per NLRI prefix
    found in the Adj-RIB-In after the apply, ``(prefix text, peer_id)``
    per withdrawn prefix."""
    announce = []
    if message.nlri and message.attributes is not None:
        for prefix in message.nlri:
            stored = session.adj_rib_in.get(prefix)
            if stored is not None:
                announce.append((prefix_text(prefix), stored.attributes.to_wire(),
                                 session.peer_id, stored.source_kind))
    withdraw = [(prefix_text(prefix), session.peer_id) for prefix in message.withdrawn]
    return announce, withdraw


def delta_routes(delta):
    """A run-based delta record flattened to :func:`per_route_delta`'s
    shape."""
    withdrawn, announced = delta_runs(delta)
    announce = [
        (prefix_text(prefix), attrs_wire, peer_id, source_kind)
        for afi, nlri_wire, attrs_wire, peer_id, source_kind in announced
        for prefix in decode_nlri_block(nlri_wire, afi)
    ]
    withdraw = [
        (prefix_text(prefix), peer_id)
        for afi, nlri_wire, peer_id in withdrawn
        for prefix in decode_nlri_block(nlri_wire, afi)
    ]
    return announce, withdraw
