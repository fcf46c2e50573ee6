"""The per-route code the batched UPDATE path replaced, kept as the
reference the differential tests compare it with.

- :func:`prefix_from_wire` / :func:`decode_block_reference`: the
  ``Prefix.from_wire`` loop that ``UpdateMessage.from_body`` and the
  MP_REACH/MP_UNREACH decoders ran before
  :func:`repro.bgp.prefixes.decode_nlri_block`.
- :func:`per_route_delta`: the RIB delta builder that probed the
  Adj-RIB-In once per NLRI prefix after the apply step (IPv4 fields
  only — it never saw MP_REACH routes, which is the bug the run-based
  delta fixed), and :func:`delta_routes`, which flattens a stored
  run-based delta to the same per-route shape.
"""

from repro.bgp.prefixes import Prefix, decode_nlri_block, prefix_text
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
