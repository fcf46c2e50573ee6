"""Update packing (§4.2, citing Zhang & Bartell).

"Because the BGP update message for many peers will be largely the same
except for the header information, it is possible to speed up the process
by copying the messages.  This is referred to as 'update packing'."

Two distinct economies fall out of packing:

1. **Per-message packing** — routes sharing a ``PathAttributes`` set are
   grouped into as few UPDATE messages as fit in 4096 bytes
   (:func:`group_routes`, then :func:`pack_group` per group).
2. **Cross-peer copying** — a packed UPDATE built for one peer is reused
   for other peers whose export policy produced identical attributes; only
   the "header information" is rewritten, at
   ``PACKED_COPY_COST_PER_UPDATE`` instead of full generation cost.  GoBGP
   famously lacks this, which is what Fig. 6(c) shows.
"""

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import HEADER_SIZE, MAX_MESSAGE_SIZE, UpdateMessage
from repro.bgp.multiprotocol import attach_mp_reach, attach_mp_unreach
from repro.bgp.prefixes import (
    AFI_IPV4,
    AFI_IPV6,
    AFI_SHIFT,
    fixed_width_block,
    nlri_wires,
    prefix_afi,
)


def group_routes(routes):
    """Group (prefix, attributes) pairs by address family and attribute
    set, in one pass.

    Returns ``[(afi, attributes, [prefix, ...]), ...]``: groups in the
    order their first route was seen, prefixes in the order given.
    Routes overwhelmingly share attribute *objects* (interned on decode,
    pooled at origination), so an object is hashed once, on first
    sight, and found by identity from then on.
    """
    groups = {}  # (afi, attributes) -> members
    appends = {}  # (afi, id(attributes)) -> that group's members.append
    seen = []  # every object whose id is a key above: ids stay unique
    for prefix, attributes in routes:
        key = prefix_afi(prefix), id(attributes)
        append = appends.get(key)
        if append is None:
            members = groups.setdefault((key[0], attributes), [])
            append = appends[key] = members.append
            seen.append(attributes)
        append(prefix)
    return [(afi, attributes, members)
            for (afi, attributes), members in groups.items()]


_UNSEEN = object()


def group_paths(routes, export):
    """:func:`group_routes` of a table's ``(prefix, path)`` pairs, paying
    per path, not per route.

    ``export(path)`` returns the attributes ``path`` goes out with, or
    None to skip it; it runs once per path and address family, on the
    first route seen with them, which resolves that pair to the members
    list of its ``(afi, exported attributes)`` group — shared with any
    other path exporting an equal set — or to "skip".  Every later route
    is one dict probe and an append, in the order given, so the result
    is ``group_routes((prefix, export(path)) ...)`` of the survivors:
    the same groups, in the same order, with the same members.  Paths
    are told apart by identity: whatever ``routes`` walks (a live
    table) must keep them alive until the walk ends.
    """
    groups = {}  # (afi, exported attributes) -> members
    appends = ({}, {})  # per family: id(path) -> members.append, or None
    for prefix, path in routes:
        by_path = appends[prefix >> AFI_SHIFT]
        append = by_path.get(id(path), _UNSEEN)
        if append is _UNSEEN:
            exported = export(path)
            append = by_path[id(path)] = None if exported is None else (
                groups.setdefault((prefix_afi(prefix), exported), []).append)
        if append is not None:
            append(prefix)
    return [(afi, attributes, members)
            for (afi, attributes), members in groups.items()]


def _cuts(wires, budget):
    """``(start, stop)`` index pairs cutting ``wires`` into the fewest
    consecutive batches of at most ``budget`` bytes each."""
    start = used = 0
    for index, wire in enumerate(wires):
        size = len(wire)
        if used + size > budget and index > start:
            yield start, index
            start, used = index, 0
        used += size
    if wires:
        yield start, len(wires)


def _v4_batches(prefixes, budget):
    """``(prefixes, NLRI block)`` per UPDATE: IPv4 ``prefixes`` cut into
    the fewest consecutive batches of at most ``budget`` bytes each.

    Each prefix is encoded once.  Prefixes of one length are one
    fixed-width block, cut every ``budget // width`` prefixes — what
    :func:`_cuts` gives for equal wires; others are cut by their wires.
    """
    fixed = fixed_width_block(prefixes)
    if fixed is None:
        wires = nlri_wires(prefixes)
        return [(prefixes[start:stop], b"".join(wires[start:stop]))
                for start, stop in _cuts(wires, budget)]
    width, block = fixed
    step = max(budget // width, 1)
    return [(prefixes[start:start + step],
             block[start * width:(start + step) * width])
            for start in range(0, len(prefixes), step)]


def pack_group(attributes, prefixes):
    """Pack ``prefixes`` sharing ``attributes`` into minimal UPDATEs,
    each message keeping the NLRI block it was cut with."""
    budget = MAX_MESSAGE_SIZE - HEADER_SIZE - 4 - len(attributes.to_wire())
    return [UpdateMessage(attributes=attributes, nlri=share, nlri_wire=wire)
            for share, wire in _v4_batches(prefixes, budget)]


def pack_mp_group(attributes, prefixes, next_hop_v6):
    """Pack IPv6 ``prefixes`` sharing ``attributes`` into minimal
    UPDATEs, each carrying its share in MP_REACH_NLRI (RFC 4760).
    Returns ``[(message, prefixes), ...]``.

    The budget is sized with an empty MP_REACH_NLRI in place of any the
    attributes were learned with, plus the extended-length byte a full
    one takes.
    """
    bare = attach_mp_reach(attributes, next_hop_v6, ())
    budget = MAX_MESSAGE_SIZE - HEADER_SIZE - 4 - len(bare.to_wire()) - 1
    packed = []
    for start, stop in _cuts(nlri_wires(prefixes), budget):
        share = prefixes[start:stop]
        packed.append((UpdateMessage(attributes=attach_mp_reach(
            attributes, next_hop_v6, share)), share))
    return packed


def pack_withdrawals(prefixes):
    """Group withdrawn prefixes into minimal UPDATE messages: IPv4 ones
    in the withdrawn-routes field, IPv6 ones in MP_UNREACH_NLRI
    attributes (RFC 4760)."""
    v4 = [prefix for prefix in prefixes if prefix_afi(prefix) == AFI_IPV4]
    v6 = [prefix for prefix in prefixes if prefix_afi(prefix) == AFI_IPV6]
    room = MAX_MESSAGE_SIZE - HEADER_SIZE - 4
    messages = [UpdateMessage(withdrawn=share, withdrawn_wire=wire)
                for share, wire in _v4_batches(v4, room)]
    messages.extend(
        UpdateMessage(attributes=attach_mp_unreach(
            _BARE_ATTRIBUTES, v6[start:stop]))
        for start, stop in _cuts(nlri_wires(v6), room - _MP_UNREACH_OVERHEAD))
    return messages


_BARE_ATTRIBUTES = PathAttributes()
#: The bare attributes, an extended-length attribute header, AFI and SAFI.
_MP_UNREACH_OVERHEAD = len(_BARE_ATTRIBUTES.to_wire()) + 4 + 3
