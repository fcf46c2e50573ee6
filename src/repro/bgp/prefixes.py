"""IP prefixes.

Prefixes are the NLRI currency of BGP.  We support IPv4 and IPv6; the
wire encoding (RFC 4271 §4.3) is a length octet followed by the minimum
number of prefix octets, and a run of them back to back is an NLRI
block — decoded whole by :func:`decode_nlri_block`, wherever it sits
(withdrawn routes, NLRI, MP_REACH/MP_UNREACH, a stored RIB delta).

A prefix is one packed ``int``, the *key* every table holds (DESIGN.md
§14): ``(afi - 1) << 136 | value << 8 | length`` orders natively as
``(afi, value, length)``, hashes in C and is not tracked by the
collector.  ``0.0.0.0/0`` is the key ``0``: test keys with ``is None``,
never for truth.  Bulk producers yield plain ints; :class:`Prefix` is
the same int with names on it, for the edges.  A stored key may be
either, so read one through the ``prefix_*`` functions only.

Longest-prefix match is :func:`longest_match`, for every table that
needs it — the Loc-RIB, the FIB, prefix lists: a plain dict keyed by
prefix, probed once per prefix length present in the queried key's
family, longest first.  Those lengths are the table's *census*
(:func:`prefix_lengths`, grown by :func:`note_length`): at most 33 for
IPv4 and 129 for IPv6.  A length whose last prefix has left may stay in
it; it costs one missed probe, never a wrong answer.
"""

from repro.bgp.errors import BgpError, NotificationCode, UpdateSubcode

AFI_IPV4 = 1
AFI_IPV6 = 2
#: ``key >> AFI_SHIFT`` is the key's ``afi - 1``: 0 for IPv4, 1 for IPv6.
AFI_SHIFT = 136
_VALUE_MASK = (1 << 128) - 1
#: The bits of a key that say its family and length, value cleared.
_SHAPE = 1 << AFI_SHIFT | 255
#: Per family, per length n: the mask that keeps a key's family and the
#: top n bits of its value (address bits plus the length byte below).
_COVER_MASKS = (tuple(-1 << 40 - n for n in range(33)),
                tuple(-1 << 136 - n for n in range(129)))
_DECIMAL = tuple(map(str, range(256)))  # rendering an int costs twice this


def prefix_key(value, length, afi=AFI_IPV4):
    """The key of ``value/length``, host bits cleared."""
    bits = 32 if afi == AFI_IPV4 else 128
    if not 0 <= length <= bits:
        raise ValueError(f"prefix length {length} out of range for afi {afi}")
    keep = bits - length
    return ((afi - 1) << AFI_SHIFT
            | (value & ((1 << bits) - 1)) >> keep << keep + 8 | length)


def parse_prefix(text):
    """The key of ``"10.1.0.0/16"`` or ``"2001:db8::/32"``."""
    addr, slash, length_text = text.partition("/")
    if ":" in addr:
        return prefix_key(_parse_v6(addr),
                          int(length_text) if slash else 128, AFI_IPV6)
    return prefix_key(_parse_v4(addr), int(length_text) if slash else 32)


def prefix_afi(key):
    return (key >> AFI_SHIFT) + 1


def prefix_bits(key):
    return 128 if key >> AFI_SHIFT else 32


def prefix_value(key):
    return key >> 8 & _VALUE_MASK


def prefix_length(key):
    return key & 255


def prefix_fields(key):
    """``(afi, value, length)`` in one call."""
    return (key >> AFI_SHIFT) + 1, key >> 8 & _VALUE_MASK, key & 255


def prefix_ancestor(key, length):
    """``key`` cut back to ``length``; itself when it is no longer."""
    if key & 255 <= length:
        return key
    keep = (128 if key >> AFI_SHIFT else 32) - length + 8
    return key >> keep << keep | length


def prefix_contains(key, other):
    """True when ``other`` lies within ``key``: it is no shorter, and
    the two agree above ``key``'s host bits, family included."""
    shift = prefix_bits(key) - (key & 255) + 8
    return key & 255 <= other & 255 and key >> shift == other >> shift


def prefix_lengths(keys):
    """The census of ``keys``: per family (index ``key >> AFI_SHIFT``),
    the prefix lengths present, longest first."""
    lengths = ([], [])
    for shape in {key & _SHAPE for key in keys}:
        lengths[shape >> AFI_SHIFT].append(shape & 255)
    for family in lengths:
        family.sort(reverse=True)
    return lengths


def note_length(lengths, key):
    """Grow the census ``lengths`` by ``key``'s length, if it is new."""
    family = lengths[key >> AFI_SHIFT]
    if key & 255 not in family:
        family.append(key & 255)
        family.sort(reverse=True)


def longest_match(table, lengths, key):
    """``(covering key, value)`` of the most specific key in ``table``
    that covers ``key`` (itself included), or None.

    ``lengths`` is the census of ``table``'s keys; one ``dict.get`` per
    length in it no longer than ``key``'s.  A value of None reads as
    no entry.
    """
    family = key >> AFI_SHIFT
    masks = _COVER_MASKS[family]
    length = key & 255
    get = table.get
    for candidate in lengths[family]:
        if candidate <= length:
            cover = key & masks[candidate] | candidate
            value = get(cover)
            if value is not None:
                return cover, value
    return None


def prefix_text(key):
    if not key >> AFI_SHIFT:
        return (f"{_DECIMAL[key >> 32]}.{_DECIMAL[key >> 24 & 255]}."
                f"{_DECIMAL[key >> 16 & 255]}.{_DECIMAL[key >> 8 & 255]}"
                f"/{_DECIMAL[key & 255]}")
    value = key >> 8 & _VALUE_MASK
    groups = [f"{value >> shift & 0xFFFF:x}" for shift in range(112, -16, -16)]
    return f"{':'.join(groups)}/{key & 255}"


class Prefix(int):
    """The key as an edge type: named fields, text as ``str()``."""

    __slots__ = ()

    AFI_IPV4 = AFI_IPV4
    AFI_IPV6 = AFI_IPV6

    def __new__(cls, value, length, afi=AFI_IPV4):
        return int.__new__(cls, prefix_key(value, length, afi))

    @classmethod
    def parse(cls, text):
        return int.__new__(cls, parse_prefix(text))

    def __getnewargs__(self):
        return self.value, self.length, self.afi

    value = property(prefix_value)
    length = property(prefix_length)
    afi = property(prefix_afi)
    bits = property(prefix_bits)
    contains = prefix_contains
    __str__ = prefix_text

    def to_wire(self):
        return nlri_wires((self,))[0]

    @property
    def wire_size(self):
        return 1 + (self.length + 7) // 8

    def __repr__(self):
        return f"Prefix({prefix_text(self)!r})"


def _block_table(bits):
    """Per mask length: (octets on the wire, the left shift that puts
    them in a key's value field, the key mask of the bits it keeps)."""
    table = []
    for length in range(bits + 1):
        octets = (length + 7) // 8
        mask = ((1 << length) - 1) << (bits - length)
        table.append((octets, bits - 8 * octets + 8, mask << 8))
    return tuple(table)


_V4_TABLE = _block_table(32)
_WIDE_TABLE = _block_table(128)  # IPv6, and any family that is not IPv4
_LENGTH_OCTETS = tuple(bytes((length,)) for length in range(129))


def nlri_wires(prefixes):
    """The wire form of each prefix, in a list (joined: the NLRI block)."""
    v4, wide, length_octets = _V4_TABLE, _WIDE_TABLE, _LENGTH_OCTETS
    wires = []
    append = wires.append
    for key in prefixes:
        length = key & 255
        octets, shift, mask = (wide if key >> AFI_SHIFT else v4)[length]
        append(length_octets[length]
               + ((key & mask) >> shift).to_bytes(octets, "big"))
    return wires


def encode_nlri_block(prefixes):
    """``prefixes`` back to back on the wire."""
    return b"".join(nlri_wires(prefixes))


def decode_nlri_block(data, afi=AFI_IPV4, offset=0, end=None):
    """Decode the wire prefixes in ``data[offset:end]`` to plain keys.

    Every field a peer controls is checked: a length octet over the
    AFI's width, or a prefix running past ``end``, is the RFC 4271 §6.3
    "Invalid Network Field" UPDATE error.
    """
    if end is None:
        end = len(data)
    table = _V4_TABLE if afi == AFI_IPV4 else _WIDE_TABLE
    widest = len(table) - 1
    family = (afi - 1) << AFI_SHIFT
    from_bytes = int.from_bytes
    prefixes = []
    append = prefixes.append
    while offset < end:
        length = data[offset]
        if length > widest:
            raise _invalid_network_field(
                f"prefix length {length} exceeds AFI width {widest}")
        octets, shift, mask = table[length]
        offset += 1
        stop = offset + octets
        if stop > end:
            raise _invalid_network_field("truncated prefix")
        append(family | from_bytes(data[offset:stop], "big") << shift & mask
               | length)
        offset = stop
    return prefixes


def _invalid_network_field(message):
    return BgpError(NotificationCode.UPDATE_MESSAGE_ERROR,
                    UpdateSubcode.INVALID_NETWORK_FIELD, message=message)


def _parse_v4(addr):
    octets = [int(part) for part in addr.split(".")]
    if len(octets) != 4 or any(not 0 <= octet <= 255 for octet in octets):
        raise ValueError(f"bad IPv4 address {addr!r}")
    return int.from_bytes(bytes(octets), "big")


def _parse_v6(addr):
    if addr.count("::") > 1:
        raise ValueError(f"bad IPv6 address {addr!r} (multiple '::')")
    if "::" in addr:
        head_text, _sep, tail_text = addr.partition("::")
        head = [int(g, 16) for g in head_text.split(":") if g]
        tail = [int(g, 16) for g in tail_text.split(":") if g]
        groups = head + [0] * (8 - len(head) - len(tail)) + tail
    else:
        groups = [int(g, 16) for g in addr.split(":")]
    if len(groups) != 8 or any(not 0 <= g <= 0xFFFF for g in groups):
        raise ValueError(f"bad IPv6 address {addr!r}")
    return int.from_bytes(
        b"".join(group.to_bytes(2, "big") for group in groups), "big")
