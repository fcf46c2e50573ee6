"""IP prefixes.

Prefixes are the NLRI currency of BGP.  We support IPv4 and IPv6; the
wire encoding (RFC 4271 §4.3) is a length octet followed by the minimum
number of prefix octets, and a run of them back to back is an NLRI
block — decoded whole by :func:`decode_nlri_block`, wherever it sits
(withdrawn routes, NLRI, MP_REACH/MP_UNREACH, a stored RIB delta).
Longest-prefix matching over sets of prefixes is
:class:`repro.bgp.radix.RadixTrie`.
"""

from repro.bgp.errors import BgpError, NotificationCode, UpdateSubcode


class Prefix:
    """An immutable IP prefix (network address + mask length + AFI)."""

    __slots__ = ("value", "length", "afi", "_hash")

    AFI_IPV4 = 1
    AFI_IPV6 = 2

    def __init__(self, value, length, afi=AFI_IPV4):
        bits = 32 if afi == self.AFI_IPV4 else 128
        if not 0 <= length <= bits:
            raise ValueError(f"prefix length {length} out of range for afi {afi}")
        mask = ((1 << length) - 1) << (bits - length) if length else 0
        self.value = value = value & mask
        self.length = length
        self.afi = afi
        # Every RIB dict probe hashes its prefix; compute it once.  Ints
        # hash the same in every process, so the slot survives pickling.
        self._hash = hash((value, length, afi))

    @property
    def bits(self):
        return 32 if self.afi == self.AFI_IPV4 else 128

    # -- construction -------------------------------------------------------

    @classmethod
    def parse(cls, text):
        """Parse ``"10.1.0.0/16"`` or ``"2001:db8::/32"``."""
        if "/" in text:
            addr, _slash, length_text = text.partition("/")
            length = int(length_text)
        else:
            addr = text
            length = 128 if ":" in text else 32
        if ":" in addr:
            return cls(_parse_v6(addr), length, cls.AFI_IPV6)
        return cls(_parse_v4(addr), length, cls.AFI_IPV4)

    # -- encoding -----------------------------------------------------------

    def to_wire(self):
        octets = (self.length + 7) // 8
        raw = self.value.to_bytes(self.bits // 8, "big")[:octets]
        return bytes([self.length]) + raw

    @property
    def wire_size(self):
        return 1 + (self.length + 7) // 8

    # -- relations ----------------------------------------------------------

    def contains(self, other):
        """True when ``other`` (Prefix of same AFI) is within this prefix."""
        if self.afi != other.afi or other.length < self.length:
            return False
        if self.length == 0:
            # The default route covers every same-AFI prefix; the shift
            # compare below would shift by the full width, which is legal
            # but pointless (both sides collapse to 0 anyway).
            return True
        shift = self.bits - self.length
        return (self.value >> shift) == (other.value >> shift)

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Prefix)
            and self.value == other.value
            and self.length == other.length
            and self.afi == other.afi
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (self.afi, self.value, self.length) < (
            other.afi,
            other.value,
            other.length,
        )

    def __str__(self):
        value = self.value
        if self.afi == self.AFI_IPV4:
            return (f"{value >> 24}.{value >> 16 & 255}.{value >> 8 & 255}"
                    f".{value & 255}/{self.length}")
        groups = [f"{value >> shift & 0xFFFF:x}" for shift in range(112, -16, -16)]
        return f"{':'.join(groups)}/{self.length}"

    def __repr__(self):
        return f"Prefix({str(self)!r})"


def _block_table(bits):
    """Per mask length: (octets on the wire, left shift that puts them
    at the top of the address, mask clearing the bits past the length)."""
    table = []
    for length in range(bits + 1):
        octets = (length + 7) // 8
        mask = ((1 << length) - 1) << (bits - length)
        table.append((octets, bits - 8 * octets, mask))
    return tuple(table)


_V4_TABLE = _block_table(32)
_WIDE_TABLE = _block_table(128)  # IPv6, and any family that is not IPv4
_LENGTH_OCTETS = tuple(bytes((length,)) for length in range(129))


def nlri_wires(prefixes):
    """The wire form of each prefix, as a list (``Prefix.to_wire`` over
    a batch; their concatenation is the NLRI block)."""
    v4, wide, length_octets = _V4_TABLE, _WIDE_TABLE, _LENGTH_OCTETS
    wires = []
    append = wires.append
    for prefix in prefixes:
        length = prefix.length
        octets, shift, _mask = (v4 if prefix.afi == 1 else wide)[length]
        append(length_octets[length]
               + (prefix.value >> shift).to_bytes(octets, "big"))
    return wires


def encode_nlri_block(prefixes):
    """``prefixes`` back to back on the wire."""
    return b"".join(nlri_wires(prefixes))


def decode_nlri_block(data, afi=Prefix.AFI_IPV4, offset=0, end=None):
    """Decode the wire prefixes in ``data[offset:end]``, in order.

    Every field a peer controls is checked: a length octet over the
    AFI's width, or a prefix running past ``end``, is the RFC 4271 §6.3
    "Invalid Network Field" UPDATE error.
    """
    if end is None:
        end = len(data)
    table = _V4_TABLE if afi == Prefix.AFI_IPV4 else _WIDE_TABLE
    widest = len(table) - 1
    new = Prefix.__new__
    from_bytes = int.from_bytes
    prefixes = []
    append = prefixes.append
    while offset < end:
        length = data[offset]
        if length > widest:
            raise BgpError(
                NotificationCode.UPDATE_MESSAGE_ERROR,
                UpdateSubcode.INVALID_NETWORK_FIELD,
                message=f"prefix length {length} exceeds AFI width {widest}",
            )
        octets, shift, mask = table[length]
        offset += 1
        stop = offset + octets
        if stop > end:
            raise BgpError(
                NotificationCode.UPDATE_MESSAGE_ERROR,
                UpdateSubcode.INVALID_NETWORK_FIELD,
                message="truncated prefix",
            )
        value = from_bytes(data[offset:stop], "big") << shift & mask
        offset = stop
        # What Prefix.__init__ computes, without re-validating a length
        # the table lookup above already bounded.
        prefix = new(Prefix)
        prefix.value = value
        prefix.length = length
        prefix.afi = afi
        prefix._hash = hash((value, length, afi))
        append(prefix)
    return prefixes


def _parse_v4(addr):
    parts = addr.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address {addr!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"bad IPv4 octet {part!r}")
        value = (value << 8) | octet
    return value


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
    value = 0
    for group in groups:
        value = (value << 16) | group
    return value
