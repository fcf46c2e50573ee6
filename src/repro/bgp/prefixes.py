"""IP prefixes.

Prefixes are the NLRI currency of BGP.  We support IPv4 and IPv6; the
wire encoding (RFC 4271 §4.3) is a length octet followed by the minimum
number of prefix octets.  Longest-prefix matching over sets of them is
:class:`repro.bgp.radix.RadixTrie`.
"""


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

    @classmethod
    def from_wire(cls, data, offset, afi=AFI_IPV4):
        """Decode one wire prefix; returns (prefix, new_offset)."""
        length = data[offset]
        offset += 1
        octets = (length + 7) // 8
        bits = 32 if afi == cls.AFI_IPV4 else 128
        if length > bits:
            raise ValueError(f"prefix length {length} exceeds AFI width {bits}")
        raw = bytes(data[offset : offset + octets])
        if len(raw) < octets:
            raise ValueError("truncated prefix")
        value = int.from_bytes(raw + b"\x00" * (bits // 8 - octets), "big")
        return cls(value, length, afi), offset + octets

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
