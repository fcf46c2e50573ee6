"""BGP path attributes (RFC 4271 §4.3, §5) with wire encode/decode.

Attributes are carried in UPDATE messages and drive the decision process.
We implement the well-known and common optional attributes, 4-octet AS
paths throughout (both ends of every simulated session negotiate the
4-octet AS capability), and opaque passthrough for unknown optional
transitive attributes.
"""

import enum

from repro.bgp.errors import BgpError, NotificationCode, UpdateSubcode

FLAG_OPTIONAL = 0x80
FLAG_TRANSITIVE = 0x40
FLAG_EXTENDED = 0x10

TYPE_ORIGIN = 1
TYPE_AS_PATH = 2
TYPE_NEXT_HOP = 3
TYPE_MED = 4
TYPE_LOCAL_PREF = 5
TYPE_ATOMIC_AGGREGATE = 6
TYPE_AGGREGATOR = 7
TYPE_COMMUNITIES = 8
TYPE_MP_REACH_NLRI = 14
TYPE_MP_UNREACH_NLRI = 15

SEGMENT_SET = 1
SEGMENT_SEQUENCE = 2


def ipv4_to_int(text):
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address {text!r}")
    value = 0
    for part in parts:
        value = (value << 8) | (int(part) & 0xFF)
    return value


def int_to_ipv4(value):
    return ".".join(str(b) for b in value.to_bytes(4, "big"))


class Origin(enum.IntEnum):
    IGP = 0
    EGP = 1
    INCOMPLETE = 2


class AsPath:
    """An AS_PATH: an ordered list of (segment_type, asns) segments."""

    __slots__ = ("segments", "_path_length", "_first_as")

    def __init__(self, segments=()):
        self.segments = tuple(
            (seg_type, tuple(asns)) for seg_type, asns in segments
        )
        # Immutable, so the two decision-process projections are
        # precomputed: both sit on the Loc-RIB offer hot path.
        total = 0
        first = None
        for seg_type, asns in self.segments:
            total += len(asns) if seg_type == SEGMENT_SEQUENCE else 1
            if first is None and asns:
                first = asns[0]
        self._path_length = total
        self._first_as = first

    @classmethod
    def sequence(cls, *asns):
        """The common case: one AS_SEQUENCE segment."""
        if not asns:
            return cls()
        return cls([(SEGMENT_SEQUENCE, asns)])

    def prepend(self, asn, count=1):
        """Return a new path with ``asn`` prepended ``count`` times."""
        segments = list(self.segments)
        if segments and segments[0][0] == SEGMENT_SEQUENCE:
            head_type, head_asns = segments[0]
            segments[0] = (head_type, (asn,) * count + head_asns)
        else:
            segments.insert(0, (SEGMENT_SEQUENCE, (asn,) * count))
        return AsPath(segments)

    def path_length(self):
        """Decision-process length: an AS_SET counts as one hop."""
        return self._path_length

    def contains(self, asn):
        """Loop detection."""
        return any(asn in asns for _seg_type, asns in self.segments)

    def first_as(self):
        """The neighbouring AS (leftmost AS of the path), or None."""
        return self._first_as

    def as_list(self):
        return [asn for _t, asns in self.segments for asn in asns]

    def to_wire(self):
        out = bytearray()
        for seg_type, asns in self.segments:
            out.append(seg_type)
            out.append(len(asns))
            for asn in asns:
                out += asn.to_bytes(4, "big")
        return bytes(out)

    @classmethod
    def from_wire(cls, data):
        segments = []
        offset = 0
        while offset < len(data):
            if offset + 2 > len(data):
                raise BgpError(
                    NotificationCode.UPDATE_MESSAGE_ERROR,
                    UpdateSubcode.MALFORMED_AS_PATH,
                )
            seg_type = data[offset]
            count = data[offset + 1]
            offset += 2
            end = offset + 4 * count
            if end > len(data):
                raise BgpError(
                    NotificationCode.UPDATE_MESSAGE_ERROR,
                    UpdateSubcode.MALFORMED_AS_PATH,
                )
            asns = tuple(
                int.from_bytes(data[i : i + 4], "big") for i in range(offset, end, 4)
            )
            segments.append((seg_type, asns))
            offset = end
        return cls(segments)

    def __eq__(self, other):
        return isinstance(other, AsPath) and self.segments == other.segments

    def __hash__(self):
        return hash(self.segments)

    def __repr__(self):
        return f"AsPath({self.as_list()})"


class PathAttributes:
    """The attribute set of a route; hashable so packing can group by it.

    Instances MUST be treated as immutable once constructed: the wire
    encoding, the packing key and the hash are all computed lazily and
    cached on the instance, and identical attribute sets may be interned
    into shared flyweight objects (see :meth:`intern`).  Derive modified
    attribute sets with :meth:`replace`, never by assigning to fields.
    """

    __slots__ = (
        "origin",
        "as_path",
        "next_hop",
        "med",
        "local_pref",
        "atomic_aggregate",
        "aggregator",
        "communities",
        "unknown",
        "_wire",
        "_key",
        "_hash",
    )

    #: Flyweight table: wire bytes -> canonical instance.  Bounded so a
    #: pathological workload of unique attribute sets cannot grow it
    #: without limit; clearing only costs re-encoding, never correctness.
    _intern_table = {}
    _INTERN_LIMIT = 65536

    def __init__(
        self,
        origin=Origin.IGP,
        as_path=None,
        next_hop=None,
        med=None,
        local_pref=None,
        atomic_aggregate=False,
        aggregator=None,
        communities=(),
        unknown=(),
    ):
        self.origin = Origin(origin)
        self.as_path = as_path if as_path is not None else AsPath()
        self.next_hop = next_hop  # dotted-quad string or None
        self.med = med
        self.local_pref = local_pref
        self.atomic_aggregate = atomic_aggregate
        self.aggregator = aggregator  # (asn, dotted-quad) or None
        self.communities = tuple(communities)
        self.unknown = tuple(unknown)  # raw (flags, type, value) passthrough
        self._wire = None
        self._key = None
        self._hash = None

    def key(self):
        """Identity for update packing: routes sharing a key share UPDATEs."""
        key = self._key
        if key is None:
            key = self._key = (
                self.origin,
                self.as_path,
                self.next_hop,
                self.med,
                self.local_pref,
                self.atomic_aggregate,
                self.aggregator,
                self.communities,
                self.unknown,
            )
        return key

    @classmethod
    def intern(cls, attributes):
        """Return the canonical instance for this attribute set.

        Attribute sets are flyweighted by their wire encoding: the first
        instance seen for a given encoding becomes canonical and later
        equal sets resolve to it, so a table of a million routes sharing
        a few thousand attribute sets stores (and re-encodes) each set
        once.  Safe because instances are immutable by contract.
        """
        table = cls._intern_table
        if len(table) > cls._INTERN_LIMIT:
            table.clear()
        return table.setdefault(attributes.to_wire(), attributes)

    def replace(self, **overrides):
        """Return a modified copy (policy actions use this)."""
        fields = {
            "origin": self.origin,
            "as_path": self.as_path,
            "next_hop": self.next_hop,
            "med": self.med,
            "local_pref": self.local_pref,
            "atomic_aggregate": self.atomic_aggregate,
            "aggregator": self.aggregator,
            "communities": self.communities,
            "unknown": self.unknown,
        }
        fields.update(overrides)
        return PathAttributes(**fields)

    # -- wire format ---------------------------------------------------------

    def to_wire(self):
        wire = self._wire
        if wire is None:
            wire = self._wire = self._encode()
        return wire

    def _encode(self):
        out = bytearray()
        out += _encode_attr(FLAG_TRANSITIVE, TYPE_ORIGIN, bytes([self.origin]))
        out += _encode_attr(FLAG_TRANSITIVE, TYPE_AS_PATH, self.as_path.to_wire())
        if self.next_hop is not None:
            out += _encode_attr(
                FLAG_TRANSITIVE, TYPE_NEXT_HOP, ipv4_to_int(self.next_hop).to_bytes(4, "big")
            )
        if self.med is not None:
            out += _encode_attr(FLAG_OPTIONAL, TYPE_MED, self.med.to_bytes(4, "big"))
        if self.local_pref is not None:
            out += _encode_attr(
                FLAG_TRANSITIVE, TYPE_LOCAL_PREF, self.local_pref.to_bytes(4, "big")
            )
        if self.atomic_aggregate:
            out += _encode_attr(FLAG_TRANSITIVE, TYPE_ATOMIC_AGGREGATE, b"")
        if self.aggregator is not None:
            asn, addr = self.aggregator
            value = asn.to_bytes(4, "big") + ipv4_to_int(addr).to_bytes(4, "big")
            out += _encode_attr(
                FLAG_OPTIONAL | FLAG_TRANSITIVE, TYPE_AGGREGATOR, value
            )
        if self.communities:
            value = b"".join(c.to_bytes(4, "big") for c in self.communities)
            out += _encode_attr(
                FLAG_OPTIONAL | FLAG_TRANSITIVE, TYPE_COMMUNITIES, value
            )
        for flags, attr_type, value in self.unknown:
            out += _encode_attr(flags, attr_type, value)
        return bytes(out)

    @classmethod
    def from_wire(cls, data):
        """Decode ``data``; equal attribute sets decoded repeatedly
        resolve to one shared flyweight instance, which makes the receive
        hot path O(1) per already-seen set."""
        cached = cls._intern_table.get(data)
        if cached is not None:
            return cached
        return cls.intern(cls._decode(data))

    @classmethod
    def _decode(cls, data):
        fields = {}
        unknown = []
        offset = 0
        while offset < len(data):
            flags, attr_type, value, offset = _decode_attr(data, offset)
            if attr_type == TYPE_ORIGIN:
                if len(value) != 1 or value[0] > 2:
                    raise BgpError(
                        NotificationCode.UPDATE_MESSAGE_ERROR,
                        UpdateSubcode.INVALID_ORIGIN_ATTRIBUTE,
                    )
                fields["origin"] = Origin(value[0])
            elif attr_type == TYPE_AS_PATH:
                fields["as_path"] = AsPath.from_wire(value)
            elif attr_type == TYPE_NEXT_HOP:
                if len(value) != 4:
                    raise BgpError(
                        NotificationCode.UPDATE_MESSAGE_ERROR,
                        UpdateSubcode.INVALID_NEXT_HOP_ATTRIBUTE,
                    )
                fields["next_hop"] = int_to_ipv4(int.from_bytes(value, "big"))
            elif attr_type == TYPE_MED:
                fields["med"] = int.from_bytes(value, "big")
            elif attr_type == TYPE_LOCAL_PREF:
                fields["local_pref"] = int.from_bytes(value, "big")
            elif attr_type == TYPE_ATOMIC_AGGREGATE:
                fields["atomic_aggregate"] = True
            elif attr_type == TYPE_AGGREGATOR:
                asn = int.from_bytes(value[:4], "big")
                fields["aggregator"] = (asn, int_to_ipv4(int.from_bytes(value[4:8], "big")))
            elif attr_type == TYPE_COMMUNITIES:
                fields["communities"] = tuple(
                    int.from_bytes(value[i : i + 4], "big")
                    for i in range(0, len(value), 4)
                )
            elif flags & FLAG_OPTIONAL and flags & FLAG_TRANSITIVE:
                unknown.append((flags, attr_type, value))
            elif flags & FLAG_OPTIONAL:
                # optional non-transitive: normally dropped when unknown,
                # but the multiprotocol attributes (RFC 4760) are known to
                # this implementation and carried through the same slot
                if attr_type in (TYPE_MP_REACH_NLRI, TYPE_MP_UNREACH_NLRI):
                    unknown.append((flags, attr_type, value))
            else:
                raise BgpError(
                    NotificationCode.UPDATE_MESSAGE_ERROR,
                    UpdateSubcode.UNRECOGNIZED_WELLKNOWN_ATTRIBUTE,
                    data=bytes([attr_type]),
                )
        fields["unknown"] = tuple(unknown)
        return cls(**fields)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, PathAttributes) and self.key() == other.key()

    def __hash__(self):
        value = self._hash
        if value is None:
            value = self._hash = hash(self.key())
        return value

    def __repr__(self):
        return (
            f"<PathAttributes path={self.as_path.as_list()} nh={self.next_hop}"
            f" lp={self.local_pref} med={self.med}>"
        )


def _encode_attr(flags, attr_type, value):
    if len(value) > 255:
        flags |= FLAG_EXTENDED
        header = bytes([flags, attr_type]) + len(value).to_bytes(2, "big")
    else:
        header = bytes([flags, attr_type, len(value)])
    return header + value


def _decode_attr(data, offset):
    if offset + 3 > len(data):
        raise BgpError(
            NotificationCode.UPDATE_MESSAGE_ERROR,
            UpdateSubcode.ATTRIBUTE_LENGTH_ERROR,
        )
    flags = data[offset]
    attr_type = data[offset + 1]
    if flags & FLAG_EXTENDED:
        if offset + 4 > len(data):
            raise BgpError(
                NotificationCode.UPDATE_MESSAGE_ERROR,
                UpdateSubcode.ATTRIBUTE_LENGTH_ERROR,
            )
        length = int.from_bytes(data[offset + 2 : offset + 4], "big")
        offset += 4
    else:
        length = data[offset + 2]
        offset += 3
    end = offset + length
    if end > len(data):
        raise BgpError(
            NotificationCode.UPDATE_MESSAGE_ERROR,
            UpdateSubcode.ATTRIBUTE_LENGTH_ERROR,
        )
    return flags, attr_type, bytes(data[offset:end]), end
