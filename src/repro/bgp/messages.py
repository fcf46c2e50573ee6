"""BGP message wire formats (RFC 4271 §4) and the stream decoder.

All five message types are encoded to and decoded from real bytes.  The
:class:`MessageDecoder` consumes a TCP byte stream incrementally and
reports the *byte count consumed per message*, which is exactly what
TENSOR's main thread needs to infer ACK numbers ("adding the initial SEQ
number and the cumulative size of all the previously received messages",
§3.1.2).
"""

from repro.bgp.attributes import PathAttributes
from repro.bgp.capabilities import Capabilities
from repro.bgp.errors import (
    BgpError,
    HeaderSubcode,
    NotificationCode,
    UpdateSubcode,
)
from repro.bgp.prefixes import AFI_IPV4, decode_nlri_block, encode_nlri_block

BGP_PORT = 179
MARKER = b"\xff" * 16
HEADER_SIZE = 19
MAX_MESSAGE_SIZE = 4096

TYPE_OPEN = 1
TYPE_UPDATE = 2
TYPE_NOTIFICATION = 3
TYPE_KEEPALIVE = 4
TYPE_ROUTE_REFRESH = 5

#: RFC 4893: 2-octet AS field placeholder when the real ASN needs 4 octets.
AS_TRANS = 23456


def _header(msg_type, body_len):
    return MARKER + (HEADER_SIZE + body_len).to_bytes(2, "big") + bytes([msg_type])


def _malformed_attribute_list(field):
    """RFC 4271 §6.3: a length field pointing past the message body."""
    return BgpError(
        NotificationCode.UPDATE_MESSAGE_ERROR,
        UpdateSubcode.MALFORMED_ATTRIBUTE_LIST,
        message=f"{field} runs past the UPDATE body",
    )


class OpenMessage:
    """OPEN: version, ASN, hold time, BGP identifier, capabilities."""

    msg_type = TYPE_OPEN

    def __init__(self, asn, hold_time, bgp_id, capabilities=None, version=4):
        self.version = version
        self.asn = asn
        self.hold_time = hold_time
        self.bgp_id = bgp_id  # 32-bit int
        self.capabilities = capabilities or Capabilities(four_octet_as=asn)

    def to_wire(self):
        params = self.capabilities.to_wire()
        wire_asn = self.asn if self.asn <= 0xFFFF else AS_TRANS
        body = (
            bytes([self.version])
            + wire_asn.to_bytes(2, "big")
            + self.hold_time.to_bytes(2, "big")
            + self.bgp_id.to_bytes(4, "big")
            + bytes([len(params)])
            + params
        )
        return _header(self.msg_type, len(body)) + body

    @classmethod
    def from_body(cls, body):
        if len(body) < 10:
            raise BgpError(NotificationCode.OPEN_MESSAGE_ERROR, message="short OPEN")
        version = body[0]
        asn = int.from_bytes(body[1:3], "big")
        hold_time = int.from_bytes(body[3:5], "big")
        bgp_id = int.from_bytes(body[5:9], "big")
        params_len = body[9]
        capabilities = Capabilities.from_wire(bytes(body[10 : 10 + params_len]))
        if capabilities.four_octet_as is not None:
            asn = capabilities.four_octet_as
        return cls(asn, hold_time, bgp_id, capabilities, version)

    def __eq__(self, other):
        return isinstance(other, OpenMessage) and (
            self.version,
            self.asn,
            self.hold_time,
            self.bgp_id,
            self.capabilities,
        ) == (other.version, other.asn, other.hold_time, other.bgp_id, other.capabilities)

    def __repr__(self):
        return f"<Open as={self.asn} hold={self.hold_time} id={self.bgp_id}>"


class UpdateMessage:
    """UPDATE: withdrawn prefixes, path attributes, NLRI.

    Treated as immutable after construction: the wire encoding is
    memoized so the pack-once fan-out can hand one message object to
    hundreds of peers and only serialize it the first time.  The two
    NLRI blocks are kept as bytes beside their prefixes — sliced out of
    the body on decode, joined once on encode — so the RIB delta of a
    received UPDATE can persist the bytes that arrived.
    """

    msg_type = TYPE_UPDATE

    __slots__ = ("withdrawn", "attributes", "nlri", "_wire",
                 "_withdrawn_wire", "_nlri_wire")

    def __init__(self, withdrawn=(), attributes=None, nlri=(),
                 withdrawn_wire=None, nlri_wire=None):
        self.withdrawn = tuple(withdrawn)
        self.attributes = attributes  # PathAttributes or None (pure withdraw)
        self.nlri = tuple(nlri)
        self._wire = None
        self._withdrawn_wire = withdrawn_wire
        self._nlri_wire = nlri_wire

    @property
    def withdrawn_wire(self):
        """The withdrawn-routes block as it travels."""
        wire = self._withdrawn_wire
        if wire is None:
            wire = self._withdrawn_wire = encode_nlri_block(self.withdrawn)
        return wire

    @property
    def nlri_wire(self):
        """The NLRI block as it travels."""
        wire = self._nlri_wire
        if wire is None:
            wire = self._nlri_wire = encode_nlri_block(self.nlri)
        return wire

    def to_wire(self):
        wire = self._wire
        if wire is None:
            wire = self._wire = self._encode()
        return wire

    def _encode(self):
        withdrawn_wire = self.withdrawn_wire
        attrs_wire = self.attributes.to_wire() if self.attributes else b""
        body = (
            len(withdrawn_wire).to_bytes(2, "big")
            + withdrawn_wire
            + len(attrs_wire).to_bytes(2, "big")
            + attrs_wire
            + self.nlri_wire
        )
        wire = _header(self.msg_type, len(body)) + body
        if len(wire) > MAX_MESSAGE_SIZE:
            raise BgpError(
                NotificationCode.MESSAGE_HEADER_ERROR,
                HeaderSubcode.BAD_MESSAGE_LENGTH,
                message=f"UPDATE too large ({len(wire)}B); pack fewer routes",
            )
        return wire

    @classmethod
    def from_body(cls, body):
        size = len(body)
        attrs_at = 2 + int.from_bytes(body[0:2], "big")
        if attrs_at + 2 > size:
            raise _malformed_attribute_list("withdrawn routes length")
        nlri_at = attrs_at + 2 + int.from_bytes(body[attrs_at:attrs_at + 2], "big")
        if nlri_at > size:
            raise _malformed_attribute_list("total path attribute length")
        attributes = None
        if nlri_at > attrs_at + 2:
            attributes = PathAttributes.from_wire(body[attrs_at + 2:nlri_at])
        return cls(
            decode_nlri_block(body, AFI_IPV4, 2, attrs_at),
            attributes,
            decode_nlri_block(body, AFI_IPV4, nlri_at, size),
            withdrawn_wire=body[2:attrs_at],
            nlri_wire=body[nlri_at:],
        )

    def route_count(self):
        """Routing updates carried: announcements plus withdrawals."""
        return len(self.nlri) + len(self.withdrawn)

    def __eq__(self, other):
        return isinstance(other, UpdateMessage) and (
            self.withdrawn,
            self.attributes,
            self.nlri,
        ) == (other.withdrawn, other.attributes, other.nlri)

    def __repr__(self):
        return f"<Update +{len(self.nlri)} -{len(self.withdrawn)}>"


class NotificationMessage:
    """NOTIFICATION: fatal error report; the sender closes the session."""

    msg_type = TYPE_NOTIFICATION

    def __init__(self, code, subcode=0, data=b""):
        self.code = code
        self.subcode = subcode
        self.data = data

    def to_wire(self):
        body = bytes([int(self.code), int(self.subcode)]) + self.data
        return _header(self.msg_type, len(body)) + body

    @classmethod
    def from_body(cls, body):
        if len(body) < 2:
            raise BgpError(NotificationCode.MESSAGE_HEADER_ERROR, message="short NOTIFICATION")
        return cls(NotificationCode(body[0]), body[1], bytes(body[2:]))

    def __eq__(self, other):
        return isinstance(other, NotificationMessage) and (
            self.code,
            self.subcode,
            self.data,
        ) == (other.code, other.subcode, other.data)

    def __repr__(self):
        return f"<Notification {int(self.code)}/{self.subcode}>"


class KeepaliveMessage:
    """KEEPALIVE: header only (the wire image is a shared constant)."""

    msg_type = TYPE_KEEPALIVE

    __slots__ = ()

    _WIRE = None  # filled in below, after _header is usable

    def to_wire(self):
        return KeepaliveMessage._WIRE

    def __eq__(self, other):
        return isinstance(other, KeepaliveMessage)

    def __repr__(self):
        return "<Keepalive>"


KeepaliveMessage._WIRE = _header(TYPE_KEEPALIVE, 0)


class RouteRefreshMessage:
    """ROUTE-REFRESH (RFC 2918): ask the peer to re-advertise an AFI/SAFI."""

    msg_type = TYPE_ROUTE_REFRESH

    def __init__(self, afi=1, safi=1):
        self.afi = afi
        self.safi = safi

    def to_wire(self):
        body = self.afi.to_bytes(2, "big") + b"\x00" + bytes([self.safi])
        return _header(self.msg_type, len(body)) + body

    @classmethod
    def from_body(cls, body):
        if len(body) != 4:
            raise BgpError(NotificationCode.MESSAGE_HEADER_ERROR, message="bad ROUTE-REFRESH")
        return cls(int.from_bytes(body[0:2], "big"), body[3])

    def __eq__(self, other):
        return isinstance(other, RouteRefreshMessage) and (self.afi, self.safi) == (
            other.afi,
            other.safi,
        )

    def __repr__(self):
        return f"<RouteRefresh {self.afi}/{self.safi}>"


_BODY_DECODERS = {
    TYPE_OPEN: OpenMessage.from_body,
    TYPE_UPDATE: UpdateMessage.from_body,
    TYPE_NOTIFICATION: NotificationMessage.from_body,
    TYPE_KEEPALIVE: lambda body: KeepaliveMessage(),
    TYPE_ROUTE_REFRESH: RouteRefreshMessage.from_body,
}


def decode_message(wire):
    """Decode exactly one whole message from ``wire`` bytes."""
    messages = list(MessageDecoder().feed(wire))
    if len(messages) != 1:
        raise BgpError(
            NotificationCode.MESSAGE_HEADER_ERROR,
            HeaderSubcode.BAD_MESSAGE_LENGTH,
            message=f"expected 1 message, decoded {len(messages)}",
        )
    return messages[0][0]


class MessageDecoder:
    """Incremental decoder over a TCP byte stream.

    ``feed(data)`` yields ``(message, wire_size)`` pairs.  ``wire_size`` is
    the exact on-stream byte count of each message — the quantity TENSOR
    accumulates to infer the TCP ACK number for each message boundary.
    Partial trailing bytes are buffered until the next feed.
    """

    def __init__(self):
        self._buffer = bytearray()
        self.messages_decoded = 0
        self.bytes_consumed = 0

    @property
    def pending_bytes(self):
        """Bytes buffered that do not yet form a complete message."""
        return len(self._buffer)

    def pending_data(self):
        """The buffered partial-message bytes (TENSOR replicates these)."""
        return bytes(self._buffer)

    def prime(self, data):
        """Preload buffered bytes (recovery restores the partial tail).

        The bytes must not complete a message (they were pending when
        snapshotted); priming with completable bytes is a logic error.
        """
        leftovers = list(self.feed(data))
        if leftovers:
            raise ValueError("primed bytes completed a message")

    def feed(self, data):
        self._buffer.extend(data)
        while True:
            message, size = self._try_decode_one()
            if message is None:
                return
            self.messages_decoded += 1
            self.bytes_consumed += size
            yield message, size

    def _try_decode_one(self):
        buf = self._buffer
        if len(buf) < HEADER_SIZE:
            return None, 0
        if bytes(buf[:16]) != MARKER:
            raise BgpError(
                NotificationCode.MESSAGE_HEADER_ERROR,
                HeaderSubcode.CONNECTION_NOT_SYNCHRONIZED,
                message="bad marker",
            )
        length = int.from_bytes(buf[16:18], "big")
        if not HEADER_SIZE <= length <= MAX_MESSAGE_SIZE:
            raise BgpError(
                NotificationCode.MESSAGE_HEADER_ERROR,
                HeaderSubcode.BAD_MESSAGE_LENGTH,
                data=buf[16:18],
            )
        if len(buf) < length:
            return None, 0
        msg_type = buf[18]
        decoder = _BODY_DECODERS.get(msg_type)
        if decoder is None:
            raise BgpError(
                NotificationCode.MESSAGE_HEADER_ERROR,
                HeaderSubcode.BAD_MESSAGE_TYPE,
                data=bytes([msg_type]),
            )
        body = bytes(buf[HEADER_SIZE:length])
        del buf[:length]
        return decoder(body), length
