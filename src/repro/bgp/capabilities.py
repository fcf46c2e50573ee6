"""BGP capabilities (RFC 5492) carried in OPEN optional parameters.

We implement the capabilities the paper's environment depends on:
multiprotocol (IPv4/IPv6 unicast — the paper's key layout uses
"IPv6-based TCP connection"s), route refresh and 4-octet AS numbers.
Graceful restart (§2.1) is the planned-restart mechanism NSR replaces,
so a peer's GR capability is skipped like any other unknown one.
"""

CAP_MULTIPROTOCOL = 1
CAP_ROUTE_REFRESH = 2
CAP_FOUR_OCTET_AS = 65

SAFI_UNICAST = 1


class Capabilities:
    """The capability set announced in an OPEN message."""

    def __init__(
        self,
        afis=((1, SAFI_UNICAST),),
        route_refresh=True,
        four_octet_as=None,
    ):
        self.afis = tuple(afis)  # (afi, safi) pairs for multiprotocol
        self.route_refresh = route_refresh
        self.four_octet_as = four_octet_as  # the 4-byte ASN, or None

    def to_wire(self):
        """Encode as one OPEN optional parameter (type 2, capabilities)."""
        caps = bytearray()
        for afi, safi in self.afis:
            value = afi.to_bytes(2, "big") + b"\x00" + bytes([safi])
            caps += bytes([CAP_MULTIPROTOCOL, len(value)]) + value
        if self.route_refresh:
            caps += bytes([CAP_ROUTE_REFRESH, 0])
        if self.four_octet_as is not None:
            caps += bytes([CAP_FOUR_OCTET_AS, 4]) + self.four_octet_as.to_bytes(4, "big")
        if not caps:
            return b""
        return bytes([2, len(caps)]) + bytes(caps)

    @classmethod
    def from_wire(cls, data):
        """Decode from the OPEN optional-parameters blob."""
        afis = []
        route_refresh = False
        four_octet_as = None
        offset = 0
        while offset + 2 <= len(data):
            param_type = data[offset]
            param_len = data[offset + 1]
            body = data[offset + 2 : offset + 2 + param_len]
            offset += 2 + param_len
            if param_type != 2:
                continue  # non-capability optional parameter: ignored
            inner = 0
            while inner + 2 <= len(body):
                cap_code = body[inner]
                cap_len = body[inner + 1]
                value = body[inner + 2 : inner + 2 + cap_len]
                inner += 2 + cap_len
                if cap_code == CAP_MULTIPROTOCOL and len(value) == 4:
                    afis.append((int.from_bytes(value[:2], "big"), value[3]))
                elif cap_code == CAP_ROUTE_REFRESH:
                    route_refresh = True
                elif cap_code == CAP_FOUR_OCTET_AS and len(value) == 4:
                    four_octet_as = int.from_bytes(value, "big")
        return cls(
            afis=tuple(afis) or ((1, SAFI_UNICAST),),
            route_refresh=route_refresh,
            four_octet_as=four_octet_as,
        )

    def __eq__(self, other):
        return isinstance(other, Capabilities) and (
            self.afis,
            self.route_refresh,
            self.four_octet_as,
        ) == (
            other.afis,
            other.route_refresh,
            other.four_octet_as,
        )

    def __repr__(self):
        return (
            f"<Capabilities afis={self.afis} rr={self.route_refresh}"
            f" as4={self.four_octet_as}>"
        )
