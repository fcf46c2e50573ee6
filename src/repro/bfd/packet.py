"""BFD control packet (RFC 5880 §4.1, simplified fields).

Simplification: instead of demultiplexing purely on discriminators, the
packet carries the VRF name explicitly.  Real BFD bootstraps the mapping
with your_discr=0 packets; carrying the VRF keeps the demux logic out of
the way of what the paper evaluates while preserving the discriminator
handshake for state validation.
"""

import enum

BFD_PORT = 3784
BFD_PACKET_SIZE = 66  # Ethernet+IP+UDP headers + 24-byte BFD control


class BfdState(enum.IntEnum):
    ADMIN_DOWN = 0
    DOWN = 1
    INIT = 2
    UP = 3


class BfdPacket:
    """One BFD control packet; ``state`` is a :class:`BfdState`."""

    __slots__ = (
        "state",
        "my_disc",
        "your_disc",
        "desired_min_tx",
        "required_min_rx",
        "detect_mult",
        "vrf",
    )

    def __init__(
        self,
        state,
        my_disc,
        your_disc,
        desired_min_tx,
        required_min_rx,
        detect_mult,
        vrf,
    ):
        self.state = state
        self.my_disc = my_disc
        self.your_disc = your_disc
        self.desired_min_tx = desired_min_tx
        self.required_min_rx = required_min_rx
        self.detect_mult = detect_mult
        self.vrf = vrf

    def __repr__(self):
        return (
            f"<BfdPacket {self.state.name} my={self.my_disc}"
            f" your={self.your_disc} vrf={self.vrf}>"
        )
