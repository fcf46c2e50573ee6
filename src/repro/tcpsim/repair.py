"""TCP_REPAIR-style state export and import.

Linux's ``TCP_REPAIR`` socket option lets a privileged process read a live
socket's sequence state and later rebuild an equivalent socket elsewhere
without any packets being exchanged.  The paper uses it at connection
start to learn the initial SEQ/ACK numbers (§3.1.2) and, by extension, to
rebuild the connection on the backup router during migration.

A :class:`TcpRepairState` snapshots a connection (recovery rebuilds one
from the database); ``import_tcp_state`` rebuilds the connection inside
another stack.  The imported connection restarts with nothing in
flight: every byte past the peer's last cumulative ACK is queued for
(re)transmission, and the peer's own retransmissions cover the opposite
direction.  This is exactly why TENSOR only needs the *unapplied* messages
in the database — TCP retransmission repairs the rest.
"""

from repro.tcpsim.connection import TcpConnection
from repro.tcpsim.state import TcpState


class TcpRepairState:
    """A serializable snapshot of one connection endpoint."""

    FIELDS = (
        "local_addr",
        "local_port",
        "remote_addr",
        "remote_port",
        "iss",
        "irs",
        "snd_una",
        "rcv_nxt",
        "snd_wnd",
        "mss",
        "send_queue",
    )

    def __init__(self, **kwargs):
        for field in self.FIELDS:
            setattr(self, field, kwargs[field])

    def to_dict(self):
        data = {field: getattr(self, field) for field in self.FIELDS}
        data["send_queue"] = bytes(data["send_queue"])
        return data

    @classmethod
    def from_dict(cls, data):
        return cls(**{field: data[field] for field in cls.FIELDS})

    def __eq__(self, other):
        return isinstance(other, TcpRepairState) and self.to_dict() == other.to_dict()

    def __repr__(self):
        return (
            f"<TcpRepairState {self.local_addr}:{self.local_port}->"
            f"{self.remote_addr}:{self.remote_port} una={self.snd_una}"
            f" rcv={self.rcv_nxt} queued={len(self.send_queue)}B>"
        )


def import_tcp_state(stack, state):
    """Rebuild a connection inside ``stack`` from a repair snapshot.

    The stack's host must answer for ``state.local_addr`` (the underlay
    rebinding the service address to the backup is what makes this true).
    Call :func:`resume_connection` afterwards to start catching up.
    """
    if stack.host.address != state.local_addr:
        raise ValueError(
            f"stack host address {stack.host.address} does not answer for"
            f" repaired local address {state.local_addr}"
        )
    conn = TcpConnection(stack, state.local_port, state.remote_addr, state.remote_port)
    conn.iss = state.iss
    conn.irs = state.irs
    conn.snd_una = state.snd_una
    conn.snd_nxt = state.snd_una  # nothing in flight; queue retransmits all
    conn.rcv_nxt = state.rcv_nxt
    conn.snd_wnd = max(state.snd_wnd, conn.mss)
    conn.mss = state.mss
    conn.cc.mss = state.mss
    conn._send_buffer = bytearray(state.send_queue)
    conn.state = TcpState.ESTABLISHED
    conn.established_at = stack.engine.now
    stack.adopt(conn)
    return conn


def resume_connection(conn):
    """Kick a repaired connection: probe the peer and push queued bytes.

    The pure ACK tells the peer our receive position (it retransmits
    anything newer), and the send path re-emits every queued byte.
    """
    conn._send_pure_ack()
    conn._try_send()
    if conn.bytes_in_flight > 0:
        conn._arm_rexmit()
