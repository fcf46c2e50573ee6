"""The connection snapshot ``import_tcp_state`` is tested against.

The system never exports a live socket: recovery rebuilds a
:class:`~repro.tcpsim.repair.TcpRepairState` from the database.  Tests
take one straight from a synchronized connection instead, to check
that an import reproduces it.
"""

from repro.tcpsim.repair import TcpRepairState


def export_tcp_state(conn):
    """Snapshot ``conn`` (must be synchronized)."""
    if not conn.state.is_synchronized():
        raise ValueError(f"cannot export {conn.state.value} connection")
    return TcpRepairState(
        local_addr=conn.local_addr,
        local_port=conn.local_port,
        remote_addr=conn.remote_addr,
        remote_port=conn.remote_port,
        iss=conn.iss,
        irs=conn.irs,
        snd_una=conn.snd_una,
        rcv_nxt=conn.rcv_nxt,
        snd_wnd=conn.snd_wnd,
        mss=conn.mss,
        send_queue=bytes(conn._send_buffer),
    )
