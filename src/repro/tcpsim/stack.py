"""The per-host TCP stack: port table, demux, egress path with hooks.

One :class:`TcpStack` per host (or per container network namespace).  The
egress path is where the Netfilter OUTPUT chain runs, and the per-segment
CPU cost model lives here: the paper's testbed sender is CPU-bound at
small write sizes, which is what produces the packet-size-dependent
thresholds of Fig. 5(a) (see repro.sim.calibration).
"""

import itertools

from repro.netfilter import HookChain, HookPoint, NfQueue, Verdict
from repro.sim.calibration import TCP_SENDER_SEGMENT_RATE
from repro.sim.network import Packet
from repro.tcpsim.connection import TcpConnection
from repro.tcpsim.segment import Segment
from repro.tcpsim.state import TcpState


#: CPU cost of emitting one data segment at the CPU-bound segment rate;
#: a pure control segment (ACK/SYN/FIN without payload) costs an eighth.
DATA_SEGMENT_COST = 1.0 / TCP_SENDER_SEGMENT_RATE
CONTROL_SEGMENT_COST = DATA_SEGMENT_COST / 8.0


class TcpStack:
    """TCP for one host: sockets, demux, Netfilter chains, CPU pacing.

    ``hook_technology`` is how the NFQUEUE hands packets to user space
    (``"netfilter"`` or ``"ebpf"``).
    """

    def __init__(self, engine, host, hook_technology="netfilter"):
        self.engine = engine
        self.host = host
        self.output_chain = HookChain(HookPoint.OUTPUT)
        self.nfqueue = NfQueue(engine, technology=hook_technology)
        self._listeners = {}
        self._connections = {}
        self._bound_ports = set()
        # own all TCP on the host: closed ports answer with RST, like a
        # real kernel (unless a Netfilter guard rule drops the RST)
        host.bind("tcp", None, self._on_packet)
        self._wildcard_bound = True
        self._ephemeral = itertools.count(49152)
        self._cpu_busy_until = 0.0
        self.destroyed = False

    # ------------------------------------------------------------------
    # socket API
    # ------------------------------------------------------------------

    def listen(self, port, on_accept):
        """Accept connections on ``port``; ``on_accept(conn)`` fires when a
        handshake completes."""
        self._ensure_port(port)
        self._listeners[port] = on_accept

    def connect(self, remote_addr, remote_port, local_port=None, on_established=None):
        """Active open.  Returns the new connection immediately; the
        ``on_established`` callback fires when the handshake completes."""
        if local_port is None:
            local_port = next(self._ephemeral)
        self._ensure_port(local_port)
        conn = TcpConnection(self, local_port, remote_addr, remote_port)
        conn.on_established = on_established
        self._register(conn)
        conn.open_active()
        return conn

    def _ensure_port(self, port):
        if port not in self._bound_ports:
            self.host.bind("tcp", port, self._on_packet)
            self._bound_ports.add(port)

    def _register(self, conn):
        key = (conn.local_port, conn.remote_addr, conn.remote_port)
        self._connections[key] = conn

    def forget(self, conn):
        key = (conn.local_port, conn.remote_addr, conn.remote_port)
        if self._connections.get(key) is conn:
            del self._connections[key]

    def notify_accepted(self, conn):
        on_accept = self._listeners.get(conn.local_port)
        if on_accept is not None:
            on_accept(conn)

    def next_isn(self):
        """Deterministic ISN generator (stands in for the RFC 6528 hash).

        Engine-scoped: ISNs are unique within one simulated deployment
        and independent of other simulations sharing the OS process.
        """
        return 1_000_000 + 64_000 * self.engine.next_id("tcp.isn", 1)

    def adopt(self, conn):
        """Register an externally built connection (TCP repair import)."""
        self._ensure_port(conn.local_port)
        self._register(conn)

    # ------------------------------------------------------------------
    # egress: OUTPUT hook chain -> NFQUEUE or wire
    # ------------------------------------------------------------------

    def emit(self, conn, segment):
        if self.destroyed:
            return
        packet = Packet(
            src=self.host.address,
            dst=conn.remote_addr,
            protocol="tcp",
            sport=conn.local_port,
            dport=conn.remote_port,
            payload=segment,
            size=segment.wire_size,
        )
        verdict, queue_num = self.output_chain.evaluate(packet)
        if verdict is Verdict.DROP:
            return
        if verdict is Verdict.QUEUE:
            self.nfqueue.enqueue(queue_num, packet, self._transmit)
            return
        self._transmit(packet)

    def _transmit(self, packet):
        """Charge the CPU pacing cost and put the packet on the wire."""
        if self.destroyed:
            return
        segment = packet.payload
        cost = DATA_SEGMENT_COST if segment.payload else CONTROL_SEGMENT_COST
        now = self.engine.now
        start = max(now, self._cpu_busy_until)
        self._cpu_busy_until = start + cost
        self.engine.schedule(self._cpu_busy_until - now, self.host.send, packet)

    # ------------------------------------------------------------------
    # ingress: demux
    # ------------------------------------------------------------------

    def _on_packet(self, packet):
        if self.destroyed:
            return
        segment = packet.payload
        key = (packet.dport, packet.src, packet.sport)
        conn = self._connections.get(key)
        if conn is not None:
            conn.on_segment(segment)
            return
        if segment.syn and not segment.has_ack and packet.dport in self._listeners:
            conn = TcpConnection(self, packet.dport, packet.src, packet.sport)
            self._register(conn)
            conn.open_passive(segment)
            return
        if not segment.rst:
            self._send_rst_for(packet)

    def _send_rst_for(self, packet):
        segment = packet.payload
        if segment.has_ack:
            rst = Segment(segment.ack, 0, Segment.RST, 0)
        else:
            rst = Segment(0, segment.seq + segment.seq_space, Segment.RST | Segment.ACK, 0)
        reply = Packet(
            src=self.host.address,
            dst=packet.src,
            protocol="tcp",
            sport=packet.dport,
            dport=packet.sport,
            payload=rst,
            size=rst.wire_size,
        )
        self._transmit(reply)

    # ------------------------------------------------------------------
    # crash semantics
    # ------------------------------------------------------------------

    def destroy(self):
        """Abrupt death (process/container crash): no FINs, no RSTs.

        Connections simply stop responding, exactly what a peer of a
        crashed router observes; held NFQUEUE ACKs die with the stack.
        """
        self.destroyed = True
        for conn in list(self._connections.values()):
            conn.state = TcpState.CLOSED
            conn._rexmit_timer.stop()
            conn._persist_timer.stop()
            conn._time_wait_timer.stop()
        self._connections.clear()
        for port in self._bound_ports:
            self.host.unbind("tcp", port)
        self._bound_ports.clear()
        if self._wildcard_bound:
            self.host.unbind("tcp", None)
            self._wildcard_bound = False

    def __repr__(self):
        return f"<TcpStack {self.host.name} conns={len(self._connections)}>"
