"""The per-container BFD process and the agent-side relay.

:class:`BfdProcess` runs real two-way sessions (one per VRF, mapped
one-to-one onto the BGP process's VRFs).  :class:`BfdRelay` is the agent
server's transmit-only duplicate: it keeps emitting UP keepalives with
the primary's discriminators and *source address* so that "the remote
end-host does not acknowledge the local failures" while the primary is
being migrated (§3.3.2).
"""

from repro.bfd.packet import BFD_PACKET_SIZE, BFD_PORT, BfdPacket, BfdState
from repro.bfd.session import BfdSession
from repro.sim.calibration import BFD_DETECT_MULT, BFD_TX_INTERVAL
from repro.sim.process import Timer
from repro.sim.rpc import DatagramSocket


class BfdProcess:
    """All BFD sessions of one container (one per VRF)."""

    def __init__(self, engine, host, rng=None, port=BFD_PORT):
        self.engine = engine
        self.host = host
        self.port = port
        self.rng = rng
        self.socket = DatagramSocket(host, port, protocol="udp")
        self.socket.on_receive = self._on_datagram
        self.sessions = {}  # (vrf, remote_addr) -> BfdSession
        self.alive = True
        self.on_exit = None  # called when the process dies (crash or stop)

    def add_session(self, vrf, remote_addr, on_state_change=None,
                    tx_interval=BFD_TX_INTERVAL, detect_mult=BFD_DETECT_MULT,
                    my_disc=None, your_disc=0, initial_state=None):
        session = BfdSession(
            self.engine,
            self._transmit,
            vrf,
            remote_addr,
            tx_interval=tx_interval,
            detect_mult=detect_mult,
            on_state_change=on_state_change,
            rng=self.rng,
            my_disc=my_disc,
            your_disc=your_disc,
            initial_state=initial_state if initial_state is not None else 1,
        )
        self.sessions[(vrf, remote_addr)] = session
        return session

    def start(self):
        for session in self.sessions.values():
            session.start()

    def _transmit(self, remote_addr, packet):
        if self.alive:
            self.socket.sendto(remote_addr, self.port, packet, size=BFD_PACKET_SIZE)

    def _on_datagram(self, src_addr, _src_port, packet):
        if not self.alive:
            return
        session = self.sessions.get((packet.vrf, src_addr))
        if session is not None:
            session.on_packet(packet)

    def session_states(self):
        return {key: session.state for key, session in self.sessions.items()}

    def crash(self):
        """Process death: all sessions stop transmitting at once."""
        self.alive = False
        for session in self.sessions.values():
            session.crash()
        if self.on_exit is not None:
            self.on_exit()

    def stop(self):
        self.alive = False
        for session in self.sessions.values():
            session.stop()
        self.socket.close()
        if self.on_exit is not None:
            self.on_exit()

    def export_relay_specs(self):
        """What the agent needs to mimic our sessions: one spec per VRF."""
        return [
            {
                "vrf": session.vrf,
                "remote_addr": session.remote_addr,
                "source_addr": self.host.address,
                "my_disc": session.my_disc,
                "your_disc": session.your_disc,
                "tx_interval": session.tx_interval,
                "detect_mult": session.detect_mult,
            }
            for session in self.sessions.values()
        ]


class BfdRelay:
    """A transmit-only BFD duplicate running on the agent server.

    It emits UP control packets for one primary container's sessions,
    spoofing the primary's service address.  While the primary is alive
    both transmit concurrently (harmless: the remote just sees a faster
    aggregate rate); when the primary dies the relay alone keeps the
    remote's detection timer from expiring.
    """

    def __init__(self, engine, host, specs, port=BFD_PORT, rng=None):
        self.engine = engine
        self.host = host
        self.port = port
        self.rng = rng
        self.socket = DatagramSocket(host, _relay_port(engine), protocol="udp")
        self.specs = list(specs)
        self._timers = []
        self.running = False
        self.packets_sent = 0

    def start(self):
        self.running = True
        for spec in self.specs:
            timer = Timer(self.engine, lambda s=spec: self._tx(s), "bfd-relay")
            self._timers.append((timer, spec))
            timer.start(0.0)

    def _tx(self, spec):
        if not self.running:
            return
        packet = BfdPacket(
            state=BfdState.UP,
            my_disc=spec["my_disc"],
            your_disc=spec["your_disc"],
            desired_min_tx=spec["tx_interval"],
            required_min_rx=spec["tx_interval"],
            detect_mult=spec["detect_mult"],
            vrf=spec["vrf"],
        )
        self.packets_sent += 1
        self.socket.sendto(
            spec["remote_addr"],
            self.port,
            packet,
            size=BFD_PACKET_SIZE,
            src_override=spec["source_addr"],
        )
        jitter = self._jitter()
        for timer, timer_spec in self._timers:
            if timer_spec is spec:
                timer.start(spec["tx_interval"] * (1.0 - jitter))
                return

    def _jitter(self):
        return self.rng.random() * 0.25 if self.rng else 0.125

    def update_specs(self, specs):
        """Refresh relayed sessions (e.g. after the primary re-registers)."""
        self.stop()
        self.specs = list(specs)
        self.start()

    def stop(self):
        self.running = False
        for timer, _spec in self._timers:
            timer.stop()
        self._timers.clear()


def _relay_port(engine):
    """Relays source packets from distinct local ports (they never need
    replies; the spoofed source address is the point).  Engine-scoped so
    co-hosted simulations never share allocation state."""
    return 34784 + ((40001 + engine.next_id("bfd.relay_port")) % 20000)
