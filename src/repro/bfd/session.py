"""One BFD session (asynchronous mode state machine)."""

from repro.bfd.packet import BfdPacket, BfdState
from repro.sim.calibration import BFD_DETECT_MULT, BFD_TX_INTERVAL
from repro.sim.process import Timer


class BfdSession:
    """Asynchronous-mode BFD with a remote peer in one VRF.

    ``on_state_change(session, old_state, new_state)`` is the IPC the BGP
    process subscribes to ("The BFD process will report the link failure
    (of the corresponding VRF) to the BGP process through inter-process
    communication", §3.3.2).
    """

    def __init__(
        self,
        engine,
        transmit,
        vrf,
        remote_addr,
        tx_interval=BFD_TX_INTERVAL,
        detect_mult=BFD_DETECT_MULT,
        on_state_change=None,
        rng=None,
        my_disc=None,
        your_disc=0,
        initial_state=BfdState.DOWN,
    ):
        self.engine = engine
        self._transmit = transmit  # fn(remote_addr, BfdPacket)
        self.vrf = vrf
        self.remote_addr = remote_addr
        self.tx_interval = tx_interval
        self.detect_mult = detect_mult
        self.on_state_change = on_state_change
        self._rng = rng

        # A recovered backup must reuse the failed primary's
        # discriminators and resume in UP, or the remote would see a
        # session bounce — the transparency NSR requires.
        self.state = BfdState(initial_state)
        # Discriminators are engine-scoped (unique within one simulated
        # deployment) rather than process-global, so a simulation's wire
        # state never depends on what else shares its OS process.
        self.my_disc = (
            my_disc if my_disc is not None else engine.next_id("bfd.disc", 1)
        )
        self.your_disc = your_disc
        self.remote_min_rx = tx_interval

        self._tx_timer = Timer(engine, self._on_tx_due, "bfd-tx")
        self._detect_timer = Timer(engine, self._on_detect_expired, "bfd-detect")
        self.running = False
        self.packets_sent = 0
        self.packets_received = 0
        self.state_changes = []  # (time, old, new)
        self.last_down_at = None

    # ------------------------------------------------------------------

    @property
    def detection_time(self):
        return self.detect_mult * max(self.tx_interval, self.remote_min_rx)

    def start(self):
        self.running = True
        self._schedule_tx(immediate=True)

    def stop(self):
        """Administrative stop (not a crash — no DOWN is signalled)."""
        self.running = False
        self._tx_timer.stop()
        self._detect_timer.stop()

    def crash(self):
        """Process death: transmissions simply cease."""
        self.stop()

    # ------------------------------------------------------------------
    # transmit
    # ------------------------------------------------------------------

    def _schedule_tx(self, immediate=False):
        if not self.running:
            return
        if immediate:
            delay = 0.0
        else:
            # RFC 5880 §6.8.7: jitter the interval by 0-25% to avoid
            # self-synchronization.
            jitter = self._rng.random() * 0.25 if self._rng else 0.125
            delay = self.tx_interval * (1.0 - jitter)
        self._tx_timer.start(delay)

    def _on_tx_due(self):
        if not self.running:
            return
        self.packets_sent += 1
        self._transmit(self.remote_addr, self._make_packet())
        self._schedule_tx()

    def _make_packet(self):
        return BfdPacket(
            state=self.state,
            my_disc=self.my_disc,
            your_disc=self.your_disc,
            desired_min_tx=self.tx_interval,
            required_min_rx=self.tx_interval,
            detect_mult=self.detect_mult,
            vrf=self.vrf,
        )

    # ------------------------------------------------------------------
    # receive
    # ------------------------------------------------------------------

    def on_packet(self, packet):
        if not self.running:
            return
        self.packets_received += 1
        self.your_disc = packet.my_disc
        self.remote_min_rx = packet.required_min_rx
        if packet.state is BfdState.ADMIN_DOWN:
            self._set_state(BfdState.DOWN)
            return
        self._detect_timer.restart(self.detection_time)
        if self.state is BfdState.DOWN:
            if packet.state is BfdState.DOWN:
                self._set_state(BfdState.INIT)
            elif packet.state is BfdState.INIT:
                self._set_state(BfdState.UP)
        elif self.state is BfdState.INIT:
            if packet.state in (BfdState.INIT, BfdState.UP):
                self._set_state(BfdState.UP)
        elif self.state is BfdState.UP:
            if packet.state is BfdState.DOWN:
                self._set_state(BfdState.DOWN)

    def _on_detect_expired(self):
        if self.state is not BfdState.DOWN:
            self._set_state(BfdState.DOWN)

    def _set_state(self, new_state):
        if new_state is self.state:
            return
        old, self.state = self.state, new_state
        self.state_changes.append((self.engine.now, old, new_state))
        if old is BfdState.UP:
            self.last_down_at = self.engine.now
        if self.on_state_change is not None:
            self.on_state_change(self, old, new_state)
        # A state change warrants an immediate transmit so the peer
        # converges fast (poll sequence simplified away).
        if self.running:
            self._schedule_tx(immediate=True)

    def __repr__(self):
        return f"<BfdSession vrf={self.vrf} peer={self.remote_addr} {self.state.name}>"
