"""Peer configuration and the per-peer session runtime.

A :class:`PeerSession` owns one TCP connection, the stream decoder, the
hold/keepalive timers and the per-peer RIBs.  All message processing is
dispatched through the owning speaker's CPU model, and all sends go
through speaker hooks so the TENSOR subclass can interpose replication.
"""

from repro.bgp import fsm
from repro.bgp.errors import BgpError, NotificationCode, OpenSubcode
from repro.bgp.messages import (
    BGP_PORT,
    KeepaliveMessage,
    MessageDecoder,
    NotificationMessage,
    OpenMessage,
    RouteRefreshMessage,
    UpdateMessage,
)
from repro.bgp.multiprotocol import mp_routes_of
from repro.bgp.policy import PERMIT_ALL
from repro.bgp.prefixes import encode_nlri_block, prefix_afi
from repro.bgp.rib import AdjRibIn, AdjRibOut, Path
from repro.sim.process import Timer

CONNECT_RETRY_INTERVAL = 5.0


class PeerConfig:
    """Static configuration for one BGP neighbour."""

    def __init__(
        self,
        remote_addr,
        remote_as,
        vrf_name="default",
        mode="active",
        remote_port=BGP_PORT,
        hold_time=90,
        keepalive_interval=30,
        import_policy=None,
        export_policy=None,
        mrai=None,
    ):
        if mode not in ("active", "passive"):
            raise ValueError(f"bad session mode {mode!r}")
        self.remote_addr = remote_addr
        self.remote_as = remote_as
        self.vrf_name = vrf_name
        self.mode = mode
        self.remote_port = remote_port
        self.hold_time = hold_time
        self.keepalive_interval = keepalive_interval
        self.import_policy = import_policy or PERMIT_ALL
        self.export_policy = export_policy or PERMIT_ALL
        #: Per-peer MRAI override, effective when the owning speaker runs
        #: in a per-peer mode (``SpeakerConfig.mrai_mode != "per_speaker"``);
        #: ``None`` inherits the speaker-level interval.
        self.mrai = mrai
        #: Nothing reassigns ``vrf_name`` or ``remote_addr`` after
        #: construction, so the identity is rendered once, not per read.
        self.peer_id = f"{vrf_name}:{remote_addr}"


class PeerSession:
    """Runtime state of one BGP neighbour relationship."""

    def __init__(self, speaker, config):
        self.speaker = speaker
        self.config = config
        self.engine = speaker.engine
        self.peer_id = config.peer_id
        self.state = fsm.SessionState.IDLE
        self.conn = None
        self.decoder = MessageDecoder()
        self.adj_rib_in = AdjRibIn(config.peer_id)
        self.adj_rib_out = AdjRibOut(config.peer_id)
        self.negotiated_hold_time = config.hold_time

        self.hold_timer = Timer(self.engine, self._on_hold_expired, "bgp-hold")
        self.keepalive_timer = Timer(self.engine, self._on_keepalive_due, "bgp-ka")
        self.retry_timer = Timer(self.engine, self._retry_connect, "bgp-retry")

        # Stream accounting for TENSOR's ACK inference.
        self.initial_ack = None  # peer's iss + 1
        self.cumulative_received = 0  # whole-message bytes consumed

        # Tracing: when the bytes of the message currently being decoded
        # started arriving (spans TCP segment reassembly), and the arrival
        # instant of the message most recently handed to dispatch.
        self._trace_rx_since = None
        self.last_rx_began = None

        # Statistics
        self.messages_received = 0
        self.messages_sent = 0
        self.updates_received = 0
        self.routes_learned = 0
        self.established_at = None
        self.last_down_at = None
        self.session_drops = 0

    # ------------------------------------------------------------------
    # identity / properties
    # ------------------------------------------------------------------

    @property
    def vrf(self):
        return self.speaker.vrfs[self.config.vrf_name]

    @property
    def source_kind(self):
        return "ibgp" if self.config.remote_as == self.speaker.config.local_as else "ebgp"

    @property
    def established(self):
        return self.state is fsm.SessionState.ESTABLISHED

    def _set_state(self, target):
        self.state = fsm.transition(self.state, target)

    # ------------------------------------------------------------------
    # bring-up
    # ------------------------------------------------------------------

    def start(self):
        if self.config.mode == "active":
            self._connect()
        # passive sessions wait for the speaker's listener to attach a conn

    def _connect(self):
        self._set_state(fsm.SessionState.CONNECT)
        self.conn = self.speaker.stack.connect(
            self.config.remote_addr,
            self.config.remote_port,
            on_established=self._on_tcp_established,
        )
        self._wire_conn_callbacks()

    def _retry_connect(self):
        if self.state is fsm.SessionState.IDLE and self.speaker.running:
            self._connect()

    def attach_connection(self, conn):
        """Passive side: the listener accepted a connection from our peer."""
        self._set_state(fsm.SessionState.CONNECT)
        self.conn = conn
        self._wire_conn_callbacks()
        self._on_tcp_established(conn)

    def _wire_conn_callbacks(self):
        self.conn.on_data = self._on_bytes
        self.conn.on_reset = self._on_tcp_reset
        self.conn.on_close = self._on_tcp_closed

    def _on_tcp_established(self, conn):
        # TCP_REPAIR at connect time: learn the initial ACK number
        # ("we use the TCP_REPAIR option to obtain the initial SEQ and ACK
        #  numbers along with other necessary information", §3.1.2).
        self.initial_ack = conn.irs + 1
        self.decoder = MessageDecoder()
        self.cumulative_received = 0
        self.speaker.tcp_established(self)
        self._set_state(fsm.SessionState.OPEN_SENT)
        self.send_message(
            OpenMessage(
                self.speaker.config.local_as,
                self.config.hold_time,
                self.speaker.config.router_id_int,
                self.speaker.make_capabilities(self.config),
            )
        )

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------

    def _on_bytes(self, _conn, data):
        if self.hold_timer.armed:
            self.hold_timer.restart(self.negotiated_hold_time)
        tracing = self.engine._trace_hook is not None
        if tracing and self._trace_rx_since is None:
            # First bytes of a fresh message (multi-segment messages keep
            # the mark from the segment that started them).
            self._trace_rx_since = self.engine.now
        try:
            for message, size in self.decoder.feed(data):
                self.cumulative_received += size
                self.messages_received += 1
                if tracing:
                    self.last_rx_began = self._trace_rx_since
                    # any further message in this batch arrived with this
                    # segment
                    self._trace_rx_since = self.engine.now
                self.speaker.dispatch_received(self, message, size)
        except BgpError as error:
            # RFC 4271 §6: a malformed message ends the session with the
            # NOTIFICATION that names what was wrong with it.
            self.speaker.log(f"{self.peer_id}: protocol error: {error}")
            self.send_message(NotificationMessage(error.code, error.subcode,
                                                  bytes(error.data)))
            self._drop_session()
            return
        if tracing and self.decoder.pending_bytes == 0:
            self._trace_rx_since = None
        self.speaker.stream_progress(self)

    @property
    def inferred_ack_number(self):
        """The TCP ACK number covering every whole message received.

        initial peer SEQ + 1 (SYN) + cumulative whole-message bytes —
        the paper's inference, computed without reading TCP headers.
        """
        if self.initial_ack is None:
            return None
        return self.initial_ack + self.cumulative_received

    def handle_message(self, message, size):
        """Apply one decoded message (runs after the CPU-cost charge).

        An UPDATE applied on an established session returns the runs it
        stored (:meth:`_handle_update`); everything else returns None.
        """
        if isinstance(message, UpdateMessage):
            return self._handle_update(message)
        if isinstance(message, OpenMessage):
            self._handle_open(message)
        elif isinstance(message, KeepaliveMessage):
            self._handle_keepalive()
        elif isinstance(message, NotificationMessage):
            self.speaker.log(f"{self.peer_id}: NOTIFICATION {message!r}")
            self._drop_session()
        elif isinstance(message, RouteRefreshMessage):
            self.speaker.readvertise(self)

    def _handle_open(self, message):
        if message.asn != self.config.remote_as:
            self.send_message(
                NotificationMessage(
                    NotificationCode.OPEN_MESSAGE_ERROR, OpenSubcode.BAD_PEER_AS
                )
            )
            self._drop_session()
            return
        self.negotiated_hold_time = min(self.config.hold_time, message.hold_time)
        self._set_state(fsm.SessionState.OPEN_CONFIRM)
        self.send_message(KeepaliveMessage())

    def _handle_keepalive(self):
        if self.state is fsm.SessionState.OPEN_CONFIRM:
            self._set_state(fsm.SessionState.ESTABLISHED)
            self.established_at = self.engine.now
            if self.negotiated_hold_time:
                self.hold_timer.start(self.negotiated_hold_time)
                self.keepalive_timer.start(self._keepalive_interval())
            self.speaker.session_established(self)

    def _handle_update(self, message):
        """Apply one UPDATE to the Adj-RIB-In and the Loc-RIB.

        Returns what it stored, as the two run lists of a RIB delta
        (:meth:`repro.core.replication.ReplicationPipeline.record_rib_delta`)
        — or None when the session is not established and nothing was
        applied.
        """
        if not self.established:
            return None
        vrf = self.vrf
        changes = []
        withdrawn_runs = []
        announced_runs = []
        if message.withdrawn:
            self._withdraw_routes(message.withdrawn, message.withdrawn_wire,
                                  vrf, changes, withdrawn_runs)
            self.updates_received += len(message.withdrawn)
        if message.nlri:
            self.updates_received += len(message.nlri)
            self._learn_routes(message.nlri, message.nlri_wire,
                               message.attributes, vrf, changes, announced_runs)
        self._handle_mp_routes(message, vrf, changes, withdrawn_runs,
                               announced_runs)
        # A loop-rejected NLRI half does not take the withdrawals (or an
        # earlier family's routes) down with it: whatever changed is
        # propagated.
        if changes:
            self.speaker.best_paths_changed(self, changes)
        return withdrawn_runs, announced_runs

    def _withdraw_routes(self, prefixes, block_wire, vrf, changes, runs):
        """Retract ``prefixes`` (one withdrawn block, ``block_wire`` on
        the wire) and record the block as one withdraw run."""
        peer_id = self.peer_id
        withdraw = self.adj_rib_in.withdraw
        retract = vrf.loc_rib.retract
        for prefix in prefixes:
            if withdraw(prefix) is not None:
                old, new = retract(prefix, peer_id)
                changes.append((prefix, old, new))
        runs.append((prefix_afi(prefixes[0]), block_wire, peer_id))

    def _learn_routes(self, prefixes, block_wire, attributes, vrf, changes,
                      runs):
        """Import ``prefixes`` (one NLRI block, ``block_wire`` on the
        wire) sharing ``attributes`` into the Adj-RIB-In, offer them to
        the Loc-RIB, and record each run of routes sharing post-policy
        attributes in ``runs``.  A run's prefixes share one
        :class:`~repro.bgp.rib.Path`.  Returns False when the whole set is
        rejected by eBGP loop detection: our AS in the path means
        reject, scoped to eBGP sessions per RFC 4271 — iBGP paths
        legitimately circulate inside the AS.

        The import route map is evaluated once for the block when none
        of its clauses can tell one prefix from another; the one run is
        then the block itself, bytes reused.  Otherwise each prefix gets
        its own verdict and the survivors are re-joined run by run.
        """
        source_kind = self.source_kind
        if (source_kind == "ebgp"
                and attributes.as_path.contains(self.speaker.config.local_as)):
            return False
        policy = self.config.import_policy
        if policy.prefix_independent:
            imported = policy.evaluate(None, attributes)
            kept = [] if imported is None else [(imported, prefixes)]
        else:
            kept = []  # [(post-policy attributes, [prefix, ...])], in order
            evaluate = policy.evaluate
            for prefix in prefixes:
                imported = evaluate(prefix, attributes)
                if imported is None:
                    continue
                if not kept or imported != kept[-1][0]:
                    kept.append((imported, []))
                kept[-1][1].append(prefix)
        peer_id = self.peer_id
        afi = prefix_afi(prefixes[0])
        store_run = self.adj_rib_in.store_run
        offer = vrf.loc_rib.offer
        learned = 0
        for imported, run in kept:
            path = Path(imported, peer_id, source_kind)
            store_run(run, path)
            for prefix in run:
                old, new = offer(prefix, path)
                changes.append((prefix, old, new))
            learned += len(run)
            wire = (block_wire if len(run) == len(prefixes)
                    else encode_nlri_block(run))
            runs.append((afi, wire, imported.to_wire(), peer_id, source_kind))
        self.routes_learned += learned
        return True

    def _handle_mp_routes(self, message, vrf, changes, withdrawn_runs,
                          announced_runs):
        """IPv6 reachability carried in MP_REACH/MP_UNREACH (RFC 4760)."""
        if message.attributes is None or not message.attributes.unknown:
            return
        reach, unreach = mp_routes_of(message.attributes)
        if unreach is not None and unreach.withdrawn:
            self._withdraw_routes(unreach.withdrawn, unreach.withdrawn_wire,
                                  vrf, changes, withdrawn_runs)
            self.updates_received += len(unreach.withdrawn)
        if reach is not None and reach.nlri and self._learn_routes(
                reach.nlri, reach.nlri_wire, message.attributes, vrf,
                changes, announced_runs):
            self.updates_received += len(reach.nlri)

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------

    def send_message(self, message):
        """Serialize and send through the speaker's (hookable) send path."""
        self.speaker.dispatch_send(self, message)

    def transmit_wire(self, message, wire):
        """The final leg: put bytes on the TCP connection."""
        if self.conn is None or not self.conn.state.can_send_data():
            return
        if isinstance(message, OpenMessage) and self.state is fsm.SessionState.CONNECT:
            self._set_state(fsm.SessionState.OPEN_SENT)
        self.messages_sent += 1
        self.conn.send(wire)

    def _keepalive_interval(self):
        configured = self.config.keepalive_interval
        return min(configured, max(self.negotiated_hold_time / 3.0, 1.0))

    def _on_keepalive_due(self):
        if self.established:
            self.speaker.keepalive_due(self)
            self.keepalive_timer.start(self._keepalive_interval())

    # ------------------------------------------------------------------
    # failure edges
    # ------------------------------------------------------------------

    def _on_hold_expired(self):
        self.speaker.log(f"{self.peer_id}: hold timer expired")
        self.send_message(NotificationMessage(NotificationCode.HOLD_TIMER_EXPIRED))
        self._drop_session()

    def _on_tcp_reset(self, _conn, reason):
        self.speaker.log(f"{self.peer_id}: TCP reset ({reason})")
        self._drop_session()

    def _on_tcp_closed(self, _conn):
        if self.state is not fsm.SessionState.IDLE:
            self._drop_session()

    def _drop_session(self):
        """Session teardown: withdraw learned routes."""
        was_established = self.established
        if was_established:
            self.session_drops += 1
            self.last_down_at = self.engine.now
        self.state = fsm.SessionState.IDLE
        self.hold_timer.stop()
        self.keepalive_timer.stop()
        if self.conn is not None:
            conn, self.conn = self.conn, None
            conn.on_data = conn.on_reset = conn.on_close = None
            conn.abort()
        if was_established:
            self._purge_learned_routes()
        if self.config.mode == "active" and self.speaker.running:
            self.retry_timer.start(CONNECT_RETRY_INTERVAL)

    def _purge_learned_routes(self):
        vrf = self.vrf
        changes = []
        for prefix in self.adj_rib_in.clear():
            old, new = vrf.loc_rib.retract(prefix, self.peer_id)
            changes.append((prefix, old, new))
        if changes:
            self.speaker.best_paths_changed(self, changes)

    def force_resume(self, conn, initial_ack, cumulative_received):
        """Adopt a repaired TCP connection directly in ESTABLISHED.

        This is the NSR takeover path: the backup container inherits a
        live, synchronized connection, so the RFC FSM bring-up never runs
        (the remote peer must not observe any session event).
        """
        self.conn = conn
        self._wire_conn_callbacks()
        self.initial_ack = initial_ack
        self.decoder = MessageDecoder()
        self.cumulative_received = cumulative_received
        self.state = fsm.SessionState.ESTABLISHED
        self.established_at = self.engine.now
        if self.negotiated_hold_time:
            self.hold_timer.start(self.negotiated_hold_time)
            self.keepalive_timer.start(self._keepalive_interval())

    def __repr__(self):
        return f"<PeerSession {self.peer_id} {self.state.value}>"
