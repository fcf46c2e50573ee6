"""The TENSOR BGP process: a BGP speaker with kernel-free replication.

Interposes on the three paths of §3.1.2:

- **incoming messages** — replicate to the database in parallel with
  normal processing; the inferred ACK number rides with the record so the
  ``tcp_queue`` thread can release the matching held TCP ACK once the
  write commits (and is verified by a read);
- **outgoing messages** — "the main and keepalive threads execute a
  database write operation before handing over any message to the IO
  thread" (delayed sending); records are pruned when the remote peer's
  cumulative ACK covers them;
- **applied messages** — pruned from the database, with the routing-table
  delta persisted first so the backup never replays history.
"""

from repro.bgp.messages import UpdateMessage
from repro.bgp.speaker import BgpSpeaker
from repro.core.ack_matching import TcpQueueThread
from repro.core.replication import ConnectionKeys, rib_delta
from repro.trace.tracer import tracer_of


class TensorBgpSpeaker(BgpSpeaker):
    """One TENSOR BGP process (runs inside one container)."""

    def __init__(self, engine, stack, config, pipeline, pair_name,
                 hold_acks=True):
        super().__init__(engine, stack, config)
        self.pipeline = pipeline
        self.pair_name = pair_name
        #: Ablation lever: with hold_acks=False the Netfilter interception
        #: is skipped entirely, reproducing the §3.1.1 inconsistency (ACKs
        #: escape before replication commits).
        self.hold_acks = hold_acks
        self.tcp_queue = TcpQueueThread(engine, pipeline)
        self._conn_keys = {}  # peer_id -> ConnectionKeys
        self._out_pos = {}  # peer_id -> stream offset after last queued msg
        self._out_unpruned = {}  # peer_id -> sorted [(pos, key_pos)] pending prune
        self._out_pruned_pos = {}  # peer_id -> highest pruned offset
        self._partial_outstanding = set()  # peer_ids with a live partial record
        self.replicated_in_messages = 0
        self.replicated_out_messages = 0
        self.pruned_messages = 0
        #: Exactly-once apply accounting: per-connection high-water mark of
        #: applied incoming stream positions.  Positions strictly increase
        #: within one process incarnation (recovery replay resumes above
        #: the durable watermark), so applying a position at or below the
        #: mark means the same message reached the RIB twice — the NSR
        #: invariant the chaos oracles watch via ``duplicate_applies``.
        self._applied_in_pos = {}  # peer_id -> highest applied in-position
        self.duplicate_applies = 0

    # ------------------------------------------------------------------
    # connection bring-up
    # ------------------------------------------------------------------

    def tcp_established(self, session):
        conn = session.conn
        keys = ConnectionKeys(
            self.pair_name,
            session.config.vrf_name,
            conn.local_addr,
            conn.local_port,
            conn.remote_addr,
            conn.remote_port,
        )
        self._conn_keys[session.peer_id] = keys
        self._out_pos[session.peer_id] = 0
        self._out_unpruned[session.peer_id] = []
        self._out_pruned_pos.setdefault(session.peer_id, 0)
        if self.hold_acks:
            self.tcp_queue.install_for_connection(self.stack, conn, keys)
        self.pipeline.write_session_record(
            keys,
            {
                "iss": conn.iss,
                "irs": conn.irs,
                "local_addr": conn.local_addr,
                "local_port": conn.local_port,
                "remote_addr": conn.remote_addr,
                "remote_port": conn.remote_port,
                "remote_as": session.config.remote_as,
                "vrf": session.config.vrf_name,
                "hold_time": session.config.hold_time,
                "keepalive_interval": session.config.keepalive_interval,
                "mode": session.config.mode,
                "established_at": self.engine.now,
            },
        )

    def keys_for(self, session):
        return self._conn_keys.get(session.peer_id)

    # ------------------------------------------------------------------
    # incoming: replicate + delayed ACK + apply + prune
    # ------------------------------------------------------------------

    def dispatch_received(self, session, message, size):
        keys = self.keys_for(session)
        if keys is None:
            super().dispatch_received(session, message, size)
            return
        position = session.cumulative_received  # offset after this message
        inferred_ack = session.inferred_ack_number
        record = {
            "dir": "i",
            "in_pos": position,
            "ack": inferred_ack,
            "wire_len": size,
            "message": message,
        }
        self.replicated_in_messages += 1
        record_key = keys.message("i", position)
        tracer = tracer_of(self.engine)
        if tracer.enabled:
            # Root span: its trace id is the message id the query API uses.
            trace = tracer.begin(
                "update", parent=None,
                msg=type(message).__name__, peer=session.peer_id,
                conn=keys.conn_id, pos=position, ack=inferred_ack,
            )
            rx_began = session.last_rx_began
            if rx_began is not None:
                tracer.complete("receive", rx_began, parent=trace, bytes=size)
            replicate_span = tracer.begin("replicate", parent=trace,
                                          pos=position)

            def on_committed():
                replicate_span.finish()
                release_span = tracer.begin("ack_release", parent=trace,
                                            ack=inferred_ack)
                self.tcp_queue.note_replicated(
                    keys, inferred_ack, record_key, span=release_span
                )
        else:
            trace = None

            def on_committed():
                self.tcp_queue.note_replicated(keys, inferred_ack, record_key)

        self.pipeline.replicate_message(
            keys, "i", position, record, on_committed=on_committed
        )
        # Regular processing proceeds in parallel (§3.1.1: "the primary
        # also performs the regular processing of BGP messages").
        cost = self._receive_cost_of(message)
        self.charge(
            cost, self._apply_and_prune, session, message, size, keys, position,
            inferred_ack, trace,
        )

    def stream_progress(self, session):
        """Replicate a buffered partial-message tail (see base docstring).

        Without this, a peer whose congestion window collapsed to one
        segment during our outage deadlocks after migration: its lone
        retransmitted segment ends mid-message, the ACK stays held waiting
        for a completion that requires the very ACK to be released.
        Replicating the fragment makes every received byte coverable.
        """
        if not self.hold_acks:
            return
        keys = self.keys_for(session)
        if keys is None:
            return
        decoder = session.decoder
        pending = decoder.pending_bytes
        partial_key = f"tensor:{self.pair_name}:part:{keys.conn_id}"
        if pending == 0:
            if session.peer_id in self._partial_outstanding:
                self._partial_outstanding.discard(session.peer_id)
                self.pipeline.bulk.delete(partial_key)
            return
        upto = session.cumulative_received + pending
        ack_position = session.initial_ack + upto
        record = {"bytes": decoder.pending_data(), "upto": upto}
        self._partial_outstanding.add(session.peer_id)
        self.pipeline.fast.set(
            partial_key,
            record,
            on_done=lambda: self.tcp_queue.note_replicated(
                keys, ack_position, partial_key
            ),
        )

    def _apply_and_prune(self, session, message, size, keys, position, ack=None,
                         trace=None):
        if not self.running:
            return
        if trace is None:
            self._apply_and_prune_inner(session, message, size, keys, position,
                                        ack)
            return
        tracer = tracer_of(self.engine)
        # The apply phase runs in parallel with replication: it starts at
        # dispatch (when the CPU charge was queued) and ends here, after
        # Loc-RIB reselect and the RIB delta persist are enqueued.  The
        # body runs under the apply span so queued advertisements link the
        # resulting propagate spans back to this message.
        apply_span = tracer.begin("apply", parent=trace, pos=position)
        apply_span.begin = trace.begin
        with tracer.activate(apply_span):
            self._apply_and_prune_inner(session, message, size, keys, position,
                                        ack)
        apply_span.finish()
        trace.finish()

    def _apply_and_prune_inner(self, session, message, size, keys, position,
                               ack):
        if position <= self._applied_in_pos.get(session.peer_id, 0):
            self.duplicate_applies += 1
        else:
            self._applied_in_pos[session.peer_id] = position
        applied = self._apply_received(session, message, size)
        if applied is not None:
            self._persist_rib_delta(session, applied, position)
        # "we remove the replicated messages that have been applied to
        #  routing tables from the database" — but not before tcp_queue
        # has verified the record: pruning earlier races the verification
        # read and would leave the peer's ACK held forever.
        if ack is None:
            self.pipeline.delete_message(keys, "i", position)
        else:
            self.tcp_queue.when_confirmed(
                keys, ack,
                lambda: self.pipeline.delete_message(keys, "i", position),
            )
        self.pruned_messages += 1
        self.pipeline.update_tcp_status(
            keys,
            {
                "in_pos": position,
                "out_pruned": self._out_pruned_pos.get(session.peer_id, 0),
            },
        )
        self._prune_outgoing(session, keys)

    def _persist_rib_delta(self, session, applied, position):
        """Record what one applied UPDATE did to the table: the runs the
        apply step stored, as they are — nothing is looked up again."""
        vrf_name = session.config.vrf_name
        withdrawn, announced = applied
        self.pipeline.record_rib_delta(
            vrf_name, rib_delta(position, withdrawn, announced))
        if self.pipeline.needs_compaction(vrf_name):
            self.pipeline.compact(vrf_name, self.vrfs[vrf_name].loc_rib)

    # ------------------------------------------------------------------
    # outgoing: replicate before handing to the IO thread
    # ------------------------------------------------------------------

    def dispatch_send(self, session, message, generation_cost=None):
        keys = self.keys_for(session)
        if generation_cost is None:
            generation_cost = self._send_cost_of(message)
        if keys is None:
            super().dispatch_send(session, message, generation_cost)
            return
        wire = message.to_wire()
        peer_id = session.peer_id
        position = self._out_pos.get(peer_id, 0) + len(wire)
        self._out_pos[peer_id] = position
        self._out_unpruned.setdefault(peer_id, []).append(position)
        record = {
            "dir": "o",
            "out_pos": position,
            "wire_len": len(wire),
            "wire": wire,
        }
        self.replicated_out_messages += 1
        tracer = tracer_of(self.engine)
        span = None
        if tracer.enabled and isinstance(message, UpdateMessage):
            # Outgoing UPDATEs are their own trace; ``links`` names the
            # received messages whose changes this advertisement carries
            # (empty for resync/initial-table sends).
            span = tracer.begin(
                "propagate", parent=None,
                peer=session.peer_id, pos=position,
                links=self._flushing_links,
            )

        def after_generation():
            if not self.running:
                if span is not None:
                    span.finish(outcome="dropped")
                return
            if span is None:
                self.pipeline.replicate_message(
                    keys, "o", position, record,
                    on_committed=lambda: self._transmit(session, message, wire),
                )
                return
            out_span = tracer.begin("replicate_out", parent=span, pos=position)

            def on_committed():
                out_span.finish()
                self._transmit(session, message, wire)
                span.finish()

            self.pipeline.replicate_message(
                keys, "o", position, record, on_committed=on_committed
            )

        self.charge(generation_cost, after_generation)

    def _prune_outgoing(self, session, keys):
        """Drop outgoing records the remote's cumulative ACK covers."""
        conn = session.conn
        if conn is None:
            return
        acked_stream_pos = conn.snd_una - (conn.iss + 1)
        unpruned = self._out_unpruned.get(session.peer_id)
        if not unpruned:
            return
        pruned_to = self._out_pruned_pos.get(session.peer_id, 0)
        # Keep at least the newest record: it anchors the send-stream
        # position for recovery (its end offset is the next byte to use).
        while len(unpruned) > 1 and unpruned[0] <= acked_stream_pos:
            position = unpruned.pop(0)
            self.pipeline.delete_message(keys, "o", position)
            self.pruned_messages += 1
            pruned_to = position
        self._out_pruned_pos[session.peer_id] = pruned_to

    # ------------------------------------------------------------------
    # NSR adoption (backup side)
    # ------------------------------------------------------------------

    def adopt_recovered_session(self, peer_config, conn, meta, in_pos, out_state):
        """Attach a repaired TCP connection as an ESTABLISHED session.

        ``meta`` is the stored session record; ``in_pos`` the recovered
        incoming stream position; ``out_state`` is ``(out_pos,
        unpruned_positions, pruned_pos)`` for the outgoing direction.
        """
        session = self.add_peer(peer_config, autostart=False)
        out_pos, unpruned, pruned_pos = out_state
        session.force_resume(
            conn,
            initial_seq=meta["iss"] + 1,
            initial_ack=meta["irs"] + 1,
            cumulative_received=in_pos,
            cumulative_sent=out_pos,
        )
        keys = ConnectionKeys(
            self.pair_name,
            peer_config.vrf_name,
            conn.local_addr,
            conn.local_port,
            conn.remote_addr,
            conn.remote_port,
        )
        self._conn_keys[session.peer_id] = keys
        self._out_pos[session.peer_id] = out_pos
        self._out_unpruned[session.peer_id] = list(unpruned)
        self._out_pruned_pos[session.peer_id] = pruned_pos
        self.tcp_queue.install_for_connection(self.stack, conn, keys)
        # ACKs up to the recovered position are considered confirmed (the
        # records for anything newer are still in the database).
        self.tcp_queue.note_replicated(keys, meta["irs"] + 1 + in_pos, keys.session)
        self._rebuild_adj_rib_in(session)
        return session

    def _rebuild_adj_rib_in(self, session):
        """Repopulate the peer's Adj-RIB-In from its Loc-RIB candidates,
        storing the Loc-RIB's shared paths."""
        store = session.adj_rib_in.store
        for prefix, path in session.vrf.loc_rib.paths_from(session.peer_id):
            store(prefix, path)

    def apply_recovered_message(self, session, record):
        """Replay one stored-but-unapplied incoming message."""
        message = record["message"]
        keys = self.keys_for(session)
        cost = self._receive_cost_of(message)
        tracer = tracer_of(self.engine)
        trace = None
        if tracer.enabled:
            # The replay is a fresh trace in the new process; ``replay``
            # plus (conn, pos) tie it to the original incarnation's trace.
            trace = tracer.begin(
                "update", parent=None, replay=True,
                msg=type(message).__name__, peer=session.peer_id,
                conn=keys.conn_id, pos=record["in_pos"],
                ack=record.get("ack"),
            )
        self.charge(
            cost,
            self._apply_and_prune,
            session,
            message,
            record["wire_len"],
            keys,
            record["in_pos"],
            record.get("ack"),
            trace,
        )

    # ------------------------------------------------------------------

    def crash(self):
        super().crash()
        self.tcp_queue.crash()

    def storage_footprint(self, store):
        """Bytes of message records currently in ``store`` for this pair
        (the §3.1.2 storage-bound invariant)."""
        return store.size_bytes(f"tensor:{self.pair_name}:msg:")
