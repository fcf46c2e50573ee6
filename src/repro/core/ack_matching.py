"""The ``tcp_queue`` thread: delayed acknowledgments via NFQUEUE.

§3.1.2: "TENSOR introduces another thread named tcp_queue.  This thread
accepts the TCP ACK packets re-routed by Netfilter and holds them in a
FIFO queue until it confirms that the messages are properly replicated.
... tcp_queue releases any held-up TCP ACK packet whenever the
corresponding message has been properly replicated in the database."

The matching uses inferred ACK numbers: the main thread writes each
message's inferred ACK number with the record; ``tcp_queue`` verifies the
record exists in the database (a read — the source of TENSOR's small
receive-side overhead, §4.2) and then releases every held ACK whose ACK
number is covered.
"""

from repro.netfilter import Rule, Verdict

TENSOR_ACK_QUEUE = 1

#: Delay before re-issuing a failed verify read, and how many times to
#: try.  A verify read in flight when the database fails over would
#: otherwise strand its ACK forever: the write is already durable on the
#: promoted replica, but nothing would ever re-verify it.  The cap keeps
#: a truly dead database from accumulating timers — at that point ACKs
#: staying held is the fail-safe direction anyway.
VERIFY_RETRY_DELAY = 0.5
VERIFY_RETRY_LIMIT = 40


def _is_pure_ack(segment):
    return (
        segment.has_ack
        and not segment.payload
        and not segment.syn
        and not segment.fin
        and not segment.rst
    )


class TcpQueueThread:
    """One per TENSOR BGP process; consumes the process's NFQUEUE."""

    def __init__(self, engine, pipeline):
        self.engine = engine
        self.pipeline = pipeline
        self._conns = {}  # (local_port, remote_addr, remote_port) -> entry
        self.crashed = False
        self.acks_released = 0
        self.acks_dropped_redundant = 0
        self.verify_read_count = 0
        self._bound_stacks = []

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def attach_stack(self, stack):
        """Bind this thread as the stack's NFQUEUE consumer."""
        if stack not in self._bound_stacks:
            stack.nfqueue.bind(TENSOR_ACK_QUEUE, self._on_queued_packet)
            self._bound_stacks.append(stack)

    def install_for_connection(self, stack, conn, keys):
        """Install OUTPUT-chain rules for one managed BGP connection.

        Rule 1 re-routes the connection's pure ACKs to our NFQUEUE.
        Rule 2 drops RST/FIN for the connection — a crashed process must
        not let the kernel tear the connection down visibly (the backup
        will adopt it).
        """
        self.attach_stack(stack)
        tup = (conn.local_port, conn.remote_addr, conn.remote_port)

        def match_ack(packet, tup=tup):
            return (
                (packet.sport, packet.dst, packet.dport) == tup
                and _is_pure_ack(packet.payload)
            )

        def match_teardown(packet, tup=tup):
            segment = packet.payload
            return (
                (packet.sport, packet.dst, packet.dport) == tup
                and (segment.rst or segment.fin)
            )

        stack.output_chain.append(
            Rule(match_ack, Verdict.QUEUE, queue_num=TENSOR_ACK_QUEUE,
                 comment=f"tensor-ack {keys.conn_id}")
        )
        stack.output_chain.append(
            Rule(match_teardown, Verdict.DROP, comment=f"tensor-guard {keys.conn_id}")
        )
        self._conns[tup] = {
            "keys": keys,
            "held": [],  # FIFO of (ack_number, QueuedPacket)
            "confirmed_pos": 0,  # highest ACK number verified in the DB
            "waiters": [],  # (ack_number, callback) run once confirmed
        }

    # ------------------------------------------------------------------
    # the FIFO queue
    # ------------------------------------------------------------------

    def _on_queued_packet(self, queued):
        if self.crashed:
            # nothing listens on the queue anymore: the kernel drops
            queued.drop()
            return
        packet = queued.packet
        tup = (packet.sport, packet.dst, packet.dport)
        entry = self._conns.get(tup)
        if entry is None:
            queued.accept()  # unmanaged connection: pass through
            return
        ack = packet.payload.ack
        if ack <= entry["confirmed_pos"]:
            self.acks_released += 1
            queued.accept()
            return
        entry["held"].append((ack, queued))

    def note_replicated(self, keys, ack_position, record_key, span=None):
        """The main/keepalive thread committed a message record.

        Verify it in the database, then release
        all held ACKs the position covers.  ``span`` is the caller's open
        ``ack_release`` trace span: it brackets the verify-read and the
        verdict, and released hold spans are linked back to its trace.
        """
        entry = self._entry_for_keys(keys)
        if entry is None:
            if span is not None:
                span.finish(outcome="unmanaged")
            return
        self._verify(keys, ack_position, record_key, span, attempts=0)

    def _verify(self, keys, ack_position, record_key, span, attempts):
        entry = self._entry_for_keys(keys)
        if (
            self.crashed
            or entry is None  # connection torn down meanwhile
            or ack_position <= entry["confirmed_pos"]  # covered already
        ):
            if span is not None:
                span.finish(outcome="superseded")
            return
        self.verify_read_count += 1
        verify_span = None
        if span is not None:
            verify_span = self.engine._trace_hook.begin(
                "verify_read", parent=span, key=record_key
            )

        def on_error(_method, _cause):
            # DB unreachable: the ACK stays held (fail-safe direction)
            # while bounded retries chase the record — after a failover
            # the promoted replica *has* it, and without a re-read the
            # ACK would be stranded forever.
            if verify_span is not None:
                verify_span.finish(outcome="error")
            if attempts < VERIFY_RETRY_LIMIT:
                self.engine.schedule(
                    VERIFY_RETRY_DELAY, self._verify,
                    keys, ack_position, record_key, span, attempts + 1,
                )
            elif span is not None:
                span.finish(outcome="error")

        self.pipeline.verify_read(
            record_key,
            on_value=lambda value: self._on_verified(
                entry, ack_position, value, span, verify_span
            ),
            on_error=on_error,
        )

    def _on_verified(self, entry, ack_position, value, span=None,
                     verify_span=None):
        if verify_span is not None:
            verify_span.finish(present=value is not None)
        if value is None:
            if span is not None:
                span.finish(outcome="unverified")
            return  # not actually present: keep holding (fail-safe)
        self._confirm(entry, ack_position, span)

    def when_confirmed(self, keys, ack_number, callback):
        """Run ``callback`` once ``confirmed_pos`` covers ``ack_number``.

        The apply path uses this to defer pruning an incoming message
        record until its replication has been verified: pruning earlier
        races the verification read (the record vanishes, the read
        returns None, and the fail-safe direction then holds the peer's
        ACK forever).  An unmanaged connection has nothing to defer for —
        the callback runs immediately.
        """
        entry = self._entry_for_keys(keys)
        if entry is None or entry["confirmed_pos"] >= ack_number:
            callback()
            return
        entry["waiters"].append((ack_number, callback))

    def _confirm(self, entry, ack_position, span=None):
        if ack_position > entry["confirmed_pos"]:
            entry["confirmed_pos"] = ack_position
        if entry["waiters"]:
            ready = [
                cb for ack, cb in entry["waiters"]
                if ack <= entry["confirmed_pos"]
            ]
            entry["waiters"] = [
                (ack, cb) for ack, cb in entry["waiters"]
                if ack > entry["confirmed_pos"]
            ]
            for callback in ready:
                callback()
        held = entry["held"]
        keep = []
        releasable = []
        for ack, queued in held:
            if ack <= entry["confirmed_pos"]:
                releasable.append((ack, queued))
            else:
                keep.append((ack, queued))
        entry["held"] = keep
        # Release in ascending ACK order; TCP ACKs are cumulative so only
        # the newest matters, but in-order release keeps traces readable.
        releasable.sort(key=lambda pair: pair[0])
        if releasable:
            if span is not None:
                # Link each hold span to the message whose durability
                # freed it: the delayed-ACK invariant is checked span
                # against span (hold must outlive the replicate span).
                for _ack, queued in releasable:
                    if queued.span is not None:
                        queued.span.annotate(released_by=span.trace_id)
            # Only the highest ACK needs the wire; older ones are redundant.
            for ack, queued in releasable[:-1]:
                self.acks_dropped_redundant += 1
                queued.drop()
            self.acks_released += 1
            releasable[-1][1].accept()
        if span is not None:
            span.finish(released=len(releasable))

    def _entry_for_keys(self, keys):
        for entry in self._conns.values():
            if entry["keys"].conn_id == keys.conn_id:
                return entry
        return None

    def held_count(self):
        return sum(len(entry["held"]) for entry in self._conns.values())

    def crash(self):
        """Process death: held ACKs die with us (never released), and any
        later packet hitting our queue is dropped like an unconsumed
        kernel NFQUEUE."""
        self.crashed = True
        for entry in self._conns.values():
            entry["held"].clear()
        self._conns.clear()
