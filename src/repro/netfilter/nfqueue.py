"""NFQUEUE: user-space packet verdict queues.

When an egress packet hits a QUEUE rule it is wrapped in a
:class:`QueuedPacket` and handed to whichever user-space consumer is bound
to the queue number (TENSOR binds its ``tcp_queue`` thread).  The consumer
later calls :meth:`QueuedPacket.accept` to release the packet onto the wire
or :meth:`QueuedPacket.drop` to discard it — identical to the
``libnetfilter_queue`` verdict model the paper relies on.

If nothing is bound to a queue, packets are dropped, which matches the
kernel's behaviour when no user-space program listens on an NFQUEUE — and
is exactly what happens when the BGP process crashes while holding ACKs:
the held ACKs die with it, keeping the remote peer's send buffer intact.
"""


class QueuedPacket:
    """A packet suspended at a hook, awaiting a user-space verdict."""

    __slots__ = ("packet", "_release", "_decided", "queued_at", "span")

    def __init__(self, packet, release, queued_at, span=None):
        self.packet = packet
        self._release = release
        self._decided = False
        self.queued_at = queued_at
        self.span = span  # open "nfq.hold" trace span (None when disabled)

    @property
    def decided(self):
        return self._decided

    def accept(self):
        """Release the packet onto the wire.  Idempotent."""
        if self._decided:
            return
        self._decided = True
        if self.span is not None:
            self.span.finish(verdict="accept")
        self._release(self.packet)

    def drop(self):
        """Discard the packet.  Idempotent."""
        if self._decided:
            return
        self._decided = True
        if self.span is not None:
            self.span.finish(verdict="drop")

    def __repr__(self):
        state = "decided" if self._decided else "held"
        return f"<QueuedPacket {state} {self.packet!r}>"


class NfQueue:
    """The per-stack registry of NFQUEUE consumers.

    ``technology`` selects the interception cost model: "netfilter" pays
    a kernel->userspace copy on enqueue and a verdict round trip on
    release; "ebpf" holds packets in a kernel map (§5's future-work
    alternative, implemented for comparison).
    """

    def __init__(self, engine, technology="netfilter"):
        from repro.sim.calibration import (
            EBPF_QUEUE_DELAY,
            EBPF_VERDICT_DELAY,
            NETFILTER_QUEUE_DELAY,
            NETFILTER_VERDICT_DELAY,
        )

        if technology not in ("netfilter", "ebpf"):
            raise ValueError(f"unknown interception technology {technology!r}")
        self.engine = engine
        self.technology = technology
        if technology == "netfilter":
            self.queue_delay = NETFILTER_QUEUE_DELAY
            self.verdict_delay = NETFILTER_VERDICT_DELAY
        else:
            self.queue_delay = EBPF_QUEUE_DELAY
            self.verdict_delay = EBPF_VERDICT_DELAY
        self._consumers = {}
        self.dropped_unbound = 0

    def bind(self, queue_num, consumer):
        """Bind ``consumer(queued_packet)`` to ``queue_num``."""
        self._consumers[queue_num] = consumer

    def enqueue(self, queue_num, packet, release):
        """Suspend ``packet``; deliver it to the bound consumer.

        ``release(packet)`` is the continuation that puts the packet on the
        wire when the consumer accepts it; the accept pays the verdict
        delay of the configured technology.
        """
        consumer = self._consumers.get(queue_num)
        if consumer is None:
            self.dropped_unbound += 1
            return None

        def delayed_release(released_packet):
            self.engine.schedule(self.verdict_delay, release, released_packet)

        span = None
        tracer = self.engine._trace_hook
        if tracer is not None:
            segment = packet.payload
            span = tracer.begin(
                "nfq.hold",
                queue=queue_num,
                dst=packet.dst,
                ack=getattr(segment, "ack", None),
            )
        queued = QueuedPacket(
            packet, delayed_release, queued_at=self.engine.now, span=span
        )
        self.engine.schedule(self.queue_delay, consumer, queued)
        return queued
