"""Trace storage and the query API.

Spans are appended at *begin* time in creation order (deterministic under
the deterministic engine), so the store sees open spans too — the
phase-latency oracle uses that to catch a replication span that never
closes.  Queries never mutate; the store is pure observation.

The five pipeline phases of a traced incoming UPDATE (DESIGN.md §10):

    receive      first byte of the message arrived .. decode complete
    replicate    record enqueued .. durable in the database
    ack_release  durability confirmed .. verify-read done, ACK released
    apply        CPU grant .. Loc-RIB reselect + delta persisted
    propagate    outgoing UPDATE generation .. handed to the IO thread

``propagate`` spans belong to the *outgoing* message's own trace (MRAI
batching fans one received UPDATE out to N peers, and one flush can
carry changes from many received UPDATEs), so they reference the
originating message ids through a ``links`` attribute instead of
parentage; :meth:`critical_path` follows both.
"""

from repro.metrics.stats import summarize

#: Span names of the five-phase receive pipeline, in causal order.
PHASES = ("receive", "replicate", "ack_release", "apply", "propagate")

#: Float tolerance of the delayed-ACK ordering checks (s).
SLOP = 1e-9

class TraceStore:
    """Holds every span a :class:`~repro.trace.tracer.Tracer` records."""

    def __init__(self):
        self._spans = []

    def _add(self, span):
        self._spans.append(span)

    def __len__(self):
        return len(self._spans)

    # -- queries ---------------------------------------------------------

    def spans(self, name=None, ended=None, **attr_filters):
        """Spans filtered by name, open/ended state, and exact attribute
        values; returned in deterministic creation order."""
        out = []
        for span in self._spans:
            if name is not None and span.name != name:
                continue
            if ended is True and span.end is None:
                continue
            if ended is False and span.end is not None:
                continue
            if attr_filters:
                attrs = span.attrs
                if any(attrs.get(key) != value
                       for key, value in attr_filters.items()):
                    continue
            out.append(span)
        return out

    def update_ids(self, **attr_filters):
        """Message ids (root-span trace ids) of traced received messages."""
        return [s.trace_id for s in self.spans("update", **attr_filters)
                if s.parent_id is None]

    def critical_path(self, msg_id):
        """The causally-ordered span chain for one traced message.

        Follows parentage (every span whose ``trace_id`` is ``msg_id``)
        plus ``links`` references (propagate spans whose flush folded the
        message in), sorted by begin time with span-creation order
        breaking ties — parents precede children at an instant because
        they are created first.
        """
        chain = [s for s in self._spans if s.trace_id == msg_id]
        for span in self._spans:
            if span.trace_id == msg_id:
                continue
            links = span.attrs.get("links")
            if links and msg_id in links:
                chain.append(span)
        chain.sort(key=lambda s: (s.begin, s.span_id))
        return chain

    # -- phase latency ---------------------------------------------------

    def durations(self, name, **attr_filters):
        """Ended-span durations for one span name, in creation order."""
        return [s.end - s.begin
                for s in self.spans(name, ended=True, **attr_filters)]

    def phase_summary(self):
        """{phase: summarize(durations)} for phases with ended spans."""
        out = {}
        for name in PHASES:
            values = self.durations(name)
            if values:
                out[name] = summarize(values)
        return out

    def phase_shape(self):
        """The *shape* of a run's phase activity, for coverage keys
        (DESIGN.md §13): ``(phase, log2-bucketed span count)`` pairs over
        phases that recorded at least one ended span.

        Bucketing by ``count.bit_length()`` (1, 2-3, 4-7, ... spans)
        makes the shape insensitive to small count jitter while still
        separating "a couple of replications" from "hundreds" — exactly
        the granularity novelty search wants.  Durations are deliberately
        excluded: they are bit-identical per seed but any change to the
        shape of the schedule perturbs them, which would make *every*
        mutant look novel.
        """
        shape = []
        for name in PHASES:
            count = len(self.spans(name, ended=True))
            if count:
                shape.append((name, count.bit_length()))
        return tuple(shape)

    # -- the delayed-ACK phase invariant ---------------------------------

    def delayed_ack_violations(self):
        """Spans that contradict §3.1.1: an ACK observable on the wire
        before the replication write it acknowledges became durable.

        Two checks: (1) every ``ack_release`` span must begin at or after
        its trace's ``replicate`` span ended (and that span must exist
        and be closed); (2) every released ``nfq.hold`` span annotated
        with the message that freed it must end at or after that
        message's ``replicate`` span ended.
        """
        replicate_end = {}
        for span in self._spans:
            if span.name == "replicate":
                replicate_end[span.trace_id] = span.end
        problems = []
        for span in self._spans:
            if span.name == "ack_release":
                end = replicate_end.get(span.trace_id, None)
                if end is None:
                    problems.append(
                        f"ack_release span #{span.span_id} (trace "
                        f"{span.trace_id}) has no closed replicate span"
                    )
                elif span.begin < end - SLOP:
                    problems.append(
                        f"ack_release span #{span.span_id} begins at "
                        f"{span.begin:.6f}, before its replicate span "
                        f"closed at {end:.6f}"
                    )
            elif span.name == "nfq.hold" and span.end is not None:
                released_by = span.attrs.get("released_by")
                if released_by is None:
                    continue
                end = replicate_end.get(released_by)
                if end is None:
                    problems.append(
                        f"nfq.hold span #{span.span_id} released by trace "
                        f"{released_by}, which has no closed replicate span"
                    )
                elif span.end < end - SLOP:
                    problems.append(
                        f"nfq.hold span #{span.span_id} released at "
                        f"{span.end:.6f}, before trace {released_by} was "
                        f"durable at {end:.6f}"
                    )
        return problems
