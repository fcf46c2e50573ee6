"""Causal span tracing on the simulated clock.

A :class:`Span` records begin/end *virtual* timestamps, parent/child
causality and arbitrary attributes (peer, connection, stream position,
ACK number).  A :class:`Tracer` is installed on an :class:`Engine` as its
trace hook: the engine then captures the ambient (current) span when an
event is scheduled and restores it when the event fires, so causality
flows through every ``engine.schedule`` hop — timers, network delivery,
CPU charges — without the instrumented code threading context by hand.
Hot paths that need precise phase boundaries (the TENSOR receive
pipeline) additionally pass spans explicitly.

Tracing is off unless a tracer is installed, and ``engine._trace_hook``
is the only switch: each instrumentation site loads it and tests it
with ``is not None``.  An untraced run never imports this package.

Identity model: a span created without a parent starts a new *trace*
whose id is the span's own id; children inherit the trace id.  The root
``update`` span of a traced BGP message doubles as the message id used
by :meth:`TraceStore.critical_path`.
"""

import itertools
from contextlib import contextmanager

#: Sentinel default for ``begin(parent=...)``: use the ambient span.
AMBIENT = object()


class Span:
    """One traced operation on the virtual clock."""

    __slots__ = ("span_id", "trace_id", "parent_id", "name", "begin", "end",
                 "attrs", "_tracer")

    def __init__(self, tracer, span_id, trace_id, parent_id, name, begin, attrs):
        self._tracer = tracer
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.begin = begin
        self.end = None
        self.attrs = attrs

    @property
    def duration(self):
        """Seconds from begin to end; None while the span is open."""
        if self.end is None:
            return None
        return self.end - self.begin

    def annotate(self, **attrs):
        self.attrs.update(attrs)
        return self

    def finish(self, **attrs):
        """Close the span at the current virtual instant.  Idempotent:
        a second ``finish`` changes neither the end time nor the attrs
        (the first closer's verdict wins)."""
        if self.end is None:
            self.end = self._tracer.engine.now
            if attrs:
                self.attrs.update(attrs)
        return self

    def __repr__(self):
        end = f"{self.end:.6f}" if self.end is not None else "open"
        return (f"<Span #{self.span_id} {self.name} trace={self.trace_id}"
                f" [{self.begin:.6f}..{end}]>")


class Tracer:
    """Records spans against one engine's virtual clock.

    Constructing a tracer installs it as the engine's trace hook, turning
    on ambient-context capture in ``Engine.schedule``.
    """

    def __init__(self, engine):
        from repro.trace.store import TraceStore

        self.engine = engine
        self.store = TraceStore()
        self.current = None  # the ambient span (engine restores per event)
        self._ids = itertools.count(1)
        engine.set_trace_hook(self)

    # -- span creation ---------------------------------------------------

    def begin(self, name, parent=AMBIENT, **attrs):
        """Open a span.  ``parent`` defaults to the ambient span; pass an
        explicit span for hand-threaded causality or ``None`` to force a
        new trace root."""
        if parent is AMBIENT:
            parent = self.current
        span_id = next(self._ids)
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = span_id
            parent_id = None
        span = Span(self, span_id, trace_id, parent_id, name,
                    self.engine.now, attrs)
        self.store._add(span)
        return span

    def complete(self, name, begin, parent=AMBIENT, **attrs):
        """Record a span that began at ``begin`` and ends now."""
        span = self.begin(name, parent=parent, **attrs)
        span.begin = begin
        span.end = self.engine.now
        return span

    def begin_from(self, context_ref, name, **attrs):
        """Open a span whose parent is a *serialized* context reference —
        the ``(trace_id, span_id)`` tuple an RPC client carries across
        process boundaries in its frame metadata."""
        span_id = next(self._ids)
        if context_ref is not None:
            trace_id, parent_id = context_ref
        else:
            trace_id, parent_id = span_id, None
        span = Span(self, span_id, trace_id, parent_id, name,
                    self.engine.now, attrs)
        self.store._add(span)
        return span

    # -- ambient-context management --------------------------------------

    @contextmanager
    def activate(self, span):
        """Make ``span`` ambient for the duration (no open/close)."""
        previous = self.current
        self.current = span
        try:
            yield span
        finally:
            self.current = previous
