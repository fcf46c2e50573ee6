"""The discrete-event engine and virtual clock.

The engine is a classic priority-queue event loop.  Time is a float in
seconds.  Events scheduled for the same instant fire in scheduling order
(FIFO), which keeps every simulation in this repository deterministic.
"""

import contextlib
import itertools
from heapq import heappop, heappush

_INF = float("inf")


class SimulationError(Exception):
    """Raised for invalid uses of the simulation engine."""


def _bad_delay(delay):
    if delay < 0:
        return SimulationError(f"cannot schedule in the past (delay={delay})")
    return SimulationError(f"delay must be finite (delay={delay})")


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Engine.schedule` and can be cancelled.
    Cancellation is O(1): the event is flagged and skipped when popped.

    Events carry no ordering of their own: the engine's heaps hold
    ``(time, seq, event)`` tuples, which compare in C and never reach
    the event because ``seq`` is unique.  FIFO order at an instant is
    the order of ``seq``, the engine's schedule counter.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "ctx", "scope",
                 "fired")

    def __init__(self, time, callback, args, ctx, scope):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.ctx = ctx  # ambient trace span captured at schedule time
        self.scope = scope  # ambient event scope captured at schedule time
        self.fired = False

    def cancel(self):
        """Prevent the event from firing.  Safe to call multiple times."""
        self.cancelled = True

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} {state} {self.callback!r}>"


class Engine:
    """Discrete-event loop with a virtual clock.

    Usage::

        engine = Engine()
        engine.schedule(1.5, handler, arg1, arg2)
        engine.run(until=10.0)
        assert engine.now <= 10.0
    """

    def __init__(self):
        self._queue = []  # heap of (time, seq, Event)
        self._counter = itertools.count()
        #: current virtual time in seconds; only :meth:`run` writes it
        self.now = 0.0
        self._running = False
        self._stopped = False
        self._trace_hook = None  # a repro.trace.Tracer when tracing is on
        self._named_counters = {}  # name -> itertools.count (see next_id)
        self._ambient_scope = None  # event scope applied to new schedules
        self._scope_heaps = {}  # scope -> heap of (time, seq, tagged Event)

    def next_id(self, name, start=0):
        """Next value of the named monotonic counter scoped to *this* engine.

        Protocol layers (TCP ISNs, BFD discriminators, ephemeral ports)
        need unique-per-simulation identifiers.  Module-level counters
        would leak allocation state between simulations co-hosted in one
        OS process, making a shard's identifiers depend on which other
        shards share its worker — engine-scoped counters keep every
        simulation bit-identical regardless of process placement.
        """
        counter = self._named_counters.get(name)
        if counter is None:
            counter = self._named_counters[name] = itertools.count(start)
        return next(counter)

    def set_trace_hook(self, hook):
        """Install a trace hook (``hook.current`` is the ambient span).

        With a hook installed, :meth:`schedule` captures the ambient span
        onto each event and the run loop restores it around the callback,
        so trace causality follows every scheduling hop.  ``None``
        uninstalls.  :meth:`run` reads the hook once on entry, so a hook
        changed from inside a callback takes effect at the next run.
        """
        self._trace_hook = hook

    def schedule(self, delay, callback, *args):
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which may be cancelled.
        """
        if not 0.0 <= delay < _INF:  # negative, infinite or NaN
            raise _bad_delay(delay)
        time = self.now + delay
        seq = next(self._counter)
        hook = self._trace_hook
        scope = self._ambient_scope
        event = Event(time, callback, args,
                      None if hook is None else hook.current, scope)
        if scope is not None:
            # scoped() created the heap before the scope could be ambient
            heappush(self._scope_heaps[scope], (time, seq, event))
        heappush(self._queue, (time, seq, event))
        return event

    @contextlib.contextmanager
    def scoped(self, scope):
        """Tag every event scheduled inside the ``with`` block with ``scope``.

        Scopes propagate transitively: when a scoped event fires, the
        scope becomes ambient again, so events its callback schedules are
        tagged too.  The closure of a scope is therefore everything
        causally downstream of the schedules made under it (plus any
        later explicit ``scoped`` blocks).  Used by the parallel runtime
        to track the *outbound-capable* subset of a shard's events — see
        :meth:`next_event_time` and ``repro.sim.parallel``.
        """
        if scope is not None:
            self._scope_heaps.setdefault(scope, [])
        previous = self._ambient_scope
        self._ambient_scope = scope
        try:
            yield
        finally:
            self._ambient_scope = previous

    def next_event_time(self, scope=None):
        """Earliest pending event time, or ``None`` when nothing is queued.

        With ``scope=None`` this peeks the global queue (skipping
        cancelled events, exactly like the run loop's lazy pop).  With a
        scope token it answers for the events tagged by :meth:`scoped`
        only — the earliest instant at which anything inside that scope
        can happen.  Both forms are O(amortized 1): stale heap heads are
        discarded as they are seen.
        """
        if scope is not None:
            heap = self._scope_heaps.get(scope)
            while heap:
                time, _, head = heap[0]
                if head.fired or head.cancelled:
                    heappop(heap)
                    continue
                return time
            return None
        queue = self._queue
        while queue:
            time, _, head = queue[0]
            if head.cancelled:
                heappop(queue)
                continue
            return time
        return None

    def stop(self):
        """Stop a running :meth:`run` loop after the current event."""
        self._stopped = True

    def queued_events(self):
        """Every queued event, cancelled ones included, in no particular
        order — for tests and diagnostics; the heap layout stays private."""
        for _, _, event in self._queue:
            yield event

    def pending(self):
        """Number of non-cancelled events still queued."""
        return sum(1 for event in self.queued_events() if not event.cancelled)

    def run(self, until=None, max_events=None):
        """Run events until the queue drains, ``until`` passes, or
        ``max_events`` events have fired.

        Returns the number of events executed.  The clock is advanced to
        ``until`` when it is provided and the queue drains early, so that
        time-based assertions hold regardless of event density.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        entry_scope = self._ambient_scope
        queue = self._queue
        hook = self._trace_hook
        horizon = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        executed = 0
        try:
            while queue and executed < budget and not self._stopped:
                time, _, event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    continue
                if time > horizon:
                    break
                heappop(queue)
                self.now = time
                event.fired = True
                self._ambient_scope = event.scope
                if hook is None or event.ctx is None:
                    event.callback(*event.args)
                else:
                    hook.current = event.ctx
                    event.callback(*event.args)
                    hook.current = None
                executed += 1
        finally:
            self._running = False
            # fired events made their scope ambient; don't leak the last
            # one into schedules made after the loop (e.g. at barriers)
            self._ambient_scope = entry_scope
        if until is not None and self.now < until and not self._stopped:
            self.now = until
        return executed

    def inject(self, when, callback, *args):
        """Schedule ``callback(*args)`` from *outside* the simulation at
        absolute virtual time ``when``.

        The entry point the parallel runtime uses to merge cross-shard
        frames between conservative windows: injections happen at window
        barriers, in the deterministic merge order ``(time, shard, seq)``,
        and their engine sequence numbers are assigned in injection order
        — so the interleaving with locally scheduled events is a pure
        function of the merge, not of worker placement.  ``when`` must
        not lie in the past (the lookahead bound guarantees this for
        conservative synchronization).
        """
        if when < self.now:
            raise SimulationError(
                f"inject into the past (when={when} < now={self.now})"
            )
        return self.schedule(when - self.now, callback, *args)

    def run_window(self, until):
        """Run one conservative window: fire every event with
        ``time <= until`` and land the clock exactly on ``until``.

        Identical to ``run(until=until)`` except that a backwards window
        is rejected rather than silently ignored — the parallel runtime
        calls this repeatedly with monotonically increasing barriers and
        relies on every shard's clock sitting exactly on the barrier
        when the window returns.  Returns the number of events executed.
        """
        if until < self.now:
            raise SimulationError(
                f"window ends in the past (until={until} < now={self.now})"
            )
        return self.run(until=until)

    def run_until_idle(self, max_events=10_000_000):
        """Run until no events remain.  Guards against runaway loops."""
        executed = self.run(max_events=max_events)
        if executed >= max_events:
            raise SimulationError(
                f"simulation did not converge within {max_events} events"
            )
        return executed

    def advance(self, duration):
        """Run for ``duration`` seconds of virtual time."""
        return self.run(until=self.now + duration)

    def run_stepped(self, until, on_step, quantum=0.05):
        """Run to ``until`` in ``quantum``-sized slices, calling
        ``on_step(now)`` after each slice.

        The continuous-checking driver for invariant oracles: the oracle
        callback observes the system at a bounded virtual-time granularity
        without wiring itself into every event.  ``on_step`` may call
        :meth:`stop` to abort the run early (e.g. on the first violation).
        Returns the number of events executed.
        """
        if quantum <= 0:
            raise SimulationError(f"quantum must be positive (quantum={quantum})")
        executed = 0
        while self.now < until:
            slice_end = min(self.now + quantum, until)
            executed += self.run(until=slice_end)
            on_step(self.now)
            if self._stopped:
                break
        return executed

    def __repr__(self):
        return f"<Engine t={self.now:.6f} pending={self.pending()}>"
