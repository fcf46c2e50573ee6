"""Simulated processes and timers.

The paper's "threads" (main, IO, keepalive, tcp_queue) become simulated
processes: small state machines that react to events on the virtual clock.
A :class:`Timer` is a restartable one-shot timer, the building block for
TCP retransmission timers, BGP hold/keepalive timers and BFD detection
timers.  A :class:`PeriodicTask` is a fixed-interval repeating callback.
"""

from repro.sim.engine import SimulationError


class Process:
    """Base class for an entity that lives on the virtual clock.

    Subclasses use :meth:`after` / :meth:`every` to schedule work, and
    :meth:`kill` to model a crash: all pending callbacks owned by the
    process are cancelled and further scheduling is rejected, mirroring the
    abrupt death of a real OS process.

    Ownership invariant: every pending event the process scheduled is in
    ``_owned_events``, and the list never holds more than a constant
    factor over that pending population.  Fired and cancelled events are
    dropped by a prune whose threshold doubles with the survivors, so
    owning an event is amortised O(1) however long the process lives, and
    a fired event is freed by its refcount instead of lingering in an
    ``event -> bound method -> process -> list -> event`` cycle.
    """

    #: Smallest ``_owned_events`` length at which a prune runs.
    _PRUNE_FLOOR = 32

    def __init__(self, engine, name="process"):
        self.engine = engine
        self.name = name
        self.alive = True
        self._owned_events = []
        self._prune_at = self._PRUNE_FLOOR

    def after(self, delay, callback, *args):
        """Schedule ``callback`` after ``delay`` seconds, owned by us."""
        if not self.alive:
            raise SimulationError(f"{self.name}: dead process cannot schedule")
        event = self.engine.schedule(delay, self._guarded, callback, args)
        self._own(event)
        return event

    def _own(self, event):
        """Cancel ``event`` if we are killed while it is still pending."""
        owned = self._owned_events
        owned.append(event)
        if len(owned) >= self._prune_at:
            owned[:] = [e for e in owned if not (e.fired or e.cancelled)]
            self._prune_at = max(self._PRUNE_FLOOR, 2 * len(owned))

    def every(self, interval, callback, *args):
        """Run ``callback`` every ``interval`` seconds until killed."""
        task = PeriodicTask(self, interval, callback, args)
        task.start()
        return task

    def _guarded(self, callback, args):
        if self.alive:
            callback(*args)

    def kill(self):
        """Crash the process: cancel everything it scheduled."""
        self.alive = False
        for event in self._owned_events:
            event.cancel()
        self._owned_events.clear()
        self._prune_at = self._PRUNE_FLOOR

    #: Containers supervise heterogeneous process objects through a
    #: ``crash()`` method; for a bare simulated process they coincide.
    crash = kill

    def revive(self):
        """Allow a killed process object to schedule again (restart)."""
        self.alive = True

    def __repr__(self):
        state = "alive" if self.alive else "dead"
        return f"<{type(self).__name__} {self.name!r} {state}>"


class Timer:
    """A restartable one-shot timer.

    ``start`` (re)arms it, ``stop`` disarms it, and when it fires it calls
    the callback once.  ``restart`` is the idiom for watchdog-style timers
    (hold timers, retransmission timers).
    """

    def __init__(self, engine, callback, name="timer"):
        self.engine = engine
        self.callback = callback
        self.name = name
        self._event = None
        self.fired_count = 0

    @property
    def armed(self):
        return self._event is not None and not self._event.cancelled

    @property
    def deadline(self):
        """Absolute virtual time at which the timer will fire, or None."""
        if self.armed:
            return self._event.time
        return None

    def start(self, delay):
        """Arm the timer.  If already armed, the old deadline is replaced."""
        self.stop()
        self._event = self.engine.schedule(delay, self._fire)

    restart = start

    def stop(self):
        """Disarm the timer if armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self):
        self._event = None
        self.fired_count += 1
        self.callback()

    def __repr__(self):
        return f"<Timer {self.name!r} armed={self.armed}>"


class PeriodicTask:
    """A repeating callback with a fixed interval.

    The first invocation happens one full interval after :meth:`start`.

    Each tick is one engine event that fires :meth:`_tick` directly and
    is owned by the process (a kill cancels it).  A tick carries the
    generation it was armed under; :meth:`start` and :meth:`stop` move
    the generation on, so a tick left pending by ``stop()`` fires as a
    no-op instead of running a second chain beside the one a later
    ``start()`` arms.
    """

    def __init__(self, process, interval, callback, args=()):
        if interval <= 0:
            raise SimulationError(f"interval must be positive (got {interval})")
        self.process = process
        self.interval = interval
        self.callback = callback
        self.args = args
        self.running = False
        self.ticks = 0
        self._generation = 0

    def start(self):
        process = self.process
        if not process.alive:
            raise SimulationError(
                f"{process.name}: dead process cannot schedule")
        self.running = True
        self._generation += 1
        process._own(process.engine.schedule(
            self.interval, self._tick, self._generation))

    def stop(self):
        self.running = False
        self._generation += 1

    def _tick(self, generation):
        process = self.process
        if generation != self._generation or not process.alive:
            return
        self.ticks += 1
        self.callback(*self.args)
        if generation == self._generation and process.alive:
            process._own(process.engine.schedule(
                self.interval, self._tick, generation))
