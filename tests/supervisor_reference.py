"""The fixed-interval poller ``AppSupervisor`` replaced, kept as the
differential reference (``tests/test_supervisor_differential.py``).

:class:`ReferencePoller` is the old supervisor verbatim — a periodic task
that polls every ``interval`` whether or not anything can have changed —
except that a report goes to a list instead of to the controller, so it
can run beside the real supervisor on the same pair without reporting
anything twice.  :func:`shadowed` makes the ``AppSupervisor`` subclass
that carries one, logs what the real supervisor reports, and hands every
reset of the report latch (the pair and the controller clear it from
outside) on to the reference's latch.
"""

from repro.core.system import AppSupervisor
from repro.sim.calibration import APP_MONITOR_INTERVAL
from repro.sim.process import Process


class ReferencePoller:
    """In-container process watchdog (the E1 detector, ~10 ms polls)."""

    def __init__(self, pair, reports, interval=APP_MONITOR_INTERVAL):
        self.pair = pair
        self.reports = reports
        self.interval = interval
        self.process = Process(pair.engine, f"reference-supervisor:{pair.name}")
        self._reported = False
        self.polls = 0

    def start(self):
        self.process.every(self.interval, self._poll)

    def _poll(self):
        self.polls += 1
        pair = self.pair
        if pair._suppress_supervision or self._reported:
            return
        container = pair.active_container
        if not container.running:
            return  # container-level failure: the Docker monitor's job
        for name in ("bgp", "bfd"):
            if name in container.processes and not container.process_alive(name):
                self._reported = True
                self.reports.append((pair.engine.now, container.name, name))
                return

    def stop(self):
        self.process.kill()


def shadowed(real_reports, reference_reports, supervisors=None):
    """An ``AppSupervisor`` class whose instances run a
    :class:`ReferencePoller` beside themselves.  ``real_reports`` and
    ``reference_reports`` collect ``(instant, container, process)``;
    ``supervisors``, when given, collects the instances."""

    class ShadowedSupervisor(AppSupervisor):
        def __init__(self, pair, interval=APP_MONITOR_INTERVAL):
            self.reference = ReferencePoller(pair, reference_reports, interval)
            super().__init__(pair, interval)
            self.polls = 0
            if supervisors is not None:
                supervisors.append(self)

        @property
        def _reported(self):
            return self._latch

        @_reported.setter
        def _reported(self, value):
            self._latch = value
            if not value:
                self.reference._reported = False

        def start(self):
            super().start()
            self.reference.start()

        def stop(self):
            super().stop()
            self.reference.stop()

        def _poll(self):
            self.polls += 1
            latched = self._latch
            super()._poll()
            if self._latch and not latched:
                container = self.pair.active_container
                real_reports.append((self.pair.engine.now, container.name,
                                     self._dead_process(container)))

    return ShadowedSupervisor
