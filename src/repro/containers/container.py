"""Containers: lifecycle, boot-time model, process supervision.

§3.2.1: "we include one BGP process in one container where one BGP
process can support a few peers using VRF ... Each BGP process should be
running in a pair of containers on different host machines."

Boot time is dominated by configuration loading ("the number of
configurations ... may take up to ~20 minutes" for a monolithic gateway);
per-container configs are small, so containers boot in seconds, and a
*preheated* backup (processes up, state stale) resumes even faster.
"""

import enum

from repro.sim.calibration import (
    CONFIG_LOAD_TIME_PER_ENTRY,
    CONTAINER_BASE_BOOT_TIME,
    CONTAINER_PREHEAT_RESUME_TIME,
)


class ContainerState(enum.Enum):
    CREATED = "created"
    BOOTING = "booting"
    RUNNING = "running"
    STOPPED = "stopped"
    FAILED = "failed"


class Container:
    """One container on a host machine.

    The container owns a management network endpoint (always bound) and
    any number of named processes.  Service addresses (the VRF-facing
    identities) are bound by the :class:`~repro.containers.underlay.Underlay`
    only on the *active* replica of a pair.
    """

    def __init__(self, engine, machine, name, config_entries=100):
        self.engine = engine
        self.machine = machine
        self.name = name
        self.config_entries = config_entries
        self.state = ContainerState.CREATED
        self.endpoint = None  # management Host; created at boot
        self.processes = {}
        self.booted_at = None
        self.failed_at = None
        self.boot_count = 0
        self._boot_callbacks = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def boot_time(self, preheated=False):
        """Seconds from start to RUNNING."""
        if preheated:
            return CONTAINER_PREHEAT_RESUME_TIME
        return CONTAINER_BASE_BOOT_TIME + self.config_entries * CONFIG_LOAD_TIME_PER_ENTRY

    def start(self, on_running=None, preheated=False):
        """Boot the container; ``on_running(container)`` fires when up."""
        if self.state is ContainerState.RUNNING:
            if on_running is not None:
                on_running(self)
            return
        if not self.machine.alive:
            raise RuntimeError(f"cannot start {self.name}: machine {self.machine.name} down")
        self.state = ContainerState.BOOTING
        if on_running is not None:
            self._boot_callbacks.append(on_running)
        self.engine.schedule(self.boot_time(preheated), self._finish_boot)

    def _finish_boot(self):
        if self.state is not ContainerState.BOOTING or not self.machine.alive:
            return
        self.state = ContainerState.RUNNING
        self.booted_at = self.engine.now
        self.boot_count += 1
        if self.endpoint is None:
            self.endpoint = self.machine.attach_endpoint(f"{self.name}.mgmt")
        else:
            self.endpoint.recover()
            self.endpoint.recover_network()
        callbacks, self._boot_callbacks = self._boot_callbacks, []
        for callback in callbacks:
            callback(self)

    @property
    def running(self):
        return self.state is ContainerState.RUNNING and self.machine.alive

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------

    def add_process(self, name, process):
        """Register a supervised process (anything with crash()/alive)."""
        self.processes[name] = process
        return process

    def process_alive(self, name):
        process = self.processes.get(name)
        if process is None:
            return False
        alive = getattr(process, "alive", None)
        if alive is None:
            alive = getattr(process, "running", False)
        return bool(alive)

    def any_process_dead(self):
        return any(not self.process_alive(name) for name in self.processes)

    # ------------------------------------------------------------------
    # failure levers (paper E1/E2/E4)
    # ------------------------------------------------------------------

    def fail(self):
        """E2: the container itself dies; all its processes die with it."""
        if self.state is not ContainerState.RUNNING:
            return
        self.state = ContainerState.FAILED
        self.failed_at = self.engine.now
        for process in self.processes.values():
            if hasattr(process, "crash"):
                process.crash()
        if self.endpoint is not None:
            self.endpoint.fail()

    def fail_network(self):
        """E4: the container's virtual NIC fails; processes stay alive."""
        if self.endpoint is not None:
            self.endpoint.fail_network()

    def stop(self):
        """Orderly stop (controller-driven kill)."""
        self.state = ContainerState.STOPPED
        for process in self.processes.values():
            stop = getattr(process, "stop", None)
            if stop is not None:
                stop()
            elif hasattr(process, "crash"):
                process.crash()
        if self.endpoint is not None:
            self.endpoint.fail()

    def __repr__(self):
        return f"<Container {self.name!r} on {self.machine.name} {self.state.value}>"
