"""Host machines: the physical gateway servers.

Each machine anchors container endpoints, runs a Docker-daemon-style
process monitor (one of the three container-failure detectors of
§3.3.3), and accounts container resources for Fig. 6(d).
"""

from repro.containers.container import Container, ContainerState
from repro.containers.resources import ResourceModel
from repro.sim.calibration import DOCKER_MONITOR_INTERVAL
from repro.sim.process import Process


class HostMachine:
    """A physical gateway server."""

    def __init__(self, engine, network, name, address):
        self.engine = engine
        self.network = network
        self.name = name
        self.host = network.add_host(name, address)
        self.containers = {}
        self.resources = ResourceModel()
        self.monitor = None
        self._endpoint_subnet = address.rsplit(".", 1)[0]
        self._endpoint_counter = 0

    @property
    def address(self):
        return self.host.address

    @property
    def alive(self):
        return self.host.up

    # ------------------------------------------------------------------
    # containers
    # ------------------------------------------------------------------

    def create_container(self, name, config_entries=100):
        container = Container(self.engine, self, name, config_entries)
        self.containers[name] = container
        return container

    def attach_endpoint(self, name):
        """Create a network endpoint anchored on this machine's NIC.

        Addresses are opaque strings to the fabric; a per-machine counter
        keeps them collision-free.
        """
        self._endpoint_counter += 1
        n = self._endpoint_counter
        address = f"{self._endpoint_subnet}.{100 + n // 250}.{n % 250 + 1}"
        return self.network.add_host(name, address, anchor=self.host)

    def running_containers(self):
        return [c for c in self.containers.values() if c.state is ContainerState.RUNNING]

    # ------------------------------------------------------------------
    # resources (Fig. 6(d))
    # ------------------------------------------------------------------

    def memory_used(self):
        return sum(
            self.resources.container_memory(c.config_entries)
            for c in self.running_containers()
        )

    def cpu_used_fraction(self):
        return sum(
            self.resources.container_cpu_fraction() for c in self.running_containers()
        )

    # ------------------------------------------------------------------
    # failure levers (paper E3/E5)
    # ------------------------------------------------------------------

    def fail(self):
        """E3: machine death — every container and endpoint dies."""
        self.host.fail()
        for container in self.containers.values():
            if container.state is ContainerState.RUNNING:
                container.fail()
        if self.monitor is not None:
            self.monitor.stop()

    def fail_network(self):
        """E5: the machine's NIC fails; containers keep running."""
        self.host.fail_network()

    def recover_network(self):
        self.host.recover_network()

    def recover(self):
        """Manual reset after repair (fencing requires this, §3.3.3)."""
        self.host.recover()
        self.host.recover_network()

    def __repr__(self):
        return f"<HostMachine {self.name!r} containers={len(self.containers)}>"


class ProcessMonitor:
    """Docker-daemon-style monitor: watches container & process health.

    Reports ``(kind, container, detail)`` events to the controller through
    a callback; ``kind`` is "container-dead" or "process-dead".  This is
    detector (i) for container failures in §3.3.3.
    """

    def __init__(self, engine, machine, on_event):
        self.engine = engine
        self.machine = machine
        self.on_event = on_event
        self.process = Process(engine, f"dockerd:{machine.name}")
        self._reported = set()
        machine.monitor = self

    def start(self):
        self.process.every(DOCKER_MONITOR_INTERVAL, self._poll)

    def _poll(self):
        if not self.machine.alive:
            return
        for container in self.machine.containers.values():
            if container.state is ContainerState.FAILED:
                key = ("container-dead", container.name, container.failed_at)
                if key not in self._reported:
                    self._reported.add(key)
                    self.on_event("container-dead", container, None)
            elif container.state is ContainerState.RUNNING:
                for name in list(container.processes):
                    if not container.process_alive(name):
                        key = ("process-dead", container.name, name, self.engine.now)
                        marker = ("process-dead", container.name, name)
                        if marker not in self._reported:
                            self._reported.add(marker)
                            self.on_event("process-dead", container, name)

    def clear_reported(self, container_name=None):
        """Forget past reports (after recovery) so new failures re-fire."""
        if container_name is None:
            self._reported.clear()
        else:
            self._reported = {
                key for key in self._reported if key[1] != container_name
            }

    def stop(self):
        self.process.kill()
