"""Failure location (§3.3.3): combine signals, confirm, classify.

The controller cannot trust any single signal.  This detector implements
the paper's rules:

- **Application failures (E1)**: the in-container supervisor reports a
  dead BGP/BFD process; the container itself is fine.
- **Container failures (E2)**: the host's process monitor (Docker
  daemon), the controller's gRPC health check, or IP SLA probes flag the
  container.
- **Container network failures (E4)**: network probes to the container
  fail while "the process monitor on the host machine will not report an
  error".
- **Host machine (E3) / host network (E5) failures**: only when *all* of
  (i) controller gRPC heartbeat, (ii) IP SLA from the agent, and
  (iii) inter-server IP SLA fail, and a 3-second confirmation timer
  passes with all signals still failing, is the machine declared failed —
  "we take multiple measurements to verify it and avoid false positives".
"""

from repro.sim.calibration import HOST_FAILURE_CONFIRM_TIMER
from repro.sim.process import Timer


class FailureReport:
    """A confirmed, classified failure handed to the controller."""

    def __init__(self, kind, target_name, detected_at, confirmed_at, detail=None):
        self.kind = kind  # "application" | "container" | "container_network"
        #        | "machine_unreachable"
        self.target_name = target_name
        self.detected_at = detected_at
        self.confirmed_at = confirmed_at
        self.detail = detail

    def __repr__(self):
        return (
            f"<FailureReport {self.kind} {self.target_name}"
            f" det={self.detected_at:.3f} conf={self.confirmed_at:.3f}>"
        )


class _MachineSignals:
    __slots__ = ("grpc_down", "agent_ipsla_down", "peer_ipsla_down", "first_signal_at", "timer", "reported")

    def __init__(self):
        self.grpc_down = False
        self.agent_ipsla_down = False
        self.peer_ipsla_down = False
        self.first_signal_at = None
        self.timer = None
        self.reported = False

    def all_down(self):
        return self.grpc_down and self.agent_ipsla_down and self.peer_ipsla_down

    def any_down(self):
        return self.grpc_down or self.agent_ipsla_down or self.peer_ipsla_down


class _ContainerSignals:
    __slots__ = ("grpc_down", "ipsla_down", "first_signal_at", "reported", "machine_name")

    def __init__(self):
        self.grpc_down = False
        self.ipsla_down = False
        self.first_signal_at = None
        self.reported = False
        self.machine_name = None


class FailureDetector:
    """Aggregates raw signals into confirmed :class:`FailureReport`\\ s."""

    def __init__(self, engine, on_failure):
        self.engine = engine
        self.on_failure = on_failure
        self._machines = {}
        self._containers = {}
        #: machine_name -> status dict from its last healthy gRPC heartbeat
        self.machine_status = {}
        self.reports = []

    # ------------------------------------------------------------------
    # signal intake
    # ------------------------------------------------------------------

    def note_machine_status(self, machine_name, status):
        self.machine_status[machine_name] = status

    def note_process_dead(self, container_name, process_name, machine_name):
        """E1 via the in-container supervisor: immediate, authoritative."""
        self._emit("application", container_name, self.engine.now, self.engine.now,
                   detail={"process": process_name, "machine": machine_name})

    def note_container_dead(self, container_name):
        """E2 via the Docker-daemon monitor: immediate, authoritative."""
        state = self._container(container_name)
        if state.reported:
            return
        state.reported = True
        now = self.engine.now
        first = state.first_signal_at if state.first_signal_at is not None else now
        self._emit("container", container_name, first, now)

    def note_container_grpc(self, container_name, healthy, machine_name):
        state = self._container(container_name)
        state.machine_name = machine_name
        state.grpc_down = not healthy
        if not healthy and state.first_signal_at is None:
            state.first_signal_at = self.engine.now
        if healthy:
            state.first_signal_at = None
            state.reported = False
        self._evaluate_container(container_name, machine_name)

    def note_container_ipsla(self, container_name, reachable, machine_name):
        state = self._container(container_name)
        state.machine_name = machine_name
        state.ipsla_down = not reachable
        if not reachable and state.first_signal_at is None:
            state.first_signal_at = self.engine.now
        if reachable:
            state.reported = False
        self._evaluate_container(container_name, machine_name)

    def note_machine_grpc(self, machine_name, healthy):
        state = self._machine(machine_name)
        state.grpc_down = not healthy
        self._machine_signal_changed(machine_name, state)

    def note_machine_agent_ipsla(self, machine_name, reachable):
        state = self._machine(machine_name)
        state.agent_ipsla_down = not reachable
        self._machine_signal_changed(machine_name, state)

    def note_machine_peer_ipsla(self, machine_name, reachable):
        state = self._machine(machine_name)
        state.peer_ipsla_down = not reachable
        self._machine_signal_changed(machine_name, state)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def _evaluate_container(self, container_name, machine_name):
        """Classify a container whose probes fail (E2 vs E4)."""
        state = self._container(container_name)
        if state.reported or not (state.grpc_down and state.ipsla_down):
            return
        machine_state = self._machine(machine_name)
        if machine_state.any_down():
            return  # machine-level issue; handled by the machine path
        state.reported = True
        status = self.machine_status.get(machine_name, {})
        container_states = status.get("containers", {})
        container_ok = container_states.get(container_name, {}).get("running", False)
        kind = "container_network" if container_ok else "container"
        self._emit(kind, container_name, state.first_signal_at or self.engine.now,
                   self.engine.now, detail={"machine": machine_name})

    def _machine_signal_changed(self, machine_name, state):
        if state.all_down():
            if state.first_signal_at is None:
                state.first_signal_at = self.engine.now
            if state.timer is None and not state.reported:
                # "a 3-second timer will be given before we begin the
                #  recovery to avoid false positives"
                state.timer = Timer(
                    self.engine,
                    lambda: self._confirm_machine(machine_name),
                    f"confirm:{machine_name}",
                )
                state.timer.start(HOST_FAILURE_CONFIRM_TIMER)
        else:
            # Any recovering signal disarms the confirmation (transient
            # jitter must not trigger a mass migration).
            if state.timer is not None:
                state.timer.stop()
                state.timer = None
            if not state.any_down():
                state.first_signal_at = None
                state.reported = False
                # The machine path just concluded "false positive".  Any
                # container deferred to it (probes failing while machine
                # signals were down) is still broken — the probes report
                # edges, not levels, so without this sweep a container
                # network failure overlapped by a transient host blip is
                # never classified and the pair never recovers.
                self._reevaluate_machine_containers(machine_name)

    def _reevaluate_machine_containers(self, machine_name):
        for container_name, state in list(self._containers.items()):
            if (state.machine_name == machine_name
                    and state.grpc_down and state.ipsla_down):
                self._evaluate_container(container_name, machine_name)

    def _confirm_machine(self, machine_name):
        state = self._machine(machine_name)
        state.timer = None
        if not state.all_down() or state.reported:
            return
        state.reported = True
        self._emit(
            "machine_unreachable",
            machine_name,
            state.first_signal_at or self.engine.now,
            self.engine.now,
        )

    def _emit(self, kind, target, detected_at, confirmed_at, detail=None):
        report = FailureReport(kind, target, detected_at, confirmed_at, detail)
        self.reports.append(report)
        self.on_failure(report)

    # ------------------------------------------------------------------

    def _machine(self, name):
        if name not in self._machines:
            self._machines[name] = _MachineSignals()
        return self._machines[name]

    def _container(self, name):
        if name not in self._containers:
            self._containers[name] = _ContainerSignals()
        return self._containers[name]

    def reset_target(self, name):
        """Forget state after recovery so future failures re-report."""
        self._machines.pop(name, None)
        self._containers.pop(name, None)

    def rearm_target(self, name):
        """Allow a target to re-report *without* forgetting signal levels.

        Used when a recovery is abandoned: the probes may still be down
        (edge-triggered feeds will not re-fire), so we must keep the
        current levels and only clear the report latches.
        """
        machine = self._machines.get(name)
        if machine is not None:
            machine.reported = False
            if machine.timer is not None:
                machine.timer.stop()
                machine.timer = None
            self._machine_signal_changed(name, machine)
        container = self._containers.get(name)
        if container is not None:
            container.reported = False
            if container.machine_name is not None:
                self._evaluate_container(name, container.machine_name)
