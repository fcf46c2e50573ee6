"""The controller: a replicated panel with quorum-voted, epoch-fenced recovery.

DESIGN.md §15.  An unreplicated controller is both a single point of
failure and a single point of *trust*: one wrong verdict fences a
healthy machine fleet-wide.  The panel replicates the *sensing* — each
:class:`PanelReplica` runs its own :class:`FailureDetector` over its own
gRPC channels and its own :class:`DbFailoverMonitor` probes — and
centralizes the *acting* behind two guards, in the spirit of P4BFT's
comparator voting:

- **Quorum**: a recovery action fires only when a majority of replicas
  independently confirmed the same (kind, target) incident.  One
  crashed, partitioned or lying replica can neither trigger a wrong
  failover nor veto a right one.
- **Epoch fence**: actions are stamped with the leadership epoch; pairs,
  the fencing registry and the KV cluster reject stale stamps, so a
  deposed ex-leader's in-flight decisions die at the receiver.

The recovery policy itself is
:class:`~repro.control.controller.RecoveryActions`.  A panel of one
replica (quorum of one, a leader that never changes) is the default
deployment; ``tests/test_controller_determinism.py`` pins it to what the
unreplicated controller it replaced produced on the chaos corpus.
"""

from repro.control.channels import GrpcChannel, HealthServer, next_grpc_port
from repro.control.controller import RecoveryActions
from repro.control.db_monitor import DbFailoverMonitor
from repro.control.detector import FailureDetector, FailureReport
from repro.control.fencing import FencingRegistry
from repro.control.quorum import EpochGate, HealthVerdict, LeaderLease, QuorumTracker
from repro.sim.calibration import PANEL_LIE_INTERVAL, PANEL_TICK
from repro.sim.process import Process


class PanelReplica:
    """One controller replica: an independent witness with its own senses.

    A replica is sensing only — a failure detector fed by its own gRPC
    channels (dialed from its own host, so a controller<->machine
    partition starves exactly one replica) and its own database monitor.
    It *publishes* confirmed failures to the panel; the panel's quorum
    decides and acts.
    """

    def __init__(self, panel, index, engine, host):
        self.panel = panel
        self.index = index
        self.engine = engine
        self.host = host  # this replica's network endpoint
        self.process = Process(engine, f"controller-replica{index}")
        self.detector = FailureDetector(engine, self._on_failure)
        self._machine_channels = {}
        self._container_channels = {}
        self.db_monitor = None
        self.alive = True
        #: bumps on every reboot; stamps verdicts with the detector
        #: incarnation that produced them
        self.incarnation = 1
        self.corruption = None  # None | "accuse_container" | "accuse_machine"
        self._lie_count = 0
        self._lie_task = None

    # -- verdict publication -------------------------------------------

    def _on_failure(self, report):
        if not self.alive:
            return
        if self.corruption is not None:
            # a corrupted monitor's genuine pipeline is untrusted too;
            # it only emits fabrications (see _fabricate)
            return
        self.panel.submit_report(self, report)

    # -- channel wiring (panel-driven; one shared HealthServer) --------

    def _dial_machine(self, machine, port):
        channel = GrpcChannel(
            self.engine,
            self.host,
            machine.name,
            machine.address,
            target_port=port,
            on_unhealthy=lambda ch: self.detector.note_machine_grpc(ch.target_name, False),
            on_healthy=lambda ch: self.detector.note_machine_grpc(ch.target_name, True),
            on_status=lambda ch, status: self.detector.note_machine_status(
                ch.target_name, status
            ),
        )
        channel.start()
        self._machine_channels[machine.name] = channel

    def _dial_container(self, container, machine, port):
        channel = GrpcChannel(
            self.engine,
            self.host,
            container.name,
            container.endpoint.address,
            target_port=port,
            on_unhealthy=lambda ch: self.detector.note_container_grpc(
                ch.target_name, False, machine.name
            ),
            on_healthy=lambda ch: self.detector.note_container_grpc(
                ch.target_name, True, machine.name
            ),
        )
        channel.start()
        self._container_channels[container.name] = channel

    def _attach_db_monitor(self, cluster):
        self.db_monitor = DbFailoverMonitor(
            self.engine, self.host, cluster,
            propose=self._propose_db_failover,
        )

    def _propose_db_failover(self, monitor):
        if not self.alive or self.corruption is not None:
            return
        self.panel.submit_db_verdict(self, monitor)

    # -- fault levers ---------------------------------------------------

    def crash(self):
        if not self.alive:
            return
        self.alive = False
        for channel in self._machine_channels.values():
            channel.stop()
        for channel in self._container_channels.values():
            channel.stop()
        self._machine_channels.clear()
        self._container_channels.clear()
        if self.db_monitor is not None:
            self.db_monitor.stop()
            self.db_monitor = None
        if self._lie_task is not None:
            self._lie_task.stop()
            self._lie_task = None
        self.corruption = None

    def reboot(self):
        if self.alive:
            return
        self.alive = True
        self.incarnation += 1
        # fresh detector: the new incarnation re-learns levels from its
        # own probes (gRPC re-converges within a heartbeat; edge-driven
        # IP SLA feeds refill on their next transition)
        self.detector = FailureDetector(self.engine, self._on_failure)
        for machine, port in self.panel._machine_registry.values():
            self._dial_machine(machine, port)
        for container, machine, port in self.panel._container_registry.values():
            if container.endpoint is not None and container.running:
                self._dial_container(container, machine, port)
        if self.panel._db_cluster is not None:
            self._attach_db_monitor(self.panel._db_cluster)

    def set_corruption(self, mode):
        self.corruption = mode
        if self._lie_task is not None:
            self._lie_task.stop()
            self._lie_task = None
        if mode is not None and self.alive:
            self._lie_task = self.process.every(PANEL_LIE_INTERVAL, self._fabricate)

    def _fabricate(self):
        """Lying-monitor mode: accuse healthy targets, round-robin."""
        if not self.alive or self.corruption is None:
            return
        names = sorted(self.panel.pairs)
        if not names:
            return
        pair = self.panel.pairs[names[self._lie_count % len(names)]]
        self._lie_count += 1
        now = self.engine.now
        if self.corruption == "accuse_machine":
            report = FailureReport(
                "machine_unreachable", pair.primary_machine_name, now, now,
                detail={"fabricated": True},
            )
        else:
            report = FailureReport(
                "container", pair.primary_container_name, now, now,
                detail={"machine": pair.primary_machine_name, "fabricated": True},
            )
        self.panel.submit_report(self, report)


class _DetectorFanout:
    """The panel's ``detector``: the agent's single-origin IP SLA
    verdicts, fanned out to every live replica's own detector."""

    def __init__(self, replicas):
        self._replicas = replicas

    def note_machine_agent_ipsla(self, machine_name, reachable):
        for replica in self._replicas:
            if replica.alive:
                replica.detector.note_machine_agent_ipsla(machine_name, reachable)

    def note_container_ipsla(self, container_name, reachable, machine_name):
        for replica in self._replicas:
            if replica.alive:
                replica.detector.note_container_ipsla(
                    container_name, reachable, machine_name
                )


class ControllerPanel(RecoveryActions):
    """The cluster controller: 1–5 sensing replicas behind one quorum
    and one epoch fence."""

    def __init__(self, engine, hosts, fencing=None, epoch_gate=None):
        self.engine = engine
        self.hosts = list(hosts)
        if not self.hosts:
            raise ValueError("ControllerPanel needs at least one host")
        self.process = Process(engine, "controller-panel")
        self.epoch_gate = epoch_gate if epoch_gate is not None else EpochGate()
        # explicit None-check: an empty registry is falsy (it has __len__)
        self.fencing = fencing if fencing is not None else FencingRegistry(
            engine, epoch_gate=self.epoch_gate
        )
        self.replicas = [
            PanelReplica(self, index, engine, host)
            for index, host in enumerate(self.hosts)
        ]
        self.quorum = QuorumTracker(len(self.replicas))
        self.lease = LeaderLease(self.replicas)
        self.epoch_gate.announce(self.lease.epoch)
        self.detector = _DetectorFanout(self.replicas)

        self.machines = {}  # name -> HostMachine
        self.pairs = {}  # name -> pair object
        self._machine_registry = {}  # name -> (machine, health port)
        self._container_registry = {}  # name -> (container, machine, port)
        self.records = []
        self.events = []
        self.verdicts = []  # every HealthVerdict ever submitted
        self._recovering = set()
        self._active_recovery = {}
        self.abandoned_records = []
        self.failure_hooks = []  # fn(report) observers (tests/benchmarks)
        self._db_cluster = None
        self._db_on_failover = None
        #: (replica index, machine name) pairs currently partitioned
        self._partitions = set()
        self.process.every(PANEL_TICK, self._tick)

    # ------------------------------------------------------------------
    # leadership
    # ------------------------------------------------------------------

    def _tick(self):
        self._ensure_leader()

    def _ensure_leader(self):
        if self.lease.ensure():
            self.epoch_gate.announce(self.lease.epoch)
            self.events.append(
                (self.engine.now, "leader-elected",
                 (self.lease.leader_index, self.lease.epoch))
            )

    @property
    def leader(self):
        """The replica currently holding the lease (its ``detector`` is
        the one to inspect when a single view of the signals is wanted)."""
        return self.lease.leader()

    # -- the replication side of RecoveryActions -----------------------

    def _action_epoch(self):
        """The leadership epoch stamped on every recovery action."""
        self._ensure_leader()
        return self.lease.epoch

    def _action_still_valid(self, epoch):
        """Recheck a decision at execution time: am I still leader?"""
        self._ensure_leader()
        return epoch == self.lease.epoch and self.leader.alive

    def _rearm_target(self, name):
        for replica in self.replicas:
            if replica.alive:
                replica.detector.rearm_target(name)
        self.quorum.reset_target(name)

    def _reset_target(self, name):
        for replica in self.replicas:
            if replica.alive:
                replica.detector.reset_target(name)
        self.quorum.reset_target(name)

    def _pair_recovered(self, pair):
        # a closed incident must not block re-detection of a recurrence
        self.quorum.reset_target(pair.primary_container_name)
        self.quorum.reset_target(pair.backup_container_name)

    # ------------------------------------------------------------------
    # registration / wiring
    # ------------------------------------------------------------------

    def register_machine(self, machine):
        """Track a machine: one health server, a gRPC channel per replica."""
        self.machines[machine.name] = machine
        port = next_grpc_port(self.engine)
        HealthServer(
            self.engine,
            machine.host,
            status_fn=lambda m=machine: _machine_status(m),
            port=port,
        )
        self._machine_registry[machine.name] = (machine, port)
        for replica in self.replicas:
            if replica.alive:
                replica._dial_machine(machine, port)

    def register_container_channel(self, container, machine):
        """gRPC channels to one container's management endpoint."""
        if container.endpoint is None:
            raise RuntimeError(
                f"container {container.name} has no endpoint (not booted)"
            )
        port = next_grpc_port(self.engine)
        HealthServer(
            self.engine,
            container.endpoint,
            status_fn=lambda c=container: _container_status(c),
            port=port,
        )
        self._container_registry[container.name] = (container, machine, port)
        for replica in self.replicas:
            if replica.alive:
                replica._dial_container(container, machine, port)

    def register_pair(self, pair):
        self.pairs[pair.name] = pair

    def attach_database(self, cluster, on_failover=None):
        """Watch a replicated KV cluster and fail it over automatically.

        On a quorum-confirmed primary death the leader promotes the
        replica under the next cluster epoch; ``on_failover(new_addr,
        epoch)`` is then invoked (the system uses it to repoint every KV
        client).
        """
        self._db_cluster = cluster
        self._db_on_failover = on_failover
        for replica in self.replicas:
            if replica.alive:
                replica._attach_db_monitor(cluster)

    # ------------------------------------------------------------------
    # signal intake
    # ------------------------------------------------------------------

    def _replica_sees(self, replica, machine_name):
        return replica.alive and (replica.index, machine_name) not in self._partitions

    def docker_event(self, kind, container, detail):
        """Entry point for ProcessMonitor events forwarded over gRPC."""
        machine_name = container.machine.name
        for replica in self.replicas:
            if not self._replica_sees(replica, machine_name):
                continue
            if kind == "container-dead":
                replica.detector.note_container_dead(container.name)
            elif kind == "process-dead":
                replica.detector.note_process_dead(
                    container.name, detail, machine_name
                )

    def peer_ipsla_report(self, origin_machine_name, target_name, reachable):
        """Inter-machine IP SLA verdict about ``target_name``."""
        # gate on the *origin*: a replica partitioned from gw-1 must not
        # hear gw-1's opinion of its peers through the back door
        for replica in self.replicas:
            if self._replica_sees(replica, origin_machine_name):
                replica.detector.note_machine_peer_ipsla(target_name, reachable)

    # ------------------------------------------------------------------
    # verdict intake → quorum → action
    # ------------------------------------------------------------------

    def submit_report(self, replica, report):
        if not replica.alive:
            return
        self.verdicts.append(
            HealthVerdict(replica.index, report.kind, report.target_name,
                          report.confirmed_at, replica.incarnation,
                          report.detail)
        )
        key = ("health", report.kind, report.target_name)
        if self.quorum.submit(key, replica.index):
            self._ensure_leader()
            self._accept_report(report)
        elif self.quorum.acted(key):
            # late confirmation of an incident quorum already accepted: a
            # container failure surfaces through several signals (docker
            # event, supervisor, gRPC heartbeat); every one is logged and
            # dispatched (dispatch dedupes on the in-flight recovery), as
            # the unreplicated controller did — the golden pins hold a
            # panel of one to that event log.
            self._accept_report(report)

    def _accept_report(self, report):
        # the canonical failure intake, once quorum agreed the report is real
        self.events.append((self.engine.now, "failure-report", report))
        for hook in self.failure_hooks:
            hook(report)
        if report.kind == "machine_unreachable":
            self._handle_machine_failure(report)
        else:
            self._handle_container_level_failure(report)

    def submit_db_verdict(self, replica, monitor):
        if not replica.alive:
            return
        cluster = monitor.cluster
        self.verdicts.append(
            HealthVerdict(replica.index, "db_primary_dead",
                          cluster.primary_addr, self.engine.now,
                          replica.incarnation)
        )
        if self.quorum.submit(("db", cluster.epoch), replica.index):
            self._execute_db_failover(monitor)

    def _execute_db_failover(self, monitor):
        self._ensure_leader()
        leader = self.leader
        executor = monitor
        if leader.alive and leader.db_monitor is not None:
            executor = leader.db_monitor
        new_addr = executor.execute_promotion(controller_epoch=self.lease.epoch)
        if new_addr is None:
            self.events.append(
                (self.engine.now, "action-rejected",
                 ("db", "promote_replica", "stale-epoch"))
            )
            return
        cluster = executor.cluster
        self.events.append(
            (self.engine.now, "database-failover", (new_addr, cluster.epoch))
        )
        for replica in self.replicas:
            if (replica.alive and replica.db_monitor is not None
                    and replica.db_monitor is not executor):
                replica.db_monitor.note_promoted(new_addr, cluster.epoch)
        if self._db_on_failover is not None:
            self._db_on_failover(new_addr, cluster.epoch)

    # ------------------------------------------------------------------
    # fault levers (chaos engine entry points)
    # ------------------------------------------------------------------

    def crash_replica(self, index):
        replica = self.replicas[index]
        if not replica.alive:
            return
        replica.crash()
        self.events.append((self.engine.now, "replica-crash", index))
        self._ensure_leader()

    def reboot_replica(self, index):
        replica = self.replicas[index]
        if replica.alive:
            return
        replica.reboot()
        self.events.append((self.engine.now, "replica-reboot", index))

    def set_corruption(self, index, mode):
        self.replicas[index].set_corruption(mode)
        self.events.append(
            (self.engine.now, "replica-corruption", (index, mode))
        )

    def set_partitioned(self, index, machine_name, partitioned):
        key = (index, machine_name)
        if partitioned:
            self._partitions.add(key)
        else:
            self._partitions.discard(key)
        self.events.append(
            (self.engine.now, "replica-partition",
             (index, machine_name, partitioned))
        )

    def alive_count(self):
        return sum(1 for replica in self.replicas if replica.alive)

    def __repr__(self):
        return (
            f"<ControllerPanel n={len(self.replicas)}"
            f" alive={self.alive_count()} {self.lease!r}>"
        )


def _machine_status(machine):
    return {
        "containers": {
            name: {
                "running": container.running,
                "processes": {
                    pname: container.process_alive(pname)
                    for pname in container.processes
                },
            }
            for name, container in machine.containers.items()
        },
    }


def _container_status(container):
    return {
        "running": container.running,
        "processes": {
            name: container.process_alive(name) for name in container.processes
        },
    }
