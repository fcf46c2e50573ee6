"""Full-system assembly: machines, pairs, controller, database, agent.

:class:`TensorSystem` builds the cluster of Figure 3: gateway host
machines running primary/backup container pairs, the logically
centralized controller, the agent server with its BFD relays and IP SLA
probes, the KV database, and the VXLAN underlay binding each pair's
service address to whichever container is active.

:class:`TensorPair` is one primary/backup container pair and implements
the recovery actions the controller drives (in-place application restart
for E1; NSR migration for E2/E4 and machine-level failures).
"""

from repro.bfd.packet import BfdState
from repro.bfd.process import BfdProcess
from repro.bgp.peer import PeerConfig
from repro.bgp.prefixes import prefix_text
from repro.bgp.speaker import DEFAULT_MRAI, SpeakerConfig
from repro.containers.host import HostMachine, ProcessMonitor
from repro.control.fencing import FencingRegistry
from repro.control.panel import ControllerPanel
from repro.control.quorum import EpochGate
from repro.control.ipsla import IpSlaProber, IpSlaResponder
from repro.core.agent import AgentServer
from repro.core.recovery import BackupRecovery
from repro.core.replication import ReplicationPipeline
from repro.core.tensor_process import TensorBgpSpeaker
from repro.kvstore.client import KvClient
from repro.kvstore.replication import ReplicatedKvCluster
from repro.kvstore.server import KvServer
from repro.containers.underlay import Underlay
from repro.sim.calibration import (
    APP_MONITOR_INTERVAL,
    APP_RESTART_TIME,
    PROCESS_START_TIME,
    TCP_REPAIR_RESUME_TIME,
)
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.rand import DeterministicRandom
from repro.tcpsim.repair import import_tcp_state, resume_connection
from repro.tcpsim.stack import TcpStack


class PeerNeighborSpec:
    """One remote BGP neighbour of a pair."""

    def __init__(self, remote_addr, remote_as, vrf_name="default", mode="active",
                 hold_time=90, keepalive_interval=30,
                 bfd_tx_interval=None, bfd_detect_mult=None, mrai=None,
                 import_policy=None, export_policy=None):
        self.remote_addr = remote_addr
        self.remote_as = remote_as
        self.vrf_name = vrf_name
        self.mode = mode
        self.hold_time = hold_time
        self.keepalive_interval = keepalive_interval
        #: BFD timer overrides; ``None`` uses the calibrated defaults.
        self.bfd_tx_interval = bfd_tx_interval
        self.bfd_detect_mult = bfd_detect_mult
        #: Per-peer MRAI override (effective under per-peer MRAI modes).
        self.mrai = mrai
        self.import_policy = import_policy
        self.export_policy = export_policy

    def to_peer_config(self):
        return PeerConfig(
            self.remote_addr,
            self.remote_as,
            vrf_name=self.vrf_name,
            mode=self.mode,
            hold_time=self.hold_time,
            keepalive_interval=self.keepalive_interval,
            mrai=self.mrai,
            import_policy=self.import_policy,
            export_policy=self.export_policy,
        )


class TensorSystem:
    """The whole gateway cluster."""

    def __init__(self, seed=0, hold_acks=True, hook_technology="netfilter",
                 remote_db=None, tracing=False, controller_replicas=1):
        """``remote_db``: None, or {"latency": seconds, "mode": "sync"|"async"}
        to add a disaster-recovery store in another facility (§5).
        ``tracing=True`` installs a causal tracer on the engine (DESIGN.md
        §10); query the spans through :attr:`trace_store`.
        ``controller_replicas`` sizes the controller panel (DESIGN.md
        §15); the default is a panel of one."""
        self.engine = Engine()
        self.tracer = None
        if tracing:
            from repro.trace import Tracer

            self.tracer = Tracer(self.engine)
        self.rng = DeterministicRandom(seed)
        self.network = Network(self.engine)
        self.network.enable_fabric()
        self.underlay = Underlay(self.network)
        self.hold_acks = hold_acks
        self.hook_technology = hook_technology

        # One leadership-epoch fence shared by every receiver of
        # controller actions: the fencing registry, the pairs (via
        # ``_epoch_accepted``) and the KV cluster.
        self.controller_epoch_gate = EpochGate()
        self.controller_host = self.network.add_host("controller", "10.255.0.1")
        self.controller_hosts = [self.controller_host]
        for index in range(1, controller_replicas):
            self.controller_hosts.append(
                self.network.add_host(
                    f"controller{index + 1}", f"10.255.0.{index + 1}"
                )
            )
        self.fencing = FencingRegistry(
            self.engine, epoch_gate=self.controller_epoch_gate
        )
        self.controller = ControllerPanel(
            self.engine,
            self.controller_hosts,
            fencing=self.fencing,
            epoch_gate=self.controller_epoch_gate,
        )

        # Default database topology (§4.1): a replicated KV cluster —
        # primary + synchronous replica on separate hosts — watched by
        # the controller's failover monitor.  ``system.db`` resolves to
        # the *current* primary, so failure levers and oracles keep
        # working across an automatic promotion.
        self.db_host = self.network.add_host("db", "10.254.0.1")
        self.db_replica_host = self.network.add_host("db-replica", "10.254.0.2")
        self.db_cluster = ReplicatedKvCluster(
            self.engine, self.db_host, self.db_replica_host
        )
        self.db_cluster.epoch_gate = self.controller_epoch_gate
        self._kv_registry = []
        self.controller.attach_database(self.db_cluster, self._on_db_failover)
        self.remote_db_spec = remote_db
        self.remote_db = None
        self.remote_db_host = None
        if remote_db is not None:
            self.remote_db_host = self.network.add_host("remote-db", "10.252.0.1")
            self.remote_db = KvServer(self.engine, self.remote_db_host)

        self.agent_host = self.network.add_host("agent", "10.253.0.1")
        IpSlaResponder(self.engine, self.agent_host)
        self.agent = AgentServer(
            self.engine, self.agent_host, self.controller, rng=self.rng.stream("agent")
        )

        self.machines = {}
        self.pairs = {}
        self._machine_probers = {}

    @property
    def trace_store(self):
        """The tracer's span store, or None when tracing is off."""
        return self.tracer.store if self.tracer is not None else None

    @property
    def db(self):
        """The cluster's current primary KV server."""
        return self.db_cluster.primary

    # ------------------------------------------------------------------
    # database clients / failover
    # ------------------------------------------------------------------

    def kv_client(self, host):
        """An epoch-aware KV client on the current primary, registered
        for controller repoint pushes on failover."""
        client = KvClient(
            self.engine,
            host,
            self.db_cluster.primary_addr,
            self.db_cluster.port,
            epoch=self.db_cluster.epoch,
        )
        self._kv_registry.append(client)
        return client

    def _on_db_failover(self, new_addr, epoch):
        # Push the new endpoint to every registered client over the
        # management network (one gRPC-ish hop each).
        for client in self._kv_registry:
            self.engine.schedule(0.002, client.repoint, new_addr, epoch)

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    def add_machine(self, name, address):
        machine = HostMachine(self.engine, self.network, name, address)
        self.machines[name] = machine
        IpSlaResponder(self.engine, machine.host)
        self.controller.register_machine(machine)
        monitor = ProcessMonitor(
            self.engine, machine, on_event=self.controller.docker_event
        )
        monitor.start()
        if self.remote_db_host is not None:
            # the inter-facility path: dedicated link with real WAN latency
            self.network.connect(
                machine.host, self.remote_db_host,
                latency=self.remote_db_spec["latency"], bandwidth=10e9,
            )
        self.agent.probe_machine(machine)
        # Inter-machine IP SLA mesh (signal (iii) of §3.3.3).
        prober = IpSlaProber(
            self.engine,
            machine.host,
            name=f"peer-ipsla:{name}",
            on_change=self._on_peer_probe_change,
        )
        prober.start()
        for other_name, other in self.machines.items():
            if other is machine:
                continue
            prober.add_target(other_name, other.address)
            self._machine_probers[other_name].add_target(name, machine.address)
        self._machine_probers[name] = prober
        return machine

    def _on_peer_probe_change(self, prober, target_name, reachable):
        # name the *origin* machine: the panel gates this feed on which
        # replicas can currently reach the reporting machine
        origin = prober.name.split(":", 1)[1]
        self.controller.peer_ipsla_report(origin, target_name, reachable)

    def create_pair(self, name, *args, **kwargs):
        """A :class:`TensorPair` (same arguments, minus ``system``),
        registered with the controller."""
        pair = self.pairs[name] = TensorPair(self, name, *args, **kwargs)
        self.controller.register_pair(pair)
        return pair

    def run(self, duration):
        self.engine.advance(duration)

    def rib_digest(self):
        """Canonical, picklable snapshot of every pair's Loc-RIBs.

        ``{(pair, vrf): ((prefix, peer_id, source_kind, attrs_wire), ...)}``
        from :meth:`LocRib.digest`, rows streamed from the shared paths —
        two runs of the same scenario are equivalent iff their digests are
        equal, which is the comparison the parallel runtime's bit-identical
        guarantee is checked against (workers=1 vs workers=N).
        """
        digest = {}
        for pair_name in sorted(self.pairs):
            speaker = self.pairs[pair_name].speaker
            if speaker is None:
                continue
            for vrf_name in sorted(speaker.vrfs):
                digest[(pair_name, vrf_name)] = (
                    speaker.vrfs[vrf_name].loc_rib.digest())
        return digest


class TensorPair:
    """One primary/backup container pair (one BGP process, one BFD)."""

    def __init__(self, system, name, primary_machine, backup_machine, service_addr,
                 local_as, router_id, neighbors, config_entries=100,
                 mrai=None, mrai_mode="per_speaker",
                 aggregate_snapshots=False):
        self.system = system
        self.engine = system.engine
        self.name = name
        self.service_addr = service_addr
        self.local_as = local_as
        self.router_id = router_id
        self.neighbors = list(neighbors)
        self.config_entries = config_entries
        self.mrai = mrai
        self.mrai_mode = mrai_mode
        # DRAGON snapshot aggregation (DESIGN.md §14), default-off:
        # collapses uniform subtrees in the KV snapshot chunks.
        self.aggregate_snapshots = aggregate_snapshots

        self.active_machine = primary_machine
        self.standby_machine = backup_machine
        self.active_container = primary_machine.create_container(
            f"{name}-a", config_entries
        )
        self.standby_container = backup_machine.create_container(
            f"{name}-b", config_entries
        )

        self.speaker = None
        self.bfd = None
        self.stack = None
        self.service_endpoint = None
        self.pipeline = None
        self._kv_clients = []
        self.supervisor = None
        self._suppress_supervision = False
        self._bfd_disc_registry = {}  # (vrf, remote) -> (my_disc, your_disc)
        self.activations = 0
        #: set while the standby container is known-dead (the pair has
        #: lost its insurance); cleared when a replacement comes up
        self.backup_degraded = False
        self._standby_refreshes = 0
        self.on_bfd_down = None
        self._migration_span = None  # open "migration" trace span

    # ------------------------------------------------------------------
    # controller-facing interface
    # ------------------------------------------------------------------

    @property
    def primary_machine_name(self):
        return self.active_machine.name

    @property
    def backup_machine_name(self):
        return self.standby_machine.name

    @property
    def primary_container_name(self):
        return self.active_container.name

    @property
    def backup_container_name(self):
        return self.standby_container.name

    def _epoch_accepted(self, action, epoch):
        """Receiver-side epoch fence on controller-driven actions."""
        gate = self.system.controller_epoch_gate
        if gate.accepts(epoch):
            return True
        gate.reject((action, self.name), epoch)
        return False

    # ------------------------------------------------------------------
    # bring-up
    # ------------------------------------------------------------------

    def start(self):
        """Boot the primary, start processes, preheat the backup."""
        self.active_container.start(
            on_running=lambda _c: self._activate_fresh()
        )
        self.standby_container.start()

    def _activate_fresh(self):
        self._build_runtime(self.active_container, self.active_machine)
        self.speaker.start()
        self.bfd.start()
        self._register_monitoring()
        self.engine.schedule(0.5, self._register_relay)

    def _build_runtime(self, container, machine, recovered=False):
        """Construct stack + pipeline + speaker + BFD inside ``container``."""
        binding = self.system.underlay.claim(
            self.service_addr, machine, container, vrf_name="svc"
        )
        self.service_endpoint = binding.endpoint
        self.stack = TcpStack(
            self.engine,
            self.service_endpoint,
            hook_technology=self.system.hook_technology,
        )
        fast = self.system.kv_client(container.endpoint)
        bulk = self.system.kv_client(container.endpoint)
        self._kv_clients = [fast, bulk]
        remote_client = None
        remote_mode = "sync"
        if self.system.remote_db is not None:
            remote_client = KvClient(
                self.engine, container.endpoint, self.system.remote_db_host.address
            )
            remote_mode = self.system.remote_db_spec.get("mode", "sync")
            self._kv_clients.append(remote_client)
        self.pipeline = ReplicationPipeline(
            self.name, fast, bulk,
            remote_client=remote_client, remote_mode=remote_mode,
            aggregate_snapshots=self.aggregate_snapshots,
        )
        self.speaker = TensorBgpSpeaker(
            self.engine,
            self.stack,
            SpeakerConfig(
                self.name, self.local_as, self.router_id, profile="tensor",
                mrai=self.mrai if self.mrai is not None else DEFAULT_MRAI,
                mrai_mode=self.mrai_mode,
            ),
            self.pipeline,
            self.name,
            hold_acks=self.system.hold_acks,
        )
        self.bfd = BfdProcess(
            self.engine, self.service_endpoint, rng=self.system.rng.stream(f"bfd:{self.name}")
        )
        for neighbor in self.neighbors:
            if not recovered:
                self.speaker.add_vrf(neighbor.vrf_name)
                self.speaker.add_peer(neighbor.to_peer_config())
            prior = self._bfd_disc_registry.get((neighbor.vrf_name, neighbor.remote_addr))
            bfd_kwargs = {}
            if neighbor.bfd_tx_interval is not None:
                bfd_kwargs["tx_interval"] = neighbor.bfd_tx_interval
            if neighbor.bfd_detect_mult is not None:
                bfd_kwargs["detect_mult"] = neighbor.bfd_detect_mult
            session = self.bfd.add_session(
                neighbor.vrf_name,
                neighbor.remote_addr,
                on_state_change=self._on_bfd_state,
                my_disc=prior[0] if prior else None,
                your_disc=prior[1] if prior else 0,
                initial_state=BfdState.UP if (recovered and prior) else BfdState.DOWN,
                **bfd_kwargs,
            )
            self._bfd_disc_registry[(neighbor.vrf_name, neighbor.remote_addr)] = (
                session.my_disc,
                session.your_disc,
            )
        self.speaker.on_exit = self.bfd.on_exit = self._process_exited
        container.add_process("bgp", _BgpApp(self.speaker, self.stack))
        container.add_process("bfd", self.bfd)

    def _process_exited(self):
        if self.supervisor is not None:
            self.supervisor.process_exited()

    def _register_monitoring(self):
        container = self.active_container
        if not container.monitoring_registered:
            container.monitoring_registered = True
            self.system.controller.register_container_channel(
                container, self.active_machine
            )
            IpSlaResponder(self.engine, container.endpoint)
            self.system.agent.probe_container(container, self.active_machine)
        else:
            # re-activation of a container seen before: just repoint the
            # agent's probe (the responder and channel are still bound)
            self.system.agent.retarget_container(
                container.name, container.endpoint.address
            )
        if self.supervisor is not None:
            self.supervisor.stop()
        self.supervisor = AppSupervisor(self)
        self.supervisor.start()

    def _register_relay(self):
        """Ship BFD session specs to the agent (discriminators now known)."""
        if self.bfd is not None and self.bfd.alive:
            specs = self.bfd.export_relay_specs()
            if specs:
                self.system.agent.register_relay(self.name, specs)
                # keep the registry's your_disc fresh for recovery
                for spec in specs:
                    self._bfd_disc_registry[(spec["vrf"], spec["remote_addr"])] = (
                        spec["my_disc"],
                        spec["your_disc"],
                    )

    def _on_bfd_state(self, session, old, new):
        if new is BfdState.DOWN and old is BfdState.UP:
            if self.on_bfd_down is not None:
                self.on_bfd_down(self, session)

    # ------------------------------------------------------------------
    # recovery action: in-place application restart (E1)
    # ------------------------------------------------------------------

    def _begin_migration_span(self, record, kind):
        tracer = self.engine._trace_hook
        if tracer is None:
            return
        if self._migration_span is not None:
            self._migration_span.finish(outcome="superseded")
        self._migration_span = tracer.begin(
            "migration", parent=None,
            pair=self.name, kind=kind,
            failure=record.failure_kind,
            from_container=self.active_container.name,
        )

    def restart_application(self, record, on_done, epoch=None):
        if not self._epoch_accepted("restart_application", epoch):
            return False
        self._begin_migration_span(record, "app_restart")
        self._suppress_supervision = True
        container = self.active_container
        # the dead processes' sockets and hooks are gone
        if self.stack is not None:
            self.stack.destroy()
        if self.bfd is not None:
            self.bfd.crash()
        self.engine.schedule(
            APP_RESTART_TIME, self._app_restarted, container, record, on_done
        )
        return True

    def _app_restarted(self, container, record, on_done):
        if not container.running:
            return  # the container died meanwhile; controller will re-detect
        record.rebooted_at = self.engine.now
        self._build_runtime(container, self.active_machine, recovered=True)
        self._recover_from_db(record, on_done)
        if self.active_machine.monitor is not None:
            self.active_machine.monitor.clear_reported(container.name)

    # ------------------------------------------------------------------
    # recovery action: NSR migration to the backup (E2/E4/E3/E5)
    # ------------------------------------------------------------------

    def kill_primary_container(self, epoch=None):
        if not self._epoch_accepted("kill_primary_container", epoch):
            return False
        self._suppress_supervision = True
        self.active_container.stop()
        return True

    def _serviceable_standby(self):
        """The machine a standby should live on: the current standby
        machine when it can serve (alive, network up, not fenced), else
        the first other machine that can, or None."""
        def serviceable(machine):
            return (machine.alive and machine.host.network_up
                    and not self.system.fencing.is_fenced(machine.name))

        if serviceable(self.standby_machine):
            return self.standby_machine
        return next((machine for machine in self.system.machines.values()
                     if machine is not self.active_machine
                     and serviceable(machine)), None)

    def _ensure_healthy_standby(self):
        """Re-home the standby when its machine is fenced or dead.

        The controller guarantees at most one active per address via the
        underlay; this guarantees the *target* of a migration is a
        machine that can actually serve.
        """
        machine = self._serviceable_standby()
        if machine is None:
            return False  # nowhere to go: stay on the (possibly dead) primary
        if machine is not self.standby_machine:
            self.standby_machine = machine
            self.standby_container = machine.create_container(
                f"{self.name}-{self.activations + 1}r", self.config_entries
            )
        return True

    def activate_backup(self, record, on_done, cold=False, epoch=None):
        if not self._epoch_accepted("activate_backup", epoch):
            return False
        self._suppress_supervision = True
        if not self._ensure_healthy_standby():
            record.note("no healthy standby machine available; aborting")
            return None
        self._begin_migration_span(record, "backup_activation")
        self.activations += 1
        container = self.standby_container
        if container.running and not cold:
            # Preheated: the container is alive; schedule-in + process start.
            delay = container.boot_time(preheated=True) + PROCESS_START_TIME
            self.engine.schedule(delay, self._backup_up, record, on_done)
        else:
            # Cold start: create/boot the container, then start processes.
            container.state = type(container.state).CREATED
            container.start(
                on_running=lambda _c: self.engine.schedule(
                    PROCESS_START_TIME, self._backup_up, record, on_done
                )
            )
        return True

    def refresh_standby(self, epoch=None):
        """Replace a dead standby container (controller-driven).

        Prefers re-provisioning on the current standby machine when it
        is healthy (only the container died); otherwise re-homes like
        ``_ensure_healthy_standby``.  Returns True on success, None when
        no healthy machine can host a standby (the pair stays degraded),
        False only when the epoch fence rejected the action.
        """
        if not self._epoch_accepted("refresh_standby", epoch):
            return False
        machine = self._serviceable_standby()
        if machine is None:
            return None
        self._standby_refreshes += 1
        self.standby_machine = machine
        self.standby_container = machine.create_container(
            f"{self.name}-f{self._standby_refreshes}", self.config_entries
        )
        self.standby_container.start()
        self.backup_degraded = False
        return True

    def _backup_up(self, record, on_done):
        record.rebooted_at = self.engine.now
        # Swap roles: the backup becomes the active side.
        old_container = self.active_container
        old_machine = self.active_machine
        self.active_container, self.standby_container = (
            self.standby_container,
            self.active_container,
        )
        self.active_machine, self.standby_machine = (
            self.standby_machine,
            self.active_machine,
        )
        self._build_runtime(self.active_container, self.active_machine, recovered=True)
        self._recover_from_db(record, on_done)
        self._register_monitoring()
        self.engine.schedule(0.5, self._register_relay)
        # Re-provision a standby on the old machine if it is healthy and
        # not fenced (after machine failures it stays empty until a manual
        # reset, per the fencing rule).
        if old_machine.alive and not self.system.fencing.is_fenced(old_machine.name):
            replacement = old_machine.create_container(
                f"{self.name}-{self.activations}s", self.config_entries
            )
            self.standby_container = replacement
            self.backup_degraded = False
            replacement.start()
        else:
            self.standby_container = old_container  # dead placeholder
            self.backup_degraded = True

    # ------------------------------------------------------------------
    # shared recovery tail: download state, repair TCP, resume
    # ------------------------------------------------------------------

    def _recover_from_db(self, record, on_done):
        recovery_client = self.system.kv_client(self.active_container.endpoint)
        self._kv_clients.append(recovery_client)
        recovery = BackupRecovery(self.engine, recovery_client, self.name)
        estimated = max(self.config_entries, 64)
        recovery.load(
            lambda state: self._state_loaded(state, record, on_done),
            estimated_records=estimated,
        )

    def _state_loaded(self, state, record, on_done):
        # Rebuild Loc-RIBs (no message replay).
        for neighbor in self.neighbors:
            self.speaker.add_vrf(neighbor.vrf_name)
        for vrf_name in state.vrf_names():
            if vrf_name not in self.speaker.vrfs:
                self.speaker.add_vrf(vrf_name)
            rebuilt = state.rebuild_loc_rib(
                vrf_name, self.local_as, self.speaker.config.router_id_int
            )
            self.speaker.vrfs[vrf_name].loc_rib = rebuilt
            self.pipeline.resume_delta_log(
                vrf_name, *state.delta_log_state(vrf_name)
            )
        # Sessions resume by adoption below — no fresh connects, so the
        # speaker is marked running without start().  It still listens:
        # if an adopted session later drops (e.g. a real link failure),
        # the passive side must accept the peer's reconnection.
        self.speaker.running = True
        if any(neighbor.mode == "passive" for neighbor in self.neighbors):
            self.speaker._ensure_listening()
        # Adopt each replicated connection.
        adopted = []
        for conn_id, meta in state.sessions.items():
            repair = state.tcp_repair_state(conn_id)
            conn = import_tcp_state(self.stack, repair)
            neighbor = self._neighbor_for(meta)
            if neighbor is None:
                continue
            peer_config = neighbor.to_peer_config()
            session = self.speaker.adopt_recovered_session(
                peer_config,
                conn,
                meta,
                in_pos=state.recovered_in_position(conn_id),
                out_state=state.recovered_out_state(conn_id),
            )
            for message_record in state.unapplied_messages(conn_id):
                self.speaker.apply_recovered_message(session, message_record)
            # restore the replicated partial-message tail (if any): the TCP
            # receive position already includes it, so the decoder must too
            partial_bytes, _upto = state.recovered_partial(conn_id)
            if partial_bytes:
                session.decoder.prime(partial_bytes)
            resume_connection(conn)
            # announce liveness immediately: repeated migrations inside one
            # keepalive interval would otherwise keep resetting the timer
            # and starve the remote's hold timer of traffic
            self.speaker.keepalive_due(session)
            adopted.append(session)
        # Outbound resync (the divergence corner in repro.core.recovery's
        # docstring): a change applied just before the crash whose UPDATE
        # was never generated is in no replay path.  Re-send the recent
        # withdrawals from the durable delta log, re-advertise the table.
        for session in adopted:
            vrf = session.vrf
            # text order: the order the withdrawals go out in, which the
            # chaos corpus verdicts are pinned to
            dead = [
                prefix
                for prefix in sorted(
                    state.recent_withdrawn_prefixes(vrf.name),
                    key=prefix_text)
                if vrf.loc_rib.best(prefix) is None
            ]
            self.speaker.resync_session(session, dead)
        # The repair-resume budget covers socket rebuilds and resyncs.
        self.engine.schedule(
            TCP_REPAIR_RESUME_TIME, self._recovery_finished, record, on_done
        )

    def _recovery_finished(self, record, on_done):
        record.recovered_at = self.engine.now
        if self._migration_span is not None:
            # The span links the two process incarnations: the container
            # that failed and the one now serving the service address.
            self._migration_span.finish(
                to_container=self.active_container.name,
                activations=self.activations,
            )
            self._migration_span = None
        self._suppress_supervision = False
        if self.supervisor is not None:
            self.supervisor._reported = False
        on_done()

    def _neighbor_for(self, meta):
        for neighbor in self.neighbors:
            if (
                neighbor.remote_addr == meta["remote_addr"]
                and neighbor.vrf_name == meta["vrf"]
            ):
                return neighbor
        return None

    # ------------------------------------------------------------------
    # failure-injection levers (driven by repro.failures)
    # ------------------------------------------------------------------

    def inject_application_failure(self):
        """E1: kill the BGP application (and its sockets) in place."""
        app = self.active_container.processes.get("bgp")
        if app is not None:
            app.crash()

    def inject_container_failure(self):
        """E2: kill the whole active container."""
        self.active_container.fail()
        if self.stack is not None:
            self.stack.destroy()

    def inject_container_network_failure(self):
        """E4: the active container's virtual NIC dies; processes live."""
        self.active_container.fail_network()
        if self.service_endpoint is not None:
            self.service_endpoint.fail_network()

    # ------------------------------------------------------------------

    def established_session_count(self):
        if self.speaker is None:
            return 0
        return len(self.speaker.established_sessions())

    def __repr__(self):
        return f"<TensorPair {self.name} active={self.active_container.name}>"


class _BgpApp:
    """Supervision adapter: one BGP application = speaker + its sockets.

    When the container (or the injector) kills the application, the
    speaker's timers stop and the TCP stack vanishes with the process —
    crucially *without* emitting RST/FIN, which the Netfilter guard rule
    would have dropped anyway.
    """

    def __init__(self, speaker, stack):
        self.speaker = speaker
        self.stack = stack

    @property
    def alive(self):
        return self.speaker.running and self.speaker.process.alive

    def crash(self):
        self.speaker.crash()
        self.stack.destroy()

    def stop(self):
        self.crash()


class AppSupervisor:
    """In-container process watchdog (the E1 detector, ~10 ms polls).

    Polls happen on a fixed grid — the instants ``t <- t + interval``
    accumulated from :meth:`start`, float for float what a periodic task
    would fire at — but a poll becomes an engine event only when it could
    see something: the first one after ``start()``, the first grid
    instant after a supervised process reports its own exit
    (:meth:`process_exited`), and every grid instant while a supervised
    process of the active container is dead.  Whatever else a poll reads
    (the pair's suppress flag, the report latch, the container's state,
    which container is active) it reads on the grid during that window,
    so none of it needs a hook; with everything alive the supervisor
    holds no event at all.

    Tie rule: a process that dies *at* an exact grid instant, with no
    poll pending for it, is seen at the next one.
    """

    def __init__(self, pair):
        self.pair = pair
        self.process = Process(pair.engine, f"supervisor:{pair.name}")
        self._reported = False
        self._next = None  # the next grid instant; None until start()
        self._armed = False  # an engine event is pending for _next

    def start(self):
        self._arm(APP_MONITOR_INTERVAL)

    def _arm(self, delay):
        self._next = self.pair.engine.now + delay
        self._armed = True
        self.process.after(delay, self._tick)

    def process_exited(self):
        """A supervised process died: poll at the next grid instant."""
        if self._armed or self._next is None:
            return
        now = self.pair.engine.now
        nxt = self._next
        while nxt <= now:
            nxt += APP_MONITOR_INTERVAL
        # nxt - now is exact (Sterbenz: now >= interval after the first
        # poll, so nxt <= 2 * now) and the event lands on the grid
        delay = nxt - now
        assert now + delay == nxt
        self._arm(delay)

    def _tick(self):
        self._armed = False
        self._poll()
        if self._dead_process(self.pair.active_container) is None:
            self._next = self.pair.engine.now + APP_MONITOR_INTERVAL  # dormant
        else:
            self._arm(APP_MONITOR_INTERVAL)

    @staticmethod
    def _dead_process(container):
        for name in ("bgp", "bfd"):
            if name in container.processes and not container.process_alive(name):
                return name
        return None

    def _poll(self):
        pair = self.pair
        if pair._suppress_supervision or self._reported:
            return
        container = pair.active_container
        if not container.running:
            return  # container-level failure: the Docker monitor's job
        name = self._dead_process(container)
        if name is not None:
            self._reported = True
            # report rides a gRPC hop to the controller
            pair.engine.schedule(
                0.002,
                pair.system.controller.docker_event,
                "process-dead",
                container,
                name,
            )

    def stop(self):
        self.process.kill()
