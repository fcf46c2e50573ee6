"""The failure injector.

Drives the ground-truth failure levers on a
:class:`~repro.core.system.TensorSystem` and records injection times so
benchmarks can compute detection latency (detected_at - injected_at).
"""

#: Which injection kinds can produce a controller record of each
#: ``MigrationRecord.failure_kind``.  Database blips and agent death
#: never produce records and must never be mistaken for the ground truth
#: of one; transient network jitter only produces a (machine) record
#: when it outlives the confirmation timer.
RECORD_KIND_COMPAT = {
    "application": ("application",),
    "container": ("container",),
    "container_network": ("container_network",),
    "machine": ("host_machine", "host_network", "transient_network"),
}


class Injection:
    """One injected failure (ground truth)."""

    def __init__(self, kind, target, injected_at):
        self.kind = kind
        self.target = target
        self.injected_at = injected_at

    def __repr__(self):
        return f"<Injection {self.kind} {self.target} @{self.injected_at:.3f}>"


class FailureInjector:
    """Injects the paper's failure classes into a running system."""

    def __init__(self, system):
        self.system = system
        self.engine = system.engine
        self.injections = []

    def _record(self, kind, target):
        injection = Injection(kind, target, self.engine.now)
        self.injections.append(injection)
        return injection

    def stamp_records(self):
        """Fill ground-truth ``failed_at`` into the controller's records.

        Call after the simulation settles so Table 1 detection latencies
        are measured from the true failure instant.  Matching is by
        failure-kind compatibility (:data:`RECORD_KIND_COMPAT`), and each
        injection is claimed by at most one record: under overlapping
        chaos schedules a container record must not be stamped with the
        time of an unrelated transient-network blip that happened to land
        closer to the detection, and two records from repeated injections
        on the same target each get their own injection rather than both
        getting the latest one (the double-count this used to produce).
        """
        claimed = set()
        for record in sorted(
            self.records_pending_stamp(), key=lambda r: r.detected_at
        ):
            compatible = RECORD_KIND_COMPAT.get(record.failure_kind, ())
            candidates = [
                injection
                for injection in self.injections
                if injection.kind in compatible
                and injection.injected_at <= record.detected_at
            ]
            if not candidates:
                continue
            unclaimed = [c for c in candidates if id(c) not in claimed]
            # Earliest unclaimed compatible injection: the record's ground
            # truth is when the failure it recovered from began.  When
            # every compatible injection is already claimed (a re-detected
            # failure), fall back to the latest one rather than nothing.
            chosen = unclaimed[0] if unclaimed else candidates[-1]
            claimed.add(id(chosen))
            record.failed_at = chosen.injected_at

    def records_pending_stamp(self):
        return [
            record
            for record in self.system.controller.records
            if record.failed_at is None and record.detected_at is not None
        ]

    # -- the four Table 1 scenarios -----------------------------------------

    def application_failure(self, pair):
        """E1 (3% frequency): the BGP process dies."""
        injection = self._record("application", pair.name)
        pair.inject_application_failure()
        return injection

    def container_failure(self, pair):
        """E2 (13%): the container dies."""
        injection = self._record("container", pair.name)
        pair.inject_container_failure()
        return injection

    def host_machine_failure(self, machine):
        """E3 (19%): the host machine dies."""
        injection = self._record("host_machine", machine.name)
        machine.fail()
        return injection

    def host_network_failure(self, machine):
        """E5 (65%): the host machine's NIC dies; machine keeps running."""
        injection = self._record("host_network", machine.name)
        machine.fail_network()
        return injection

    # -- additional scenarios -------------------------------------------------

    def container_network_failure(self, pair):
        """E4: the container's virtual network dies; processes live on."""
        injection = self._record("container_network", pair.name)
        pair.inject_container_network_failure()
        return injection

    def transient_host_network_failure(self, machine, duration):
        """Network jitter: NIC down for ``duration`` then back (§3.3.3:
        must NOT trigger migration when shorter than the 3 s timer)."""
        injection = self._record("transient_network", machine.name)
        machine.fail_network()
        self.engine.schedule(duration, machine.recover_network)
        return injection

    def transient_database_failure(self, duration):
        """Database blip: the KV store is unavailable for ``duration``.

        While it is down, held ACKs stay held (the fail-safe direction)
        and write batches retry; a blip shorter than the retry budget
        (``WRITE_RETRIES`` x the client RPC timeout) commits everything
        once the store returns, so NSR state is never lost.

        The blip is deliberately shorter than the failover monitor's
        confirmation window, so it recovers in place.  The server object
        is captured now: were the recovery scheduled against
        ``system.db`` (a property), a failover landing mid-blip would
        aim it at the *promoted* primary instead of the blipped one.
        """
        injection = self._record("database", "db")
        server = self.system.db
        server.fail()
        self.engine.schedule(duration, server.recover)
        return injection

    def database_failover(self):
        """Permanently kill the KV primary (§4.1 single-point database
        failure).  No scheduled recovery and no test-side promotion: the
        controller's monitor must detect the death, promote the replica
        under the next epoch and repoint every client — ``permanent=True``
        keeps an overlapping blip's recovery from resurrecting it."""
        injection = self._record("database_failover", "db")
        self.system.db_cluster.fail_primary(permanent=True)
        return injection

    def agent_failure(self):
        """Agent death — must not affect normal operation (§3.3.2)."""
        injection = self._record("agent", "agent")
        self.system.agent.fail()
        return injection

    # -- controller-plane scenarios (DESIGN.md §15) ---------------------------

    def backup_container_failure(self, pair):
        """Kill the *standby* container: the pair loses its insurance.

        The controller must notice (backup-degraded) and re-provision a
        standby — before the panel refactor this death was silently
        dropped and the next primary failure migrated onto a corpse.
        """
        injection = self._record("backup_container", pair.name)
        pair.standby_container.fail()
        return injection

    def controller_replica_crash(self, index, reboot_after=None):
        """Crash one controller-panel replica; optionally reboot it."""
        injection = self._record("controller_replica", f"replica{index}")
        panel = self.system.controller
        panel.crash_replica(index)
        if reboot_after is not None:
            self.engine.schedule(reboot_after, panel.reboot_replica, index)
        return injection

    def controller_partition(self, index, machine_name, duration=None):
        """Partition one panel replica from one machine (both the real
        gRPC path and the modeled direct feeds)."""
        injection = self._record(
            "controller_partition", f"replica{index}:{machine_name}"
        )
        panel = self.system.controller
        replica_host = panel.replicas[index].host
        machine_host = self.system.machines[machine_name].host
        self.system.network.partition(replica_host, machine_host)
        panel.set_partitioned(index, machine_name, True)
        if duration is not None:
            self.engine.schedule(
                duration, self._heal_controller_partition, index, machine_name
            )
        return injection

    def _heal_controller_partition(self, index, machine_name):
        panel = self.system.controller
        replica_host = panel.replicas[index].host
        machine_host = self.system.machines[machine_name].host
        self.system.network.heal_partition(replica_host, machine_host)
        panel.set_partitioned(index, machine_name, False)

    def lying_monitor(self, index, mode="accuse_container", duration=None):
        """Byzantine replica: fabricates verdicts against healthy targets
        (and suppresses its honest pipeline) until ``duration`` expires."""
        injection = self._record("lying_monitor", f"replica{index}:{mode}")
        panel = self.system.controller
        panel.set_corruption(index, mode)
        if duration is not None:
            self.engine.schedule(duration, panel.set_corruption, index, None)
        return injection
