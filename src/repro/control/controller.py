"""The controller's recovery policy (§3.2.2, §3.3.3).

The controller is logically centralized: it owns the gRPC channels to
every machine, container and the agent server, receives the aggregated
failure signals through :class:`~repro.control.detector.FailureDetector`,
decides the recovery action, and drives it on the registered container
*pairs* (:class:`~repro.core.system.TensorPair`):

- ``name``
- ``primary_machine_name`` / ``backup_machine_name``
- ``primary_container_name`` / ``backup_container_name``
- ``restart_application(record, on_done, epoch)``   (E1: reboot in place)
- ``activate_backup(record, on_done, cold, epoch)`` (E2/E4/E3/E5: NSR migration)
- ``refresh_standby(epoch)``                        (replace a dead backup)

This module is the *acting* half — classify → decide → drive → bound —
as :class:`RecoveryActions`.  The *sensing* half, quorum-gated report
intake and the leadership epoch every action is stamped with live in
:class:`~repro.control.panel.ControllerPanel` (DESIGN.md §15), the only
controller: a deployment without replication is a panel of one.
"""

from repro.control.migration import MigrationRecord
from repro.sim.calibration import (
    CONFIG_LOAD_TIME_PER_ENTRY,
    CONTROLLER_DECISION_TIME,
    CONTROLLER_DECISION_TIME_MACHINE,
    HOST_MIGRATION_STAGGER,
    RECOVERY_DEADLINE,
)


class RecoveryActions:
    """The recovery policy of :class:`~repro.control.panel.ControllerPanel`.

    The panel provides the state (``engine``, ``process``, ``fencing``,
    ``machines``, ``pairs``, ``records``, ``events``, ``_recovering``,
    ``_active_recovery``, ``abandoned_records``) and the replication
    side of every decision: ``_action_epoch()`` (the leadership epoch
    stamped on an action), ``_action_still_valid(epoch)`` (the recheck
    at execution time), ``_rearm_target(name)`` / ``_reset_target(name)``
    (detector latches and quorum votes) and ``_pair_recovered(pair)``.
    """

    # ------------------------------------------------------------------
    # failure handling (§3.3.3)
    # ------------------------------------------------------------------

    def _handle_container_level_failure(self, report):
        pair, role = self._pair_of_container(report.target_name)
        if pair is None:
            return
        if role == "standby":
            self._handle_backup_failure(pair, report)
            return
        if pair.name in self._recovering:
            return
        self._recovering.add(pair.name)
        record = MigrationRecord(report.kind, report.target_name)
        record.detected_at = report.confirmed_at
        self.records.append(record)
        self._active_recovery[pair.name] = record
        epoch = self._action_epoch()
        self.process.after(
            CONTROLLER_DECISION_TIME, self._initiate_container_recovery,
            pair, record, report, epoch,
        )
        self.process.after(
            self._recovery_deadline_for(pair),
            self._check_recovery_deadline, pair, record,
        )

    def _initiate_container_recovery(self, pair, record, report, epoch):
        if not self._action_still_valid(epoch):
            self._action_rejected(pair, record, report.kind, "leader-superseded")
            return
        record.initiated_at = self.engine.now
        done = lambda: self._recovery_done(pair, record)
        if report.kind == "application":
            record.note("in-place application restart")
            ok = pair.restart_application(record, done, epoch=epoch)
            if ok is False:
                self._action_rejected(pair, record, report.kind, "stale-epoch")
        else:
            if report.kind == "container_network":
                # "the controller will kill the primary container through
                #  TKE while starting the BGP NSR migration"
                record.note("killing primary container via TKE")
                ok = pair.kill_primary_container(epoch=epoch)
                if ok is False:
                    self._action_rejected(pair, record, report.kind,
                                          "stale-epoch")
                    return
            record.note("NSR migration to backup container")
            ok = pair.activate_backup(record, done, cold=False, epoch=epoch)
            if ok is False:
                self._action_rejected(pair, record, report.kind, "stale-epoch")

    def _handle_backup_failure(self, pair, report):
        """A *standby* container failed: the pair lost its insurance.

        Before this path existed the report was silently dropped
        (``_pair_of_container`` only matched the primary) and a later
        primary failure migrated onto a corpse.
        """
        now = self.engine.now
        if pair.name in self._recovering:
            # the in-flight migration's target just died; the recovery
            # deadline will abandon it and re-arm detection
            self.events.append((now, "backup-failed-during-recovery",
                                (pair.name, report.target_name)))
            return
        if report.kind == "container_network":
            # The E2-vs-E4 classifier saw the standby still running —
            # only its probes failed (typically the tail of a healed
            # transient blip).  Visibility only; don't churn the standby.
            self.events.append((now, "backup-unreachable",
                                (pair.name, report.target_name)))
            return
        if getattr(pair, "backup_degraded", False):
            return
        pair.backup_degraded = True
        self.events.append((now, "backup-degraded",
                            (pair.name, report.target_name)))
        self.process.after(
            CONTROLLER_DECISION_TIME, self._refresh_standby,
            pair, report.target_name, self._action_epoch(),
        )

    def _refresh_standby(self, pair, dead_container_name, epoch):
        if not self._action_still_valid(epoch):
            self.events.append(
                (self.engine.now, "action-rejected",
                 (pair.name, "refresh_standby", "leader-superseded"))
            )
            return
        if pair.name in self._recovering:
            return  # a primary failure raced in; the migration owns the pair
        refresh = getattr(pair, "refresh_standby", None)
        if refresh is None:
            return
        ok = refresh(epoch=epoch)
        if ok is False:
            self.events.append(
                (self.engine.now, "action-rejected",
                 (pair.name, "refresh_standby", "stale-epoch"))
            )
            return
        if ok:
            self.events.append(
                (self.engine.now, "backup-refreshed",
                 (pair.name, pair.backup_container_name))
            )
            self._reset_target(dead_container_name)

    def _handle_machine_failure(self, report):
        machine_name = report.target_name
        epoch = self._action_epoch()
        # Fencing first: the machine must never answer for service
        # addresses again until manually reset (split-brain guard).
        ok = self.fencing.fence(machine_name, epoch=epoch)
        if ok is False:
            self.events.append(
                (self.engine.now, "action-rejected",
                 (machine_name, "fence", "stale-epoch"))
            )
            return
        affected = [
            pair
            for pair in self.pairs.values()
            if pair.primary_machine_name == machine_name
            and pair.name not in self._recovering
        ]
        self.events.append(
            (self.engine.now, "machine-migration", (machine_name, len(affected)))
        )
        for index, pair in enumerate(affected):
            self._recovering.add(pair.name)
            record = MigrationRecord("machine", pair.primary_container_name)
            record.detected_at = report.confirmed_at
            self.records.append(record)
            self._active_recovery[pair.name] = record
            delay = CONTROLLER_DECISION_TIME_MACHINE + index * HOST_MIGRATION_STAGGER
            self.process.after(
                delay, self._initiate_machine_recovery, pair, record, epoch
            )
            self.process.after(
                delay + self._recovery_deadline_for(pair),
                self._check_recovery_deadline, pair, record,
            )

    def _initiate_machine_recovery(self, pair, record, epoch):
        if not self._action_still_valid(epoch):
            self._action_rejected(pair, record, "machine", "leader-superseded")
            return
        record.initiated_at = self.engine.now
        record.note("mass NSR migration after machine failure")
        ok = pair.activate_backup(
            record, lambda: self._recovery_done(pair, record),
            cold=True, epoch=epoch,
        )
        if ok is False:
            self._action_rejected(pair, record, "machine", "stale-epoch")

    def _recovery_done(self, pair, record):
        if getattr(record, "abandoned", False):
            # the deadline already gave up on this migration; the pair's
            # state was re-armed, so only note the straggler completion
            record.note("late completion after abandonment")
            self.events.append(
                (self.engine.now, "recovery-late-completion", pair.name)
            )
            return
        if record.recovered_at is None:
            record.recovered_at = self.engine.now
        self._recovering.discard(pair.name)
        self._active_recovery.pop(pair.name, None)
        self.events.append((self.engine.now, "recovery-done", pair.name))
        self._pair_recovered(pair)

    # ------------------------------------------------------------------
    # recovery deadline: bound every migration, never leak ``_recovering``
    # ------------------------------------------------------------------

    def _recovery_deadline_for(self, pair):
        """Deadline budget, scaled by the pair's config size.

        ``RECOVERY_DEADLINE`` covers detection → decision → boot → TCP
        repair with generous slack; the per-entry term covers config
        load on full-table pairs, where a legitimate cold boot takes
        minutes — those must not be falsely abandoned.
        """
        entries = getattr(pair, "config_entries", 0) or 0
        return RECOVERY_DEADLINE + CONFIG_LOAD_TIME_PER_ENTRY * entries

    def _check_recovery_deadline(self, pair, record):
        if record.recovered_at is not None:
            return
        if self._active_recovery.get(pair.name) is not record:
            return  # closed out or superseded meanwhile
        record.abandoned = True
        record.note("recovery abandoned: deadline expired")
        self.abandoned_records.append(record)
        self._recovering.discard(pair.name)
        self._active_recovery.pop(pair.name, None)
        self.events.append(
            (self.engine.now, "recovery-abandoned",
             (pair.name, record.failure_kind))
        )
        self._rearm_pair_detection(pair)
        self._pair_recovered(pair)

    def _rearm_pair_detection(self, pair):
        """Clear every report latch so a stuck pair can be re-detected.

        The feeds are edge-triggered: without re-arming, a pair whose
        migration died mid-flight (promotee killed) is invisible forever
        — its failure was already "reported" at every layer.
        """
        for machine_name in (pair.primary_machine_name,
                             pair.backup_machine_name):
            machine = self.machines.get(machine_name)
            if machine is not None and getattr(machine, "monitor", None) is not None:
                machine.monitor.clear_reported()
            self._rearm_target(machine_name)
        supervisor = getattr(pair, "supervisor", None)
        if supervisor is not None:
            supervisor._reported = False
        self._rearm_target(pair.primary_container_name)
        backup_name = getattr(pair, "backup_container_name", None)
        if backup_name is not None:
            self._rearm_target(backup_name)

    def _action_rejected(self, pair, record, kind, reason):
        """An epoch-fenced receiver (or a validity recheck) refused us."""
        record.abandoned = True
        record.note(f"action rejected: {reason}")
        self._recovering.discard(pair.name)
        if self._active_recovery.get(pair.name) is record:
            self._active_recovery.pop(pair.name, None)
        self.events.append(
            (self.engine.now, "action-rejected", (pair.name, kind, reason))
        )
        self._rearm_pair_detection(pair)
        self._pair_recovered(pair)

    def _pair_of_container(self, container_name):
        """Map a container to ``(pair, role)``; role is active|standby."""
        for pair in self.pairs.values():
            if pair.primary_container_name == container_name:
                return pair, "active"
            if getattr(pair, "backup_container_name", None) == container_name:
                return pair, "standby"
        return None, None

    # ------------------------------------------------------------------

    def manual_reset_machine(self, machine_name):
        """Operator unfences a repaired machine (§3.3.3).

        The reset is a reimage: every container that was running when the
        machine was fenced is stopped first.  Without this, a zombie BGP
        process from before the failure would come back online with the
        machine and fight the migrated active — the exact split-brain the
        fencing rule exists to prevent.
        """
        machine = self.machines.get(machine_name)
        if machine is not None:
            for container in machine.containers.values():
                if container.running:
                    container.stop()
            if machine.monitor is not None:
                machine.monitor.clear_reported()
        self.fencing.manual_reset(machine_name)
        self._reset_target(machine_name)

    def completed_records(self):
        return [r for r in self.records if r.complete]
