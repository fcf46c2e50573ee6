"""The replicated controller panel (DESIGN.md §15).

Pins the quorum/lease/epoch primitives, then the panel end-to-end on a
full system: a lying replica cannot trigger a wrong failover, a crashed
leader's in-flight actions die at the epoch fence, a 3-replica panel
still recovers real machine/database failures, and the three satellite
bugfixes (standby-death detection, stale-pong generations, recovery
deadline) hold under the panel.
"""

import pytest

from conftest import build_tensor_fixture
from repro.control.db_monitor import DbFailoverMonitor
from repro.control.detector import FailureReport
from repro.control.quorum import EpochGate, LeaderLease, QuorumTracker
from repro.failures.injector import FailureInjector
from repro.failures.oracles import OracleSuite
from repro.kvstore import ReplicatedKvCluster
from repro.sim import Network
from repro.sim.calibration import RECOVERY_DEADLINE


# ----------------------------------------------------------------------
# quorum primitives
# ----------------------------------------------------------------------

def test_quorum_fires_exactly_once_at_majority():
    q = QuorumTracker(3)
    key = ("health", "container", "pair0-a")
    assert q.quorum == 2
    assert q.submit(key, 0) is False  # 1/3: below quorum
    assert q.submit(key, 0) is False  # same replica again: no double count
    assert q.submit(key, 1) is True   # 2/3: fires, once
    assert q.submit(key, 2) is False  # late vote: already acted
    assert q.acted(key)


def test_quorum_reset_target_allows_recurrence():
    q = QuorumTracker(3)
    key = ("health", "container", "pair0-a")
    q.submit(key, 0)
    q.submit(key, 1)
    q.reset_target("pair0-a")
    assert not q.acted(key)
    assert q.submit(key, 0) is False  # fresh incident, fresh count
    assert q.submit(key, 2) is True


class _FakeReplica:
    def __init__(self):
        self.alive = True


def test_leader_lease_sticky_until_death():
    replicas = [_FakeReplica() for _ in range(3)]
    lease = LeaderLease(replicas)
    assert lease.ensure() is False  # leader alive: nothing changes
    assert (lease.leader_index, lease.epoch) == (0, 1)
    replicas[0].alive = False
    assert lease.ensure() is True
    assert (lease.leader_index, lease.epoch) == (1, 2)
    replicas[0].alive = True  # reboot does NOT reclaim leadership
    assert lease.ensure() is False
    assert lease.leader_index == 1
    replicas[1].alive = False
    assert lease.ensure() is True
    assert (lease.leader_index, lease.epoch) == (0, 3)


def test_leader_lease_all_dead_keeps_stale_leader():
    replicas = [_FakeReplica() for _ in range(3)]
    lease = LeaderLease(replicas)
    for r in replicas:
        r.alive = False
    assert lease.ensure() is False
    assert (lease.leader_index, lease.epoch) == (0, 1)


def test_epoch_gate_rejects_below_floor():
    gate = EpochGate()
    assert gate.accepts(None)  # legacy unstamped actions always pass
    assert gate.accepts(1)
    gate.announce(3)
    gate.announce(2)  # monotonic: cannot lower the floor
    assert gate.floor == 3
    assert not gate.accepts(2)
    assert gate.accepts(3)
    gate.reject(("fence", "gw-1"), 2)
    assert gate.rejections == [(("fence", "gw-1"), 2, 3)]


# ----------------------------------------------------------------------
# panel end-to-end: byzantine, crash, partition
# ----------------------------------------------------------------------

def test_lying_replica_cannot_trigger_failover():
    system, pair, remotes = build_tensor_fixture(
        seed=210, routes=50, controller_replicas=3
    )
    panel = system.controller
    before_active = pair.active_container.name
    panel.set_corruption(1, "accuse_container")
    system.engine.advance(8.0)
    panel.set_corruption(1, "accuse_machine")
    system.engine.advance(8.0)
    # the liar voted plenty...
    fabricated = [v for v in panel.verdicts if (v.detail or {}).get("fabricated")]
    assert len(fabricated) > 5
    # ...but no fabricated incident ever reached quorum: no accepted
    # failure-report, no migration, no fence
    assert not [e for e in panel.events if e[1] == "failure-report"]
    assert pair.active_container.name == before_active
    assert not system.fencing.fenced_machines()
    assert remotes[0][1].established


def test_crashed_leader_triggers_election_and_epoch_fence():
    system, pair, remotes = build_tensor_fixture(
        seed=211, routes=50, controller_replicas=3
    )
    panel = system.controller
    gate = system.controller_epoch_gate
    assert (panel.lease.leader_index, panel.lease.epoch) == (0, 1)
    panel.crash_replica(0)
    assert (panel.lease.leader_index, panel.lease.epoch) == (1, 2)
    assert gate.floor == 2
    assert [e for e in panel.events if e[1] == "leader-elected"]

    # the deposed leader's in-flight decisions die at every receiver
    assert pair.kill_primary_container(epoch=1) is False
    assert system.fencing.fence("gw-1", epoch=1) is False
    assert not system.fencing.is_fenced("gw-1")
    assert system.db_cluster.promote_replica(controller_epoch=1) is None
    assert system.db_cluster.failovers == 0
    assert len(gate.rejections) == 3

    # current-epoch actions still work: a real container failure is
    # confirmed by the two surviving replicas (2/3 quorum) and recovered
    FailureInjector(system).inject("container", pair, {})
    system.engine.advance(20.0)
    assert pair.active_container.name == "pair0-b"
    assert remotes[0][1].established
    key = ("health", "container", "pair0-a")
    # the crashed replica never voted on it
    assert panel.quorum.acted(key) and 0 not in panel.quorum._votes[key]


def test_partitioned_replica_alone_cannot_fence_a_healthy_machine():
    system, pair, remotes = build_tensor_fixture(
        seed=212, routes=50, controller_replicas=3
    )
    panel = system.controller
    injector = FailureInjector(system)
    injector.inject("controller_partition", pair,
                    {"target": 2, "machine": "gw-1", "duration": 12.0})
    system.engine.advance(8.0)
    # replica 2 lost its heartbeats to gw-1 and may well have confirmed
    # "machine unreachable" — but it is a minority of one
    assert not [e for e in panel.events if e[1] == "machine-migration"]
    assert not system.fencing.fenced_machines()
    system.engine.advance(20.0)  # heal + settle: still nothing
    assert not system.fencing.fenced_machines()
    assert remotes[0][1].established


def test_three_replica_panel_recovers_real_machine_failure():
    system, pair, remotes = build_tensor_fixture(
        seed=213, routes=50, controller_replicas=3
    )
    panel = system.controller
    injector = FailureInjector(system)
    injector.inject("host_machine", pair, {})
    system.engine.advance(40.0)
    injector.stamp_records()
    assert system.fencing.is_fenced("gw-1")
    assert pair.active_machine.name == "gw-2"
    records = panel.completed_records()
    assert records and records[0].failure_kind == "machine"
    assert remotes[0][1].established
    # the verdict was genuinely independent: at least a quorum of
    # distinct replicas confirmed it
    voters = {v.replica_id for v in panel.verdicts
              if v.kind == "machine_unreachable" and v.target_name == "gw-1"}
    assert len(voters) >= panel.quorum.quorum


def test_db_failover_needs_quorum_and_promotes_once():
    system, pair, remotes = build_tensor_fixture(
        seed=214, routes=50, controller_replicas=3
    )
    panel = system.controller
    injector = FailureInjector(system)
    injector.inject("database_failover", pair, {})
    system.engine.advance(15.0)
    assert system.db_cluster.failovers == 1  # exactly one promotion
    events = [e for e in panel.events if e[1] == "database-failover"]
    assert len(events) == 1
    voters = {v.replica_id for v in panel.verdicts
              if v.kind == "db_primary_dead"}
    assert len(voters) >= panel.quorum.quorum
    # every replica's monitor chases the new primary
    for replica in panel.replicas:
        assert replica.db_monitor.client.server_addr == system.db_cluster.primary_addr


# ----------------------------------------------------------------------
# satellite 1: standby-container death is detected and repaired
# ----------------------------------------------------------------------

def test_backup_container_failure_detected_and_standby_refreshed():
    system, pair, remotes = build_tensor_fixture(seed=215, routes=50)
    controller = system.controller
    injector = FailureInjector(system)
    injector.inject("backup_container", pair, {"target": "standby"})
    system.engine.advance(15.0)
    labels = [e[1] for e in controller.events]
    assert "backup-degraded" in labels
    assert "backup-refreshed" in labels
    assert pair.backup_degraded is False
    assert pair.backup_container_name == "pair0-f1"
    assert pair.standby_container.running

    # the regression this guards: a later primary failure must migrate
    # onto the *refreshed* standby, not the corpse
    injector.inject("container", pair, {})
    system.engine.advance(20.0)
    assert pair.active_container.name == "pair0-f1"
    assert remotes[0][1].established


# ----------------------------------------------------------------------
# satellite 2: stale pongs and stopped monitors
# ----------------------------------------------------------------------

@pytest.fixture
def monitor(engine):
    network = Network(engine)
    network.enable_fabric()
    controller_host = network.add_host("ctl", "9.9.9.1")
    primary_host = network.add_host("p", "9.9.9.2")
    replica_host = network.add_host("r", "9.9.9.3")
    cluster = ReplicatedKvCluster(engine, primary_host, replica_host)
    return DbFailoverMonitor(engine, controller_host, cluster,
                             propose=lambda _monitor: None)


def test_stale_generation_pong_does_not_clear_miss_window(monitor):
    stale_generation = monitor.client.endpoint_generation
    monitor.client.repoint(monitor.cluster.primary_addr,
                           epoch=monitor.cluster.epoch)
    monitor._first_miss = 3.0
    # a straggler reply from before the repoint must not mask the outage
    monitor._on_pong(stale_generation)
    assert monitor._first_miss == 3.0
    monitor._on_pong(monitor.client.endpoint_generation)
    assert monitor._first_miss is None


def test_stale_generation_miss_does_not_count(monitor):
    stale_generation = monitor.client.endpoint_generation
    monitor.client.repoint(monitor.cluster.primary_addr,
                           epoch=monitor.cluster.epoch)
    monitor._on_miss("ping", "timeout", stale_generation)
    assert monitor._first_miss is None


def test_stopped_monitor_ignores_late_callbacks(monitor):
    generation = monitor.client.endpoint_generation
    monitor._first_miss = 3.0
    monitor.stop()
    monitor._on_pong(generation)
    assert monitor._first_miss == 3.0  # untouched: the monitor is dead
    monitor._on_miss("ping", "timeout", generation)
    assert monitor.failovers == 0


# ----------------------------------------------------------------------
# satellite 3: the recovery deadline
# ----------------------------------------------------------------------

def test_stuck_recovery_abandoned_then_redetected():
    system, pair, remotes = build_tensor_fixture(seed=216, routes=50)
    controller = system.controller
    injector = FailureInjector(system)

    # wedge the first migration: activate_backup claims success but its
    # on_done callback never fires (the promotee silently dies mid-boot)
    real_activate = pair.activate_backup

    def wedged(record, on_done, cold=False, epoch=None):
        pair.activate_backup = real_activate  # only the first attempt hangs
        return True

    pair.activate_backup = wedged
    injector.inject("container", pair, {})
    system.engine.advance(RECOVERY_DEADLINE + 10.0)

    assert controller.abandoned_records
    abandoned = controller.abandoned_records[0]
    assert abandoned.abandoned is True
    assert "recovery abandoned: deadline expired" in abandoned.notes
    labels = [e[1] for e in controller.events]
    assert "recovery-abandoned" in labels
    # the leak this guards: _recovering must not pin the pair forever
    assert pair.name not in controller._recovering
    assert pair.name not in controller._active_recovery

    # detection was re-armed: the still-dead primary is re-reported and
    # the second, healthy migration completes
    system.engine.advance(30.0)
    assert pair.active_container.name == "pair0-b"
    done = [e for e in controller.events if e[1] == "recovery-done"]
    assert done
    assert remotes[0][1].established


# ----------------------------------------------------------------------
# the wrong_failover oracle itself
# ----------------------------------------------------------------------

def test_wrong_failover_trips_on_unjustified_verdict():
    system, pair, remotes = build_tensor_fixture(seed=217, routes=0)
    suite = OracleSuite(system, pair, remotes, FailureInjector(system),
                        stop_on_violation=False)
    suite.arm()
    now = system.engine.now
    system.controller.events.append(
        (now, "failure-report",
         FailureReport("container", "pair0-a", now, now))
    )
    suite._check_wrong_failover(now)
    assert [v for v in suite.violations if v.oracle == "wrong_failover"]


def test_wrong_failover_accepts_justified_verdict():
    system, pair, remotes = build_tensor_fixture(seed=218, routes=0)
    injector = FailureInjector(system)
    suite = OracleSuite(system, pair, remotes, injector,
                        stop_on_violation=False)
    suite.arm()
    injector.inject("container", pair, {})
    now = system.engine.now
    system.controller.events.append(
        (now, "failure-report",
         FailureReport("container", "pair0-a", now, now))
    )
    system.controller.events.append(
        (now, "failure-report",
         FailureReport("machine_unreachable", "other-pair-c", now, now))
    )
    suite._check_wrong_failover(now)
    # the justified container verdict passes; the machine verdict on a
    # never-injected target trips
    wrong = [v for v in suite.violations if v.oracle == "wrong_failover"]
    assert len(wrong) == 1
    assert "other-pair-c" in wrong[0].detail


def test_wrong_failover_promotion_needs_a_database_failover():
    """Only a permanent primary kill justifies a database promotion: a
    blip recovers in place, so a promotion with only a blip behind it is
    a wrong failover."""
    system, pair, remotes = build_tensor_fixture(seed=219, routes=0)
    injector = FailureInjector(system)
    suite = OracleSuite(system, pair, remotes, injector,
                        stop_on_violation=False)
    suite.arm()
    events = system.controller.events

    def promote():
        events.append((system.engine.now, "database-failover",
                       ("10.250.0.2", 1)))
        suite._check_wrong_failover(system.engine.now)
        return [v for v in suite.violations if v.oracle == "wrong_failover"]

    injector.inject("database_blip", pair, {"duration": 0.5})
    (wrong,) = promote()
    assert "database promotion" in wrong.detail
    injector.inject("database_failover", pair, {})
    assert promote() == [wrong]
