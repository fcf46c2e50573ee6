"""Failure localization: signal aggregation, confirmation timers, fencing."""

import pytest

from repro.control.detector import FailureDetector
from repro.control.fencing import FencingRegistry
from repro.control.migration import MigrationRecord
from repro.sim import Engine


@pytest.fixture
def detector(engine):
    reports = []
    det = FailureDetector(engine, on_failure=reports.append)
    return det, reports, engine


def test_process_dead_reports_application_immediately(detector):
    det, reports, engine = detector
    engine.advance(1.0)
    det.note_process_dead("c1", "bgp", "m1")
    assert len(reports) == 1
    assert reports[0].kind == "application"
    assert reports[0].confirmed_at == 1.0


def test_container_dead_reports_container(detector):
    det, reports, _engine = detector
    det.note_container_dead("c1")
    assert reports[0].kind == "container"
    det.note_container_dead("c1")  # dedup
    assert len(reports) == 1


def test_grpc_plus_ipsla_classifies_container_vs_network(detector):
    det, reports, engine = detector
    # machine says the container is still running -> network failure (E4)
    det.note_machine_status("m1", {"containers": {"c1": {"running": True}}})
    det.note_container_grpc("c1", False, "m1")
    assert reports == []  # one signal is not enough
    det.note_container_ipsla("c1", False, "m1")
    assert len(reports) == 1
    assert reports[0].kind == "container_network"


def test_container_dead_when_machine_says_not_running(detector):
    det, reports, engine = detector
    det.note_machine_status("m1", {"containers": {"c1": {"running": False}}})
    det.note_container_grpc("c1", False, "m1")
    det.note_container_ipsla("c1", False, "m1")
    assert reports[0].kind == "container"


def test_machine_needs_all_three_signals(detector):
    det, reports, engine = detector
    det.note_machine_grpc("m1", False)
    det.note_machine_agent_ipsla("m1", False)
    engine.advance(10.0)
    assert reports == []  # peer IP SLA still fine
    det.note_machine_peer_ipsla("m1", False)
    engine.advance(10.0)
    assert len(reports) == 1
    assert reports[0].kind == "machine_unreachable"


def test_machine_confirmation_timer_waits_3s(detector):
    det, reports, engine = detector
    engine.advance(5.0)
    det.note_machine_grpc("m1", False)
    det.note_machine_agent_ipsla("m1", False)
    det.note_machine_peer_ipsla("m1", False)
    engine.advance(2.9)
    assert reports == []
    engine.advance(0.2)
    assert len(reports) == 1
    assert reports[0].confirmed_at == pytest.approx(8.0)
    assert reports[0].detected_at == pytest.approx(5.0)


def test_transient_recovery_disarms_timer(detector):
    det, reports, engine = detector
    det.note_machine_grpc("m1", False)
    det.note_machine_agent_ipsla("m1", False)
    det.note_machine_peer_ipsla("m1", False)
    engine.advance(1.5)
    det.note_machine_grpc("m1", True)  # jitter recovered
    engine.advance(10.0)
    assert reports == []


def test_machine_failure_suppresses_container_reports(detector):
    det, reports, engine = detector
    det.note_machine_grpc("m1", False)
    det.note_container_grpc("c1", False, "m1")
    det.note_container_ipsla("c1", False, "m1")
    assert reports == []  # attributed to the machine, not the container


def test_transient_machine_blip_releases_deferred_container_report(detector):
    """A container network failure overlapped by a transient host blip:
    the container probes fail while machine signals are down (deferred to
    the machine path), then the blip heals.  The machine path concludes
    false positive — and must hand the still-failing container back for
    classification, or the E4 is lost forever (the probes report edges,
    not levels)."""
    det, reports, engine = detector
    det.note_machine_status("m1", {"containers": {"c1": {"running": True}}})
    det.note_machine_grpc("m1", False)  # the blip starts
    det.note_container_grpc("c1", False, "m1")
    det.note_container_ipsla("c1", False, "m1")
    engine.advance(1.0)
    assert reports == []  # deferred: could still be a machine failure
    det.note_machine_grpc("m1", True)  # blip heals; container stays dark
    assert len(reports) == 1
    assert reports[0].kind == "container_network"
    assert reports[0].target_name == "c1"


def test_machine_recovery_with_healthy_containers_reports_nothing(detector):
    det, reports, engine = detector
    det.note_machine_grpc("m1", False)
    det.note_container_grpc("c1", False, "m1")
    det.note_container_grpc("c1", True, "m1")  # container came back too
    det.note_machine_grpc("m1", True)
    assert reports == []


def test_reset_target_allows_refire(detector):
    det, reports, engine = detector
    for sig in ("grpc", "agent", "peer"):
        getattr(det, f"note_machine_{'grpc' if sig == 'grpc' else sig + '_ipsla'}")("m1", False)
    engine.advance(5.0)
    assert len(reports) == 1
    det.reset_target("m1")
    det.note_machine_grpc("m1", False)
    det.note_machine_agent_ipsla("m1", False)
    det.note_machine_peer_ipsla("m1", False)
    engine.advance(5.0)
    assert len(reports) == 2


# -- fencing ------------------------------------------------------------------


def test_fencing_lifecycle(engine):
    fencing = FencingRegistry(engine)
    fencing.fence("m1")
    assert fencing.is_fenced("m1")
    fencing.fence("m1")  # idempotent
    assert len(fencing) == 1
    fencing.manual_reset("m1")
    assert not fencing.is_fenced("m1")
    assert [action for _t, action, _m in fencing.history] == ["fence", "reset"]


# -- migration record ----------------------------------------------------------


def test_migration_record_phases():
    record = MigrationRecord("container", "c1")
    record.failed_at = 10.0
    record.detected_at = 10.31
    record.initiated_at = 10.41
    record.rebooted_at = 11.60
    record.recovered_at = 12.61
    row = record.as_row()
    assert row["detection"] == pytest.approx(0.31)
    assert row["initiate"] == pytest.approx(0.10)
    assert row["migration"] == pytest.approx(1.19)
    assert row["recovery"] == pytest.approx(1.01)
    assert row["total"] == pytest.approx(2.61)
    assert record.complete


def test_migration_record_incomplete_phases_none():
    record = MigrationRecord("container", "c1")
    assert record.detection_time is None
    assert record.total_time is None
    assert not record.complete
