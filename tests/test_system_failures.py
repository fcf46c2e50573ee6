"""End-to-end NSR: the Table 1 scenarios on the full system.

Each test builds a complete TENSOR deployment (two gateway machines, a
pair, a remote AS, the controller/agent/database), injects one failure
class, and asserts the paper's headline properties: recovery completes in
seconds, the remote session never drops, and link downtime is zero.
"""

import pytest

from repro.failures import FailureInjector
from repro.workloads.topology import DowntimeObserver

from conftest import build_tensor_fixture


def _observe(system, remotes, expect_routes):
    remote, session = remotes[0]
    observer = DowntimeObserver(
        system.engine, session, remote.speaker.vrfs[session.config.vrf_name],
        expect_routes=expect_routes,
    )
    observer.start()
    return observer


def _settle_and_check(system, injector, observer, remotes, max_total):
    system.engine.advance(40.0)
    injector.stamp_records()
    records = system.controller.completed_records()
    assert records, system.controller.records
    record = records[0]
    assert record.total_time is not None
    assert record.total_time < max_total
    observer.stop()
    _remote, session = remotes[0]
    assert session.established
    assert observer.total_downtime == 0.0, observer.transitions
    return record


def test_application_failure_recovery(request):
    system, pair, remotes = build_tensor_fixture(seed=101, routes=300)
    observer = _observe(system, remotes, 300)
    injector = FailureInjector(system)
    injector.inject("application", pair, {})
    record = _settle_and_check(system, injector, observer, remotes, max_total=5.0)
    assert record.failure_kind == "application"
    assert record.detection_time < 0.1  # supervisor polls every 10 ms
    # the same container still hosts the active side (in-place restart)
    assert pair.active_container.name == "pair0-a"


def test_container_failure_migrates_to_backup():
    system, pair, remotes = build_tensor_fixture(seed=102, routes=300)
    observer = _observe(system, remotes, 300)
    injector = FailureInjector(system)
    injector.inject("container", pair, {})
    record = _settle_and_check(system, injector, observer, remotes, max_total=6.0)
    assert record.failure_kind == "container"
    assert pair.active_container.name == "pair0-b"  # swapped to the backup
    assert pair.active_machine.name == "gw-2"


def test_host_machine_failure_fences_and_migrates():
    system, pair, remotes = build_tensor_fixture(seed=103, routes=300)
    observer = _observe(system, remotes, 300)
    injector = FailureInjector(system)
    injector.inject("host_machine", pair, {})
    record = _settle_and_check(system, injector, observer, remotes, max_total=15.0)
    assert record.failure_kind == "machine"
    assert system.fencing.is_fenced("gw-1")
    assert record.detection_time > 3.0  # the 3 s confirmation timer
    assert pair.active_machine.name == "gw-2"


def test_host_network_failure_behaves_like_machine_failure():
    system, pair, remotes = build_tensor_fixture(seed=104, routes=300)
    observer = _observe(system, remotes, 300)
    injector = FailureInjector(system)
    injector.inject("host_network", pair, {})
    record = _settle_and_check(system, injector, observer, remotes, max_total=15.0)
    assert system.fencing.is_fenced("gw-1")
    # the machine itself is still alive — only its NIC died
    assert system.machines["gw-1"].alive


def test_container_network_failure_kills_and_migrates():
    system, pair, remotes = build_tensor_fixture(seed=105, routes=300)
    observer = _observe(system, remotes, 300)
    injector = FailureInjector(system)
    injector.inject("container_network", pair, {})
    record = _settle_and_check(system, injector, observer, remotes, max_total=6.0)
    assert record.failure_kind == "container_network"
    assert pair.active_machine.name == "gw-2"


def test_transient_jitter_does_not_migrate():
    system, pair, remotes = build_tensor_fixture(seed=106, routes=100)
    observer = _observe(system, remotes, 100)
    injector = FailureInjector(system)
    injector.inject("transient_network", pair, {"duration": 1.5})
    system.engine.advance(20.0)
    assert not system.controller.completed_records()
    assert not system.fencing.is_fenced("gw-1")
    observer.stop()
    assert observer.total_downtime == 0.0


def test_agent_failure_harmless_in_normal_times():
    system, pair, remotes = build_tensor_fixture(seed=107, routes=100)
    observer = _observe(system, remotes, 100)
    injector = FailureInjector(system)
    injector.inject("agent", pair, {})
    system.engine.advance(20.0)
    observer.stop()
    _remote, session = remotes[0]
    assert session.established
    assert observer.total_downtime == 0.0


def test_fenced_machine_not_reused_until_manual_reset():
    system, pair, remotes = build_tensor_fixture(seed=108, routes=100)
    injector = FailureInjector(system)
    injector.inject("host_machine", pair, {})
    system.engine.advance(40.0)
    assert pair.active_machine.name == "gw-2"
    # machine comes back online on its own — must stay fenced
    system.machines["gw-1"].recover()
    system.engine.advance(10.0)
    assert system.fencing.is_fenced("gw-1")
    # no standby was provisioned on the fenced machine
    assert pair.standby_container.machine.name == "gw-1"
    assert not pair.standby_container.running
    system.controller.manual_reset_machine("gw-1")
    assert not system.fencing.is_fenced("gw-1")


def test_split_brain_never_two_active_senders():
    """Throughout a migration triggered by a network failure (the primary
    is alive but unreachable), at most one endpoint answers for the
    service address — the underlay binding is exclusive."""
    system, pair, remotes = build_tensor_fixture(seed=109, routes=100)
    injector = FailureInjector(system)
    old_endpoint = pair.service_endpoint
    injector.inject("host_network", pair, {})
    system.engine.advance(40.0)
    new_endpoint = pair.service_endpoint
    assert new_endpoint is not old_endpoint
    assert system.network.host_by_address("10.10.0.1") is new_endpoint
    # the old primary's processes may still run, but its packets can no
    # longer reach anyone (NIC down) and its endpoint lost the address
    assert system.network.host_by_address("10.10.0.1").anchor().name == "gw-2"


def test_recovery_preserves_loc_rib_exactly():
    system, pair, remotes = build_tensor_fixture(seed=110, routes=500)
    before = {
        str(route.prefix): route.attributes.key()
        for route in pair.speaker.vrfs["v0"].loc_rib.best_routes()
    }
    injector = FailureInjector(system)
    injector.inject("container", pair, {})
    system.engine.advance(40.0)
    after = {
        str(route.prefix): route.attributes.key()
        for route in pair.speaker.vrfs["v0"].loc_rib.best_routes()
    }
    assert before == after


def test_application_failure_rebuilds_adj_rib_in_with_contested_prefixes():
    """E1 on a table where two remotes offer the same prefixes: every
    recovered session's Adj-RIB-In holds exactly what it held before the
    crash, read out of the rebuilt Loc-RIB's candidates."""
    from repro.sim import DeterministicRandom
    from repro.workloads.updates import RouteGenerator

    system, pair, remotes = build_tensor_fixture(
        seed=112, routes=200, neighbors=2, shared_vrf=True)
    remote1, _session1 = remotes[1]
    rival = RouteGenerator(DeterministicRandom(112).fork("rival"), 64513,
                           next_hop="192.0.2.2")
    for prefix, attrs in rival.routes(60, base="10.248.0.0"):
        remote1.speaker.originate("v0", prefix, attrs)
    system.engine.advance(5.0)

    def adj_ribs_in():
        return {peer_id: dict(session.adj_rib_in.items())
                for peer_id, session in pair.speaker.sessions.items()}

    before = adj_ribs_in()
    # remote1 advertises only the rival routes it prefers to the ones
    # it learned from the gateway.
    contested = len(pair.speaker.vrfs["v0"].loc_rib._contested)
    assert contested > 40
    assert sorted(map(len, before.values())) == [200, 200 + contested]
    old_speaker = pair.speaker
    FailureInjector(system).inject("application", pair, {})
    system.engine.advance(40.0)
    assert pair.speaker is not old_speaker
    assert adj_ribs_in() == before
    loc_rib = pair.speaker.vrfs["v0"].loc_rib
    assert len(loc_rib._contested) == contested
    for session in pair.speaker.sessions.values():
        for prefix, path in session.adj_rib_in.items():
            assert loc_rib.candidates(prefix)[session.peer_id] is path


def test_double_failure_primary_then_new_standby():
    """After one migration, a second failure migrates back to the
    re-provisioned standby on the original machine."""
    system, pair, remotes = build_tensor_fixture(seed=111, routes=100)
    injector = FailureInjector(system)
    injector.inject("container", pair, {})
    system.engine.advance(40.0)
    assert pair.active_machine.name == "gw-2"
    injector.inject("container", pair, {})
    system.engine.advance(40.0)
    assert pair.active_machine.name == "gw-1"
    _remote, session = remotes[0]
    assert session.established
    assert len(system.controller.completed_records()) == 2
