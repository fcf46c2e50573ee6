"""Recovery edge cases the chaos engine first exposed (DESIGN.md §9).

Three corners of §3.1.2 recovery that hand-picked scenario tests missed:

- a crash landing *during* a snapshot compaction (marker and chunk
  writes possibly unflushed) must still rebuild the exact table — the
  old marker + old deltas, or the new marker + the new floor, are both
  complete descriptions, and recovery must get one of them;
- a crash before any route was ever learned (empty Loc-RIB, no deltas,
  no snapshot) must recover to a live, usable speaker;
- the recovered pipeline must resume the delta log *past* the highest
  stored sequence (the delta_floor contract) — restarting from 0
  overwrote durable records and corrupted the *next* recovery.
"""

from repro.core.recovery import RecoveredState
from repro.failures import FailureInjector
from repro.sim import DeterministicRandom
from repro.workloads.updates import RouteGenerator

from conftest import build_tensor_fixture


def _routes(seed, count, base="10.200.0.0"):
    gen = RouteGenerator(
        DeterministicRandom(seed).fork("edges"), 64512, next_hop="192.0.2.1"
    )
    return gen.routes(count, base=base)


def _gateway_prefixes(pair, vrf_name="v0"):
    return {str(p) for p in pair.speaker.vrfs[vrf_name].loc_rib.prefixes()}


# ----------------------------------------------------------------------
# crash at the snapshot-compaction boundary
# ----------------------------------------------------------------------


def test_crash_mid_compaction_recovers_exact_table():
    system, pair, remotes = build_tensor_fixture(seed=601, routes=0)
    engine = system.engine
    remote, session = remotes[0]
    routes = _routes(601, 250)
    remote.speaker.originate_many("v0", routes)
    remote.speaker.readvertise(session)
    engine.advance(5.0)
    expected = {str(p) for p, _a in routes}
    assert _gateway_prefixes(pair) == expected

    injector = FailureInjector(system)

    def compact_then_crash():
        # Kick the compaction and kill the container before the bulk
        # channel can flush the chunk/marker writes: the database holds
        # a half-written snapshot plus the full delta history.
        pair.pipeline.compact("v0", pair.speaker.vrfs["v0"].loc_rib)
        injector.inject("container", pair, {})

    engine.schedule(1.0, compact_then_crash)
    engine.advance(25.0)
    assert session.established
    assert _gateway_prefixes(pair) == expected


def test_crash_after_committed_compaction_uses_snapshot():
    system, pair, remotes = build_tensor_fixture(seed=602, routes=0)
    engine = system.engine
    remote, session = remotes[0]
    routes = _routes(602, 200)
    remote.speaker.originate_many("v0", routes)
    remote.speaker.readvertise(session)
    engine.advance(5.0)
    pair.pipeline.compact("v0", pair.speaker.vrfs["v0"].loc_rib)
    engine.advance(2.0)  # let the chunk + marker writes commit
    marker = system.db.store.get("tensor:pair0:rib:v0:marker")
    assert marker is not None and marker["delta_floor"] > 0

    FailureInjector(system).inject("container", pair, {})
    engine.advance(25.0)
    assert session.established
    assert _gateway_prefixes(pair) == {str(p) for p, _a in routes}
    # the recovered pipeline honors the committed floor: new deltas
    # sequence past it rather than under it
    assert pair.pipeline._delta_floor["v0"] >= marker["delta_floor"]
    assert pair.pipeline._delta_seq["v0"] >= marker["delta_floor"]


# ----------------------------------------------------------------------
# crash with an empty Loc-RIB
# ----------------------------------------------------------------------


def test_crash_with_empty_loc_rib_recovers_live():
    system, pair, remotes = build_tensor_fixture(seed=603, routes=0)
    engine = system.engine
    remote, session = remotes[0]
    FailureInjector(system).inject("container", pair, {})
    engine.advance(20.0)
    assert session.established
    assert _gateway_prefixes(pair) == set()
    # the recovered speaker is fully usable: routes learned after the
    # migration propagate normally
    routes = _routes(603, 60)
    remote.speaker.originate_many("v0", routes)
    remote.speaker.readvertise(session)
    engine.advance(5.0)
    assert _gateway_prefixes(pair) == {str(p) for p, _a in routes}


# ----------------------------------------------------------------------
# the delta_floor contract
# ----------------------------------------------------------------------


def test_delta_log_state_contract():
    state = RecoveredState("pair0")
    # no marker, no deltas: everything starts at zero
    assert state.delta_log_state("v0") == (0, 0, 0)
    # deltas below the floor are superseded and not live; the next
    # sequence is always past the highest *stored* delta
    state.rib_markers["v0"] = {"chunks": 1, "delta_floor": 4}
    state.rib_deltas["v0"] = [(3, {}), (4, {}), (7, {})]
    assert state.delta_log_state("v0") == (8, 4, 2)
    # marker committed, superseded deltas already purged: resume at the
    # floor itself
    state.rib_deltas["v0"] = []
    assert state.delta_log_state("v0") == (4, 4, 0)


def test_second_recovery_survives_delta_log_resume():
    """The delta-log overwrite regression: after a first migration the
    recovered pipeline used to restart delta sequencing at 0, clobbering
    the durable log, so the *second* recovery rebuilt a corrupt RIB."""
    system, pair, remotes = build_tensor_fixture(seed=604, routes=0)
    engine = system.engine
    remote, session = remotes[0]
    routes = _routes(604, 150)
    remote.speaker.originate_many("v0", routes)
    remote.speaker.readvertise(session)
    engine.advance(5.0)
    expected = {str(p) for p, _a in routes}
    stored_max = max(
        int(key.rsplit(":", 1)[1])
        for key, _value in system.db.store.scan("tensor:pair0:rib:v0:d:")
    )

    injector = FailureInjector(system)
    injector.inject("container", pair, {})
    engine.advance(20.0)
    assert session.established
    # the contract itself: the new pipeline appends past the stored log
    assert pair.pipeline._delta_seq["v0"] > stored_max

    # more churn through the recovered pipeline, then a second crash
    extra = _routes(604, 50, base="10.210.0.0")
    remote.speaker.originate_many("v0", extra)
    remote.speaker.readvertise(session)
    engine.advance(5.0)
    injector.inject("container", pair, {})
    engine.advance(20.0)
    assert session.established
    assert _gateway_prefixes(pair) == expected | {str(p) for p, _a in extra}


# ----------------------------------------------------------------------
# many small UPDATEs: compaction must stay off the per-message path
# ----------------------------------------------------------------------


def _one_route_updates(count):
    return RouteGenerator(
        DeterministicRandom(0), 64512, next_hop="192.0.2.1", attr_pool_size=1
    ).distinct_routes(count)


def _recovered_state(system, pair):
    """What a backup would read from the store at this instant."""
    from repro.core.recovery import BackupRecovery

    loaded = []
    # read from a host no container failure takes down
    client = system.kv_client(system.controller_host)
    BackupRecovery(system.engine, client, pair.name).load(loaded.append)
    while not loaded:
        system.engine.advance(0.01)
    client.close()
    return loaded[0]


def _rebuilt_digest(state, pair, vrf_name="v0"):
    """``TensorSystem.rib_digest`` form of the table ``state`` rebuilds."""
    rebuilt = state.rebuild_loc_rib(
        vrf_name, pair.local_as, pair.speaker.config.router_id_int)
    return tuple(
        (entry["prefix"], str(entry["peer_id"]), entry["source_kind"],
         bytes(entry["attributes"]))
        for entry in rebuilt.export_entries()
    )


def test_2500_one_route_updates_compact_twice_and_stay_recoverable():
    system, pair, remotes = build_tensor_fixture(seed=605, routes=0)
    engine = system.engine
    remote, session = remotes[0]
    routes = _one_route_updates(2500)
    remote.speaker.originate_many("v0", routes)
    remote.speaker.readvertise(session)
    for _ in range(40):
        engine.advance(0.25)
        assert session.established
        assert pair.established_session_count() == 1
    speaker = pair.speaker
    assert len(speaker.vrfs["v0"].loc_rib) == 2500
    assert speaker.tcp_queue.held_count() == 0
    assert speaker.duplicate_applies == 0
    pipeline = pair.pipeline
    assert pipeline.deltas_recorded == 2500  # one UPDATE per route
    assert pipeline.compactions == 2  # the storm ran to hundreds
    assert pipeline.deltas_purged == 2048  # each superseded delta, once
    assert pipeline.backlog() == 0
    state = _recovered_state(system, pair)
    assert state.rib_markers["v0"]["delta_floor"] == 2048
    assert len(state.rib_deltas["v0"]) == 2500 - 2048
    assert _rebuilt_digest(state, pair) == system.rib_digest()[("pair0", "v0")]


def test_crash_between_overlapping_compactions(monkeypatch):
    """Two compactions in flight at once; the crash lands after the
    first marker is durable and before the second.  The store then holds
    marker 1, chunks partly rewritten by compaction 2, and every delta
    from marker 1's floor up — recovery must rebuild the exact table and
    resume the log past it."""
    monkeypatch.setattr("repro.core.replication.COMPACTION_THRESHOLD", 100)
    system, pair, remotes = build_tensor_fixture(seed=606, routes=0)
    engine = system.engine
    remote, session = remotes[0]
    routes = _one_route_updates(250)
    remote.speaker.originate_many("v0", routes)
    remote.speaker.readvertise(session)
    marker_key = "tensor:pair0:rib:v0:marker"
    pipeline = pair.pipeline
    overlapped = False
    while True:
        engine.run(until=engine.next_event_time())
        marker = system.db.store.get(marker_key)
        if pipeline.compactions == 2 and marker is None:
            overlapped = True  # second started, first not yet durable
        if marker is not None:
            break
    assert overlapped
    assert pipeline.compactions == 2
    assert marker["delta_floor"] == 100
    FailureInjector(system).inject("container", pair, {})

    state = _recovered_state(system, pair)
    assert state.rib_markers["v0"]["delta_floor"] == 100
    next_seq, floor, live = state.delta_log_state("v0")
    stored = [seq for seq, _delta in state.rib_deltas["v0"]]
    assert floor == 100 and next_seq == stored[-1] + 1
    assert live == sum(1 for seq in stored if seq >= 100)

    engine.advance(25.0)
    assert session.established
    assert _gateway_prefixes(pair) == {str(p) for p, _a in routes}
    # the contract, on the recovered pipeline: append past the stored
    # log, purge from the durable floor, count the live deltas as due
    recovered = pair.pipeline
    assert recovered is not pipeline
    assert recovered._delta_seq["v0"] >= next_seq
    assert recovered._delta_floor["v0"] >= 100
    assert recovered._delta_started["v0"] >= 100
    state = _recovered_state(system, pair)
    assert _rebuilt_digest(state, pair) == system.rib_digest()[("pair0", "v0")]
