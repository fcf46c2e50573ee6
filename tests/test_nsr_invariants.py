"""NSR correctness invariants (DESIGN.md §5).

The central claims: (1) no TCP ACK escapes before the message it covers
is replicated; (2) therefore a crash at ANY instant loses no routing
information — the backup reconstructs everything from the database plus
TCP retransmission; (3) without the delayed ACK (the ablation), the
§3.1.1 inconsistency is real and observable.
"""


import pytest

from repro.config import build_system, lab_spec
from repro.failures import FailureInjector
from repro.workloads.updates import RouteGenerator

from conftest import build_tensor_fixture
from repro.sim.rand import DeterministicRandom


@pytest.mark.parametrize("crash_delay", [0.005, 0.02, 0.05, 0.12, 0.3, 0.8])
def test_crash_during_transfer_loses_nothing(crash_delay):
    """Kill the container mid-transfer at several instants; the recovered
    gateway must end with every route the remote advertised."""
    system, pair, remotes = build_tensor_fixture(seed=200, routes=0)
    engine = system.engine
    remote, session = remotes[0]
    gen = RouteGenerator(DeterministicRandom(9), 64512, next_hop="192.0.2.1")
    remote.speaker.originate_many("v0", gen.routes(3000))
    remote.speaker.readvertise(session)
    engine.advance(crash_delay)  # crash lands mid-transfer
    injector = FailureInjector(system)
    injector.inject("container", pair, {})
    engine.advance(60.0)
    assert session.established
    assert len(pair.speaker.vrfs["v0"].loc_rib) == 3000
    assert pair.active_container.name.endswith("-b")


def test_no_ack_released_before_replication():
    """Tap the wire: every pure ACK leaving the gateway's service address
    must be covered by database state at that instant."""
    system, pair, remotes = build_tensor_fixture(seed=201, routes=0)
    engine = system.engine
    remote, session = remotes[0]
    violations = []
    db_store = system.db.store

    def check_ack(packet, delivered):
        if packet.protocol != "tcp" or packet.src != "10.10.0.1":
            return
        seg = packet.payload
        if seg.payload or seg.syn or seg.rst or seg.fin or not seg.has_ack:
            return
        sess_records = db_store.scan("tensor:pair0:sess:")
        if not sess_records:
            return  # pre-session ACKs (handshake) carry no BGP data
        meta = sess_records[0][1]
        base = meta["irs"] + 1
        covered = 0
        status = db_store.scan("tensor:pair0:tcp:")
        if status:
            covered = status[0][1]["in_pos"]
        for key, value in db_store.scan("tensor:pair0:msg:"):
            if ":i:" in key:
                covered = max(covered, value["in_pos"])
        if seg.ack > base + covered:
            violations.append((engine.now, seg.ack, base + covered))

    system.network.tap(check_ack)
    gen = RouteGenerator(DeterministicRandom(10), 64512, next_hop="192.0.2.1")
    remote.speaker.originate_many("v0", gen.routes(1000))
    remote.speaker.readvertise(session)
    engine.advance(20.0)
    assert len(pair.speaker.vrfs["v0"].loc_rib) == 1000
    assert violations == [], violations[:5]


def test_ablation_no_delayed_ack_loses_data():
    """§3.1.1: release ACKs immediately and make the database lag — a
    crash then provably loses messages the remote already discarded.

    With holding enabled under the identical schedule, nothing is lost.
    """

    def run(hold_acks):
        system, pairs, remotes = build_system(
            {**lab_spec(202), "hold_acks": hold_acks})
        engine = system.engine
        engine.advance(10.0)
        pair, remote = pairs["pair0"], remotes["remote0"]
        session = remote.sessions[0]
        gen = RouteGenerator(DeterministicRandom(11), 64512, next_hop="192.0.2.1")
        remote.speaker.originate_many("v0", gen.routes(800))
        # database dies just as the updates arrive: writes never commit
        system.db.fail()
        remote.speaker.readvertise(session)
        engine.advance(2.0)
        applied_live = len(pair.speaker.vrfs["v0"].loc_rib)
        # the primary crashes; then the database comes back (its RAM data
        # from before the failure intact), and the backup recovers
        injector = FailureInjector(system)
        injector.inject("container", pair, {})
        system.db.recover()
        engine.advance(90.0)
        return system, pair, session, applied_live

    system_h, pair_h, session_h, _live_h = run(hold_acks=True)
    assert session_h.established
    assert len(pair_h.speaker.vrfs["v0"].loc_rib) == 800  # retransmission saved us

    system_n, pair_n, session_n, live_n = run(hold_acks=False)
    # without holding, the primary ACKed data it never replicated: the
    # remote cleared its send buffer, so the backup cannot recover it all
    recovered = len(pair_n.speaker.vrfs["v0"].loc_rib)
    assert live_n > 0  # the primary had applied routes in RAM...
    assert recovered < 800, (
        "expected route loss without delayed ACKs, got full recovery"
    )


def test_storage_bound_holds_under_churn():
    """<= 64 KB of message records per connection at quiescence."""
    system, pair, remotes = build_tensor_fixture(seed=203, routes=500)
    engine = system.engine
    remote, session = remotes[0]
    gen = RouteGenerator(DeterministicRandom(12), 64512, next_hop="192.0.2.1")
    for round_num in range(3):
        remote.speaker.originate_many("v0", gen.routes(400, length=20 + round_num))
        remote.speaker.readvertise(session)
        engine.advance(5.0)
        assert pair.speaker.storage_footprint(system.db.store) < 65536


def test_bfd_relay_keeps_remote_up_through_migration():
    """The remote BFD session must never leave UP during NSR migration."""
    system, pair, remotes = build_tensor_fixture(seed=204, routes=100)
    engine = system.engine
    remote, _session = remotes[0]
    remote_bfd = list(remote.bfd.sessions.values())[0]
    engine.advance(2.0)
    from repro.bfd.packet import BfdState

    assert remote_bfd.state is BfdState.UP
    injector = FailureInjector(system)
    injector.inject("container", pair, {})
    engine.advance(40.0)
    downs = [t for t, _old, new in remote_bfd.state_changes if new is BfdState.DOWN]
    assert remote_bfd.state is BfdState.UP
    assert not [t for t in downs if t > 10.0], remote_bfd.state_changes
