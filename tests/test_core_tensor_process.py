"""The TENSOR BGP process: replication interposition on live sessions."""


import pytest

from repro.bgp import PeerConfig, SpeakerConfig
from repro.bgp.speaker import BgpSpeaker
from repro.core.replication import ReplicationPipeline
from repro.core.tensor_process import TensorBgpSpeaker
from repro.kvstore import KvClient, KvServer
from repro.sim import DeterministicRandom, Engine, Network
from repro.tcpsim import TcpStack
from repro.workloads.updates import RouteGenerator
from repro.sim.rand import DeterministicRandom


@pytest.fixture
def env(engine):
    network = Network(engine)
    network.enable_fabric()
    gw = network.add_host("gw", "10.0.0.1")
    remote = network.add_host("remote", "10.0.0.2")
    network.connect(gw, remote, latency=100e-6, bandwidth=100e9)
    db_host = network.add_host("db", "10.0.0.3")
    db = KvServer(engine, db_host)
    fast = KvClient(engine, gw, "10.0.0.3")
    bulk = KvClient(engine, gw, "10.0.0.3")
    pipeline = ReplicationPipeline("pair0", fast, bulk)
    gw_stack = TcpStack(engine, gw)
    tensor = TensorBgpSpeaker(
        engine, gw_stack,
        SpeakerConfig("gw", 65001, "10.0.0.1", profile="tensor"),
        pipeline, "pair0",
    )
    tensor.add_vrf("v1")
    tensor.add_peer(PeerConfig("10.0.0.2", 64512, vrf_name="v1", mode="passive"))
    remote_stack = TcpStack(engine, remote)
    peer = BgpSpeaker(engine, remote_stack, SpeakerConfig("remote", 64512, "10.0.0.2"))
    peer.add_vrf("v1")
    peer_session = peer.add_peer(PeerConfig("10.0.0.1", 65001, vrf_name="v1", mode="active"))
    tensor.start()
    peer.start()
    engine.advance(5.0)
    return engine, db, pipeline, tensor, peer, peer_session


def test_session_establishes_and_sess_record_written(env):
    engine, db, _pipeline, tensor, _peer, peer_session = env
    assert peer_session.established
    sess_records = db.store.scan("tensor:pair0:sess:")
    assert len(sess_records) == 1
    meta = sess_records[0][1]
    assert meta["remote_as"] == 64512
    assert meta["vrf"] == "v1"
    gw_session = next(iter(tensor.sessions.values()))
    assert meta["iss"] == gw_session.conn.iss
    assert meta["irs"] == gw_session.conn.irs


def test_incoming_updates_replicated_applied_pruned(env):
    engine, db, _pipeline, tensor, peer, peer_session = env
    gen = RouteGenerator(DeterministicRandom(1), 64512, next_hop="10.0.0.2")
    peer.originate_many("v1", gen.routes(500))
    peer.readvertise(peer_session)
    engine.advance(5.0)
    assert len(tensor.vrfs["v1"].loc_rib) == 500
    assert tensor.replicated_in_messages > 0
    # applied messages are pruned: only fresh keepalive residue may remain
    assert tensor.storage_footprint(db.store) < 65536
    # rib deltas landed
    deltas = db.store.scan("tensor:pair0:rib:v1:d:")
    assert deltas


def test_storage_bound_invariant_over_time(env):
    """§3.1.2: <= 64 KB of message records per connection, steady state."""
    engine, db, _pipeline, tensor, peer, peer_session = env
    gen = RouteGenerator(DeterministicRandom(2), 64512, next_hop="10.0.0.2")
    for round_num in range(5):
        peer.originate_many("v1", gen.routes(200, length=24 if round_num % 2 else 23))
        peer.readvertise(peer_session)
        engine.advance(3.0)
        assert tensor.storage_footprint(db.store) < 65536


def test_outgoing_messages_replicated_before_transmit(env):
    engine, db, _pipeline, tensor, peer, peer_session = env
    gen = RouteGenerator(DeterministicRandom(3), 65001, next_hop="10.0.0.1")
    tensor.originate_many("v1", gen.routes(100))
    gw_session = next(iter(tensor.sessions.values()))
    tensor.readvertise(gw_session)
    engine.advance(5.0)
    learned = [r for r in peer.vrfs["v1"].loc_rib.best_routes() if r.source_kind == "ebgp"]
    assert len(learned) == 100
    assert tensor.replicated_out_messages > 0


def test_outgoing_records_pruned_after_remote_ack(env):
    engine, db, _pipeline, tensor, peer, peer_session = env
    gen = RouteGenerator(DeterministicRandom(4), 65001, next_hop="10.0.0.1")
    tensor.originate_many("v1", gen.routes(50))
    gw_session = next(iter(tensor.sessions.values()))
    tensor.readvertise(gw_session)
    engine.advance(5.0)
    # let keepalives flow: pruning happens on incoming-message processing
    engine.advance(65.0)
    out_records = db.store.scan("tensor:pair0:msg:")
    out_only = [k for k, _v in out_records if ":o:" in k]
    # pruned down to the single stream-position anchor record
    assert len(out_only) <= 1, out_only


def test_keepalives_also_replicated(env):
    engine, db, _pipeline, tensor, _peer, _session = env
    before = tensor.replicated_out_messages
    engine.advance(65.0)  # at least two keepalive intervals
    assert tensor.replicated_out_messages > before


def test_ack_inference_alignment_on_live_session(env):
    engine, _db, _pipeline, tensor, _peer, _session = env
    gw_session = next(iter(tensor.sessions.values()))
    assert gw_session.inferred_ack_number == gw_session.conn.rcv_nxt


def test_tensor_receive_slower_than_frr_baseline(env):
    """Fig. 6(a): the replication machinery costs measurable extra time."""
    engine, _db, _pipeline, tensor, peer, peer_session = env
    gen = RouteGenerator(DeterministicRandom(5), 64512, next_hop="10.0.0.2")
    routes = gen.routes(2000)
    peer.originate_many("v1", routes)
    start = engine.now
    peer.readvertise(peer_session)
    engine.advance(10.0)
    tensor_time = tensor.last_apply_time - start
    per_update = tensor_time / 2000
    from repro.sim.calibration import RECEIVE_COST_PER_UPDATE
    assert per_update > RECEIVE_COST_PER_UPDATE["frr"]


def test_crash_stops_replication_and_holds(env):
    engine, db, pipeline, tensor, peer, peer_session = env
    tensor.crash()
    tensor.stack.destroy()
    before = len(db.store)
    peer.originate_many("v1", RouteGenerator(DeterministicRandom(6), 64512).routes(10))
    peer.readvertise(peer_session)
    engine.advance(3.0)
    assert tensor.replicated_in_messages == 0 or len(db.store) >= before  # no crash explosion
    assert not tensor.running
