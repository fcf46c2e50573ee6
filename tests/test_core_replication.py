"""Replication pipeline: coalescing, ordering, pruning, compaction."""

import pytest

from repro.bgp.aggregation import chunk_assigner
from repro.core.replication import (
    ConnectionKeys,
    ReplicationPipeline,
    WriteCoalescer,
    rib_delta,
    rib_delta_key,
)
from repro.kvstore import KvClient, KvServer
from repro.sim import Engine, Network


@pytest.fixture
def kv_env(engine):
    network = Network(engine)
    network.enable_fabric()
    client_host = network.add_host("c", "1.1.1.1")
    server_host = network.add_host("s", "1.1.1.2")
    server = KvServer(engine, server_host)
    fast = KvClient(engine, client_host, "1.1.1.2")
    bulk = KvClient(engine, client_host, "1.1.1.2")
    return engine, server, fast, bulk


def test_connection_keys_schema():
    keys = ConnectionKeys("pair0", "v1", "10.0.0.1", 179, "192.0.2.1", 49152)
    assert keys.session == "tensor:pair0:sess:v1|10.0.0.1:179|192.0.2.1:49152"
    assert keys.message("i", 42).endswith(":i:0000000000000042")
    assert keys.message("o", 7) == (
        "tensor:pair0:msg:v1|10.0.0.1:179|192.0.2.1:49152:o:0000000000000007")


def test_coalescer_writes_and_fires_callbacks(kv_env):
    engine, server, fast, _bulk = kv_env
    coalescer = WriteCoalescer(fast)
    done = []
    coalescer.set("a", 1, on_done=lambda: done.append("a"))
    coalescer.set("b", 2, on_done=lambda: done.append("b"))
    engine.run_until_idle()
    assert done == ["a", "b"]
    assert server.store.get("a") == 1
    assert coalescer.records_written == 2


def test_coalescer_batches_while_in_flight(kv_env):
    engine, server, fast, _bulk = kv_env
    coalescer = WriteCoalescer(fast)
    coalescer.set("first", 1)
    for i in range(100):
        coalescer.set(f"k{i}", i)
    engine.run_until_idle()
    # first flush carries 1 record; the rest coalesce into few batches
    assert coalescer.batches_flushed <= 5
    assert len(server.store) == 101


def test_coalescer_set_then_delete_ordering(kv_env):
    engine, server, fast, _bulk = kv_env
    coalescer = WriteCoalescer(fast)
    coalescer.set("k", "v")
    coalescer.delete("k")
    engine.run_until_idle()
    assert server.store.get("k") is None
    assert coalescer.records_deleted == 1


def test_coalescer_unavailable_callback_on_dead_server(kv_env):
    engine, server, fast, _bulk = kv_env
    server.fail()
    lost = []
    coalescer = WriteCoalescer(fast, on_unavailable=lost.append)
    coalescer.set("k", "v")
    engine.run(until=30.0)
    assert lost and lost[0] >= 1
    assert coalescer.failures > 0


def test_pipeline_message_replication_ordered_per_connection(kv_env):
    engine, server, fast, bulk = kv_env
    pipeline = ReplicationPipeline("pair0", fast, bulk)
    keys = ConnectionKeys("pair0", "v1", "10.0.0.1", 179, "192.0.2.1", 49152)
    committed = []
    pipeline.replicate_message(keys, "i", 100, {"m": 1},
                               on_committed=lambda: committed.append(100))
    pipeline.replicate_message(keys, "i", 200, {"m": 2},
                               on_committed=lambda: committed.append(200))
    engine.run_until_idle()
    assert committed == [100, 200]
    assert keys.message("i", 100) in server.store
    assert keys.message("i", 200) in server.store


def test_pipeline_cross_connection_concurrency(kv_env):
    engine, server, fast, bulk = kv_env
    pipeline = ReplicationPipeline("pair0", fast, bulk)
    k1 = ConnectionKeys("pair0", "v1", "10.0.0.1", 179, "192.0.2.1", 49152)
    k2 = ConnectionKeys("pair0", "v2", "10.0.0.1", 179, "192.0.2.2", 49153)
    committed = []
    pipeline.replicate_message(k1, "i", 1, {}, on_committed=lambda: committed.append("c1"))
    pipeline.replicate_message(k2, "i", 1, {}, on_committed=lambda: committed.append("c2"))
    engine.run_until_idle()
    assert sorted(committed) == ["c1", "c2"]
    assert pipeline.locks.contentions == 0  # different connections


def test_pipeline_delete_message_prunes(kv_env):
    engine, server, fast, bulk = kv_env
    pipeline = ReplicationPipeline("pair0", fast, bulk)
    keys = ConnectionKeys("pair0", "v1", "10.0.0.1", 179, "192.0.2.1", 49152)
    pipeline.replicate_message(keys, "i", 1, {"m": 1}, on_committed=lambda: None)
    engine.run_until_idle()
    pipeline.delete_message(keys, "i", 1)
    engine.run_until_idle()
    assert keys.message("i", 1) not in server.store


def test_rib_delta_sequencing(kv_env):
    engine, server, fast, bulk = kv_env
    pipeline = ReplicationPipeline("pair0", fast, bulk)
    s0 = pipeline.record_rib_delta("v1", rib_delta(1))
    s1 = pipeline.record_rib_delta("v1", rib_delta(2))
    s_other = pipeline.record_rib_delta("v2", rib_delta(1))
    engine.run_until_idle()
    assert (s0, s1, s_other) == (0, 1, 0)
    assert rib_delta_key("pair0", "v1", 0) in server.store


def test_compaction_replaces_deltas_with_snapshot(kv_env, monkeypatch):
    from repro.bgp import LocRib, PathAttributes, Prefix
    from repro.bgp.rib import Path

    engine, server, fast, bulk = kv_env
    pipeline = ReplicationPipeline("pair0", fast, bulk)
    rib = LocRib()
    for i in range(600):
        rib.offer(Prefix(i << 8, 24), Path(PathAttributes(next_hop="1.1.1.1"), "p"))
        pipeline.record_rib_delta("v1", rib_delta(i))
    engine.run_until_idle()
    monkeypatch.setattr("repro.core.replication.COMPACTION_THRESHOLD", 500)
    assert pipeline.needs_compaction("v1")
    pipeline.compact("v1", rib)
    engine.run_until_idle()
    assert pipeline.compactions == 1
    assert not pipeline.needs_compaction("v1")
    # deltas purged, snapshot chunks + marker present
    pairs = server.store.scan("tensor:pair0:rib:v1:d:")
    assert pairs == []
    marker = server.store.get("tensor:pair0:rib:v1:marker")
    assert marker["chunks"] == 2  # 600 routes / 500 per chunk
    chunks = server.store.scan("tensor:pair0:rib:v1:s:")
    assert sum(len(entries) for _k, entries in chunks) == 600


def test_coalescer_retry_exhaustion_drops_and_resumes(kv_env):
    engine, server, fast, _bulk = kv_env
    server.fail()
    dropped = []
    coalescer = WriteCoalescer(fast, on_unavailable=dropped.append)
    fired = []
    coalescer.set("a", 1, on_done=lambda: fired.append("a"))
    coalescer.set("b", 2, on_done=lambda: fired.append("b"))
    coalescer.delete_many(["x", "y", "z"])
    engine.run(until=60.0)
    # Only the in-flight batch (the lone "a" set — it flushed before the
    # rest were enqueued) is abandoned; its callback never fires, and
    # on_unavailable reports exactly the dropped record count.
    assert dropped == [1]
    assert fired == []
    assert not coalescer._in_flight
    # Records enqueued behind the doomed batch stay pending.  When the
    # database comes back, a later enqueue resumes flushing them.
    server.recover()
    coalescer.set("c", 3, on_done=lambda: fired.append("c"))
    engine.run_until_idle()
    assert fired == ["b", "c"]
    assert "a" not in server.store  # dropped, never retried
    assert server.store.get("b") == 2
    assert server.store.get("c") == 3
    assert server.store.get("x") is None


def test_compaction_marker_floor_is_first_live_delta(kv_env, monkeypatch):
    from repro.bgp import LocRib, PathAttributes, Prefix
    from repro.bgp.rib import Path

    engine, server, fast, bulk = kv_env
    pipeline = ReplicationPipeline("pair0", fast, bulk)
    rib = LocRib()
    for i in range(10):
        rib.offer(Prefix(i << 8, 24), Path(PathAttributes(next_hop="1.1.1.1"), "p"))
        pipeline.record_rib_delta("v1", rib_delta(i))
    engine.run_until_idle()
    pipeline.compact("v1", rib)
    engine.run_until_idle()
    marker = server.store.get("tensor:pair0:rib:v1:marker")
    # Deltas 0..9 are folded into the snapshot; the first delta a
    # recovery must replay on top of it is seq 10.
    assert marker["delta_floor"] == 10
    # A second round: the floor advances to the next unwritten seq and
    # only the deltas recorded since the first compaction get purged.
    for i in range(3):
        pipeline.record_rib_delta("v1", rib_delta(10 + i))
    engine.run_until_idle()
    pipeline.compact("v1", rib)
    engine.run_until_idle()
    marker = server.store.get("tensor:pair0:rib:v1:marker")
    assert marker["delta_floor"] == 13
    assert server.store.scan("tensor:pair0:rib:v1:d:") == []
    monkeypatch.setattr("repro.core.replication.COMPACTION_THRESHOLD", 1)
    assert not pipeline.needs_compaction("v1")


def test_incremental_compaction_rewrites_only_dirty_chunks(kv_env):
    from repro.bgp import LocRib, PathAttributes, Prefix
    from repro.bgp.rib import Path

    engine, server, fast, bulk = kv_env
    pipeline = ReplicationPipeline("pair0", fast, bulk)
    rib = LocRib()
    for i in range(600):
        rib.offer(Prefix(i << 8, 24), Path(PathAttributes(next_hop="1.1.1.1"), "p"))
    pipeline.compact("v1", rib)
    engine.run_until_idle()
    first_round = pipeline.snapshot_chunks_written
    assert first_round == 2  # full snapshot: every chunk written
    assert pipeline.incremental_compactions == 0
    # Touch one prefix: the follow-up compaction rewrites one chunk.
    rib.offer(Prefix(0, 24), Path(PathAttributes(next_hop="2.2.2.2"), "q"))
    pipeline.compact("v1", rib)
    engine.run_until_idle()
    assert pipeline.incremental_compactions == 1
    assert pipeline.snapshot_chunks_written == first_round + 1
    # The snapshot still carries the whole table (601 candidate paths).
    chunks = server.store.scan("tensor:pair0:rib:v1:s:")
    marker = server.store.get("tensor:pair0:rib:v1:marker")
    assert marker["chunks"] == 2
    assert sum(len(entries) for _k, entries in chunks) == 601


def test_verify_read_roundtrip(kv_env):
    engine, server, fast, bulk = kv_env
    pipeline = ReplicationPipeline("pair0", fast, bulk)
    server.store.set("somekey", {"x": 1})
    out = []
    pipeline.verify_read("somekey", on_value=out.append)
    engine.run_until_idle()
    assert out == [{"x": 1}]


# ----------------------------------------------------------------------
# watermark-driven compaction (DESIGN.md "Incremental snapshot protocol")
# ----------------------------------------------------------------------

V1_MARKER = "tensor:pair0:rib:v1:marker"


def _route(index, next_hop="1.1.1.1", peer="p"):
    """``(prefix, path)`` of the ``index``-th /24."""
    from repro.bgp import PathAttributes, Prefix
    from repro.bgp.rib import Path

    return Prefix(index << 8, 24), Path(PathAttributes(next_hop=next_hop), peer)


def _offer_and_record(pipeline, rib, route, position):
    """What the TENSOR process does per applied UPDATE, minus the wire."""
    prefix, path = route
    rib.offer(prefix, path)
    announced = [(prefix.afi, prefix.to_wire(), path.attributes.to_wire(),
                  path.peer_id, path.source_kind)]
    return pipeline.record_rib_delta(
        "v1", rib_delta(position, announced=announced))


def _record_deleted_keys(client):
    """Every key the client is asked to delete, in order, repeats kept."""
    deleted = []
    real_delete = client.delete

    def delete(keys, **kwargs):
        deleted.extend(keys)
        return real_delete(keys, **kwargs)

    client.delete = delete
    return deleted


def _recovered_entries(engine, client, vrf="v1"):
    """The table a backup would rebuild from the store right now."""
    from repro.core.recovery import BackupRecovery

    loaded = []
    BackupRecovery(engine, client, "pair0").load(loaded.append)
    engine.run_until_idle()
    return loaded[0].rebuild_loc_rib(vrf).export_entries()


def test_one_compaction_per_threshold_crossing_while_marker_in_flight(kv_env):
    """The storm pin: nothing commits between these calls (the engine
    never runs), so a trigger that waited for the marker's commit would
    compact on every delta past the 1,024th, each from the same floor."""
    from repro.bgp import LocRib

    engine, server, fast, bulk = kv_env
    pipeline = ReplicationPipeline("pair0", fast, bulk)
    deleted = _record_deleted_keys(bulk)
    rib = LocRib()
    for i in range(3000):
        _offer_and_record(pipeline, rib, _route(i), i)
        if pipeline.needs_compaction("v1"):
            pipeline.compact("v1", rib)
    assert pipeline.compactions == 2  # at the 1,024th and the 2,048th
    engine.run_until_idle()
    assert pipeline.compactions == 2
    # every superseded delta deleted exactly once, none twice
    assert len(deleted) == len(set(deleted)) == 2048
    assert pipeline.bulk.records_deleted == pipeline.deltas_purged == 2048
    assert len(server.store.scan("tensor:pair0:rib:v1:d:")) == 3000 - 2048
    marker = server.store.get(V1_MARKER)
    assert marker["delta_floor"] == pipeline._delta_started["v1"] == 2048
    assert pipeline._delta_floor["v1"] == 2048
    assert _recovered_entries(engine, fast) == rib.export_entries()


def test_overlapping_compactions_purge_disjoint_ranges(kv_env):
    from repro.bgp import LocRib

    engine, server, fast, bulk = kv_env
    pipeline = ReplicationPipeline("pair0", fast, bulk)
    deleted = _record_deleted_keys(bulk)
    rib = LocRib()
    for i in range(10):
        _offer_and_record(pipeline, rib, _route(i), i)
    pipeline.compact("v1", rib)
    # The first marker is still queued when the second compaction
    # starts: its purge range must begin where the first one's ends,
    # which is only known once the first marker has committed.
    for i in range(10, 15):
        _offer_and_record(pipeline, rib, _route(i), i)
    pipeline.compact("v1", rib)
    assert pipeline._delta_floor.get("v1", 0) == 0  # nothing durable yet
    engine.run_until_idle()
    assert deleted == [rib_delta_key("pair0", "v1", seq) for seq in range(15)]
    assert server.store.get(V1_MARKER)["delta_floor"] == 15
    assert pipeline._delta_floor["v1"] == 15
    assert server.store.scan("tensor:pair0:rib:v1:d:") == []


def test_resumed_delta_log_seeds_both_watermarks(kv_env, monkeypatch):
    from repro.bgp import LocRib

    engine, server, fast, bulk = kv_env
    pipeline = ReplicationPipeline("pair0", fast, bulk)
    deleted = _record_deleted_keys(bulk)
    # What recovery hands over: 5,000 deltas ever written, a committed
    # marker at 4,990, ten live deltas above it.
    pipeline.resume_delta_log("v1", 5000, 4990, 10)
    assert not pipeline.needs_compaction("v1")
    rib = LocRib()
    assert _offer_and_record(pipeline, rib, _route(0), 1) == 5000
    assert not pipeline.needs_compaction("v1")  # 11 live, not 5,001
    monkeypatch.setattr("repro.core.replication.COMPACTION_THRESHOLD", 11)
    assert pipeline.needs_compaction("v1")
    # ... and the first compaction purges from the recovered floor, not
    # from zero.
    pipeline.compact("v1", rib)
    engine.run_until_idle()
    assert deleted == [rib_delta_key("pair0", "v1", seq)
                       for seq in range(4990, 5001)]


def test_dropped_snapshot_write_forces_a_full_rewrite(kv_env):
    """server.fail() mid-compaction: the chunk write is abandoned, the
    marker behind it commits once the database is back.  The snapshot in
    the store is then missing a change whose delta the marker purged; an
    incremental follow-up would never revisit that chunk."""
    from repro.bgp import LocRib

    engine, server, fast, bulk = kv_env
    pipeline = ReplicationPipeline("pair0", fast, bulk)
    rib = LocRib()
    for i in range(600):
        _offer_and_record(pipeline, rib, _route(i), i)
    pipeline.compact("v1", rib)
    engine.run_until_idle()
    assert _recovered_entries(engine, fast) == rib.export_entries()
    buckets = len(pipeline._snapshot_state["v1"]["chunks"])
    assert buckets == 2
    by_bucket = {}
    assign = chunk_assigner(buckets, pipeline.aggregate_snapshots)
    for i in range(600):
        by_bucket.setdefault(assign(_route(i)[0]), i)

    # Change one route in chunk 0 and let its delta land.
    _offer_and_record(pipeline, rib, _route(by_bucket[0], "2.2.2.2", "q"), 600)
    engine.run_until_idle()
    server.fail()
    pipeline.compact("v1", rib)  # chunk 0 goes out alone, marker queues
    engine.run(until=engine.now + 60.0)
    assert not pipeline.bulk._in_flight  # chunk batch given up
    server.recover()

    # A change in the *other* chunk, then the next compaction.  The
    # enqueue also resumes flushing: the stale marker commits first.
    _offer_and_record(pipeline, rib, _route(by_bucket[1], "3.3.3.3", "r"), 601)
    before = pipeline.incremental_compactions
    pipeline.compact("v1", rib)
    engine.run_until_idle()
    assert pipeline.incremental_compactions == before  # full rewrite
    assert server.store.get(V1_MARKER)["delta_floor"] == 602
    assert server.store.scan("tensor:pair0:rib:v1:d:") == []
    assert _recovered_entries(engine, fast) == rib.export_entries()
    # The one after that is incremental again.
    _offer_and_record(pipeline, rib, _route(by_bucket[0], "4.4.4.4", "s"), 602)
    pipeline.compact("v1", rib)
    engine.run_until_idle()
    assert pipeline.incremental_compactions == before + 1
    assert _recovered_entries(engine, fast) == rib.export_entries()


def test_stale_rebucket_deletes_chunks_past_the_new_count(kv_env):
    """Staleness used to be recorded by zeroing the chunk count — the
    only record of how many chunks the store holds — so a table that
    shrank while its snapshot was stale kept its high-numbered chunks
    for ever: marker says 1, store holds 6."""
    from repro.bgp import LocRib

    engine, server, fast, bulk = kv_env
    pipeline = ReplicationPipeline("pair0", fast, bulk)
    rib = LocRib()
    for i in range(3000):
        rib.offer(*_route(i))
    pipeline.compact("v1", rib)
    engine.run_until_idle()
    assert len(server.store.scan("tensor:pair0:rib:v1:s:")) == 6
    pipeline._snapshots_went_stale()
    for i in range(2600):
        rib.retract(_route(i)[0], "p")
    before = pipeline.incremental_compactions
    pipeline.compact("v1", rib)
    engine.run_until_idle()
    assert pipeline.incremental_compactions == before  # forced re-bucket
    assert server.store.get(V1_MARKER)["chunks"] == 1
    assert [key for key, _ in server.store.scan("tensor:pair0:rib:v1:s:")] == [
        "tensor:pair0:rib:v1:s:00000000"]
    assert _recovered_entries(engine, fast) == rib.export_entries()
    # Stale is a one-shot: the next compaction is incremental again.
    rib.offer(*_route(2999, "2.2.2.2"))
    pipeline.compact("v1", rib)
    engine.run_until_idle()
    assert pipeline.incremental_compactions == before + 1
    assert _recovered_entries(engine, fast) == rib.export_entries()
