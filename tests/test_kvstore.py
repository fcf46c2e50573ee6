"""KV store: data operations, calibrated latencies, replication."""

import pytest

from repro.kvstore import KeyValueStore, KvClient, KvServer, ReplicatedKvCluster
from repro.kvstore.store import fixed_latency, record_count_of, server_cpu_cost
from repro.sim import Engine, Network
from repro.sim.calibration import (
    KV_READ_BASE,
    KV_READ_PER_RECORD,
    KV_WRITE_BASE,
    KV_WRITE_PER_RECORD,
)


# -- pure data structure ------------------------------------------------------


def test_set_get_delete():
    store = KeyValueStore()
    store.set("k", 1)
    assert store.get("k") == 1
    assert store.delete(["k"]) == 1
    assert store.get("k") is None
    assert store.delete(["k"]) == 0


def test_mset_mget_order():
    store = KeyValueStore()
    store.mset([("a", 1), ("b", 2)])
    assert store.mget(["b", "a", "missing"]) == [2, 1, None]


def test_scan_prefix_sorted():
    store = KeyValueStore()
    store.mset([("p:2", "x"), ("p:1", "y"), ("q:1", "z")])
    assert store.scan("p:") == [("p:1", "y"), ("p:2", "x")]


def test_delete_prefix():
    store = KeyValueStore()
    store.mset([("p:1", 1), ("p:2", 2), ("q:1", 3)])
    assert store.delete([key for key, _value in store.scan("p:")]) == 2
    assert len(store) == 1


def test_size_bytes_accounts_keys_and_values():
    store = KeyValueStore()
    store.set("k" * 90, b"v" * 4096)
    assert store.size_bytes() == 90 + 4096


# -- cost model ---------------------------------------------------------------


def operation_cost(method, record_count):
    """What a client observes of one uncontended operation: the
    serializing CPU share plus the overlapping fixed latency, as
    ``KvServer._service_time`` adds them."""
    return server_cpu_cost(method, record_count) + fixed_latency(method)


def test_operation_cost_single_read_under_500us():
    assert operation_cost("get", 1) < 500e-6


def test_operation_cost_single_write_about_1ms():
    assert 0.8e-3 < operation_cost("set", 1) < 1.2e-3


def test_write_read_ratio_about_2_5x():
    ratio = operation_cost("mset", 1000) / operation_cost("mget", 1000)
    assert 2.0 < ratio < 3.0


def test_batch_amortization():
    per_record_single = operation_cost("get", 1)
    per_record_batch = operation_cost("mget", 10_000) / 10_000
    assert per_record_batch < per_record_single / 5


def test_record_count_of():
    assert record_count_of("mget", {"keys": ["a", "b"]}) == 2
    assert record_count_of("mset", {"items": [("a", 1)]}) == 1
    assert record_count_of("delete", {"keys": ["a", "b", "c"]}) == 3
    assert record_count_of("get", {"key": "a"}) == 1


# -- server/client over the network -------------------------------------------


@pytest.fixture
def kv(engine):
    network = Network(engine)
    network.enable_fabric()
    client_host = network.add_host("c", "1.1.1.1")
    server_host = network.add_host("s", "1.1.1.2")
    server = KvServer(engine, server_host)
    client = KvClient(engine, client_host, "1.1.1.2")
    return engine, server, client


def test_client_set_then_get(kv):
    engine, server, client = kv
    out = []
    client.set("k", b"value", on_done=lambda: client.get("k", on_done=out.append))
    engine.run_until_idle()
    assert out == [b"value"]


def test_single_read_latency_calibrated(kv):
    engine, server, client = kv
    client.set("k", b"v", on_done=lambda: None)
    engine.run_until_idle()
    start = engine.now
    done = []
    client.get("k", on_done=lambda v: done.append(engine.now - start))
    engine.run_until_idle()
    assert done[0] < 500e-6  # "less than 500 us"


def test_single_write_latency_calibrated(kv):
    engine, server, client = kv
    start = engine.now
    done = []
    client.set("k", b"v" * 4096, on_done=lambda: done.append(engine.now - start))
    engine.run_until_idle()
    assert 0.8e-3 < done[0] < 1.3e-3  # "roughly 1 ms"


def test_batched_10k_latencies_match_fig5b(kv):
    engine, server, client = kv
    items = [(f"k{i}", b"v") for i in range(10_000)]
    writes, reads = [], []
    start = engine.now
    client.mset(items, on_done=lambda: writes.append(engine.now - start))
    engine.run_until_idle()
    start = engine.now
    client.mget([k for k, _v in items], on_done=lambda vals: reads.append(engine.now - start))
    engine.run_until_idle()
    assert 0.4 < writes[0] < 0.6  # "~500 ms for 10K"
    assert 0.15 < reads[0] < 0.25  # "200 ms for up to 10K records"


def test_large_batches_serialize_behind_one_cpu(kv):
    """Per-record work is real CPU: two concurrent 10K-record writes take
    nearly twice as long as one, while small writes overlap freely."""
    engine, server, client = kv
    items = [(f"k{i}", b"v") for i in range(10_000)]
    done_times = []
    client.mset(items, on_done=lambda: done_times.append(engine.now))
    client.mset(items, on_done=lambda: done_times.append(engine.now))
    engine.run_until_idle()
    assert done_times[1] - done_times[0] > 0.3  # ~480 ms of CPU each


def test_small_writes_overlap_across_clients(kv):
    engine, server, client = kv
    done_times = []
    for i in range(3):
        client.set(f"k{i}", b"v", on_done=lambda: done_times.append(engine.now))
    engine.run_until_idle()
    # the ~0.8 ms protocol latency overlaps; only ~70 us of CPU serializes
    assert done_times[2] - done_times[0] < 0.5e-3


def test_failed_server_times_out(kv):
    engine, server, client = kv
    server.fail()
    outcomes = []
    client.mset([("k", b"v")], on_done=lambda: outcomes.append("ok"),
                on_error=lambda m, cause: outcomes.append(cause))
    engine.run_until_idle()
    assert outcomes == ["timeout"]


def test_recovered_server_serves_again(kv):
    engine, server, client = kv
    server.fail()
    server.recover()
    out = []
    client.ping(on_done=lambda: out.append("pong"))
    engine.run_until_idle()
    assert out == ["pong"]


def test_scan_rpc(kv):
    engine, server, client = kv
    client.mset([("t:a", 1), ("t:b", 2), ("u:c", 3)], on_done=lambda: None)
    engine.run_until_idle()
    out = []
    client.scan("t:", on_done=out.append)
    engine.run_until_idle()
    assert out == [[("t:a", 1), ("t:b", 2)]]


# -- replication --------------------------------------------------------------


@pytest.fixture
def cluster(engine):
    network = Network(engine)
    network.enable_fabric()
    client_host = network.add_host("c", "1.1.1.1")
    primary_host = network.add_host("p", "1.1.1.2")
    replica_host = network.add_host("r", "1.1.1.3")
    cluster = ReplicatedKvCluster(engine, primary_host, replica_host)
    client = KvClient(engine, client_host, cluster.primary_addr)
    return engine, cluster, client


def test_sync_replication_reaches_replica(cluster):
    engine, cluster, client = cluster
    client.set("k", 42, on_done=lambda: None)
    engine.run_until_idle()
    assert cluster.replica.store.get("k") == 42


def test_failover_promotes_replica_with_data(cluster):
    engine, cluster, client = cluster
    client.mset([(f"k{i}", i) for i in range(100)], on_done=lambda: None)
    engine.run_until_idle()
    cluster.fail_primary()
    new_addr = cluster.promote_replica()
    client2_host = cluster.primary.host  # reuse any live host for the client
    out = []
    probe = KvClient(engine, client2_host, new_addr)
    probe.get("k50", on_done=out.append)
    engine.run_until_idle()
    assert out == [50]
    assert cluster.failovers == 1
