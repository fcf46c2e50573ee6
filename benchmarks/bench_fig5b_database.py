"""Figure 5(b): database read/write total time vs number of records.

Paper: single read < 500 us; single write ~1 ms (~2.5x the read); batch
amortization: ~70 reads in <1 ms-scale, 10K reads ~200 ms, 10 writes
<2 ms, 10K writes ~500 ms.  Records are 90 B keys + 4 KB values (one
maximal BGP message).
"""

from conftest import run_once
from repro.kvstore import KvClient, KvServer
from repro.metrics import format_table
from repro.sim import Engine, Network
from repro.sim.calibration import KV_KEY_BYTES, KV_VALUE_BYTES_MAX

RECORD_COUNTS = (1, 10, 70, 100, 1000, 10_000)


def run_experiment():
    engine = Engine()
    network = Network(engine)
    network.enable_fabric()
    gateway = network.add_host("gw", "10.0.0.1")
    db_host = network.add_host("db", "10.0.0.2")
    KvServer(engine, db_host)
    client = KvClient(engine, gateway, "10.0.0.2")
    value = b"v" * KV_VALUE_BYTES_MAX
    results = []
    for count in RECORD_COUNTS:
        items = [(f"{'k' * (KV_KEY_BYTES - 6)}{i:06d}", value) for i in range(count)]
        timing = {}
        start = engine.now
        client.mset(items, on_done=lambda: timing.__setitem__("write", engine.now - start))
        engine.run_until_idle()
        start = engine.now
        client.mget([key for key, _v in items],
                    on_done=lambda _vals: timing.__setitem__("read", engine.now - start))
        engine.run_until_idle()
        results.append((count, timing["read"], timing["write"]))
    return results


def test_fig5b_database(benchmark):
    results = run_once(benchmark, run_experiment)
    print()
    print(format_table(
        ["records", "read total (ms)", "write total (ms)", "write/read"],
        [[n, r * 1000, w * 1000, w / r] for n, r, w in results],
        title="Fig 5(b): database operation time vs record count",
    ))
    by_count = {n: (r, w) for n, r, w in results}
    read_1, write_1 = by_count[1]
    assert read_1 < 500e-6                      # "less than 500 us"
    assert 0.8e-3 < write_1 < 1.3e-3            # "roughly 1 ms"
    read_10k, write_10k = by_count[10_000]
    assert 0.15 < read_10k < 0.25               # "200 ms for up to 10K records"
    assert 0.4 < write_10k < 0.6                # "~500 ms for 10K"
    _r10, w10 = by_count[10]
    assert w10 < 2e-3                           # "less than 2 ms for 10 records"
    # write ~2.5x read at scale
    assert 2.0 < write_10k / read_10k < 3.0
    # batch amortization: per-record cost collapses
    assert read_10k / 10_000 < read_1 / 5
