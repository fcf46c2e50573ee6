"""Hot-path micro-benchmarks: codec, reselect, coalescer, dispatch, timers.

Unlike the Fig. 5/6 reproductions these measure *wall-clock* throughput
of the code paths the hot-path overhauls target:

- ``codec``: ``PathAttributes.to_wire()`` with the memoized wire cache
  hit vs the raw encoder (the interning speedup must be >= 2x);
- ``reselect``: incremental ``LocRib.offer`` over a populated table;
- ``coalescer``: sets pushed through a ``WriteCoalescer`` + simulated
  KV store to drain;
- ``dispatch``: engine events fired, fifty to an instant;
- ``periodic tick``: one ``Process.every`` chain run far past any prune
  threshold, so a per-tick cost that grows with the chain's history
  (an ownership list that retains fired events) shows up as a
  collapsed rate.

Results land in ``BENCH_hotpath.json`` at the repo root; the committed
baseline is what ``benchmarks/check_bench_regression.py`` (the
``make bench-gate`` target) compares against.  A ``before`` block in
that file (rows measured at an earlier commit on the same host, kept
beside ``results`` as the before/after pair ROADMAP aim 1 asks for) is
carried over unchanged when the file is rewritten.
"""

import json
from pathlib import Path

from conftest import run_once
from repro.bgp import AsPath, LocRib, Origin, PathAttributes, Prefix
from repro.bgp.rib import Route
from repro.core.replication import WriteCoalescer
from repro.kvstore import KvClient, KvServer
from repro.sim import DeterministicRandom, Engine, Network, Process

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"

#: test name -> measured ops/sec, collected across the file's tests and
#: written out (plus the interning-speedup assertion) by the final test.
RESULTS = {}


def _sample_attributes(first_as=65001):
    return PathAttributes(
        origin=Origin.IGP,
        as_path=AsPath.sequence(first_as, 64800, 64700),
        next_hop="10.0.0.1",
        med=50,
        local_pref=200,
    )


def _record(name, benchmark, ops_per_round):
    RESULTS[name] = ops_per_round / benchmark.stats.stats.mean


def test_codec_to_wire_uncached(benchmark):
    attrs = _sample_attributes()
    ops = 2000

    def run():
        encode = attrs._encode
        for _ in range(ops):
            encode()

    benchmark(run)
    _record("codec_to_wire_uncached", benchmark, ops)


def test_codec_to_wire_interned(benchmark):
    attrs = _sample_attributes()
    attrs.to_wire()  # prime the memo, as the fan-out path does
    ops = 2000

    def run():
        to_wire = attrs.to_wire
        for _ in range(ops):
            to_wire()

    benchmark(run)
    _record("codec_to_wire_interned", benchmark, ops)


def test_rib_incremental_reselect(benchmark):
    prefixes = [Prefix(i << 12, 20) for i in range(200)]
    peers = [f"peer{i}" for i in range(8)]
    rib = LocRib()
    offers = []
    for index, prefix in enumerate(prefixes):
        for peer_index, peer in enumerate(peers):
            route = Route(prefix, _sample_attributes(64500 + peer_index), peer)
            rib.offer(route)
            offers.append(route)
    ops = len(offers)

    def run():
        offer = rib.offer
        for route in offers:
            offer(route)

    benchmark(run)
    _record("rib_incremental_reselect", benchmark, ops)


def test_coalescer_flush(benchmark):
    ops = 2000

    def run():
        engine = Engine()
        network = Network(engine, DeterministicRandom(11))
        network.enable_fabric(latency=5e-5)
        client_host = network.add_host("c", "1.1.1.1")
        db_host = network.add_host("s", "1.1.1.2")
        KvServer(engine, db_host)
        coalescer = WriteCoalescer(KvClient(engine, client_host, "1.1.1.2"))
        for i in range(ops):
            coalescer.set(f"k{i:06d}", i)
        engine.run_until_idle()
        assert coalescer.records_written == ops

    benchmark.pedantic(run, rounds=3, iterations=1)
    _record("coalescer_flush", benchmark, ops)


def test_engine_dispatch(benchmark):
    instants = 200
    per_instant = 50
    ops = instants * per_instant

    def noop():
        pass

    def run():
        engine = Engine()
        for i in range(instants):
            delay = i * 0.001
            for _ in range(per_instant):
                engine.schedule(delay, noop)
        fired = engine.run_until_idle()
        assert fired == ops

    benchmark.pedantic(run, rounds=3, iterations=1)
    _record("engine_dispatch", benchmark, ops)


def test_process_periodic_tick(benchmark):
    ticks = 5000
    interval = 0.001

    def noop():
        pass

    def run():
        engine = Engine()
        task = Process(engine, "ticker").every(interval, noop)
        engine.run(until=(ticks + 0.5) * interval)
        assert task.ticks == ticks

    benchmark.pedantic(run, rounds=3, iterations=1)
    _record("process_periodic_tick", benchmark, ticks)


def test_write_results_and_interning_speedup(benchmark):
    expected = {
        "codec_to_wire_uncached",
        "codec_to_wire_interned",
        "rib_incremental_reselect",
        "coalescer_flush",
        "engine_dispatch",
        "process_periodic_tick",
    }

    def finalize():
        assert expected <= set(RESULTS), f"missing: {expected - set(RESULTS)}"
        speedup = (
            RESULTS["codec_to_wire_interned"] / RESULTS["codec_to_wire_uncached"]
        )
        payload = {
            "results": {
                name: {"ops_per_sec": round(RESULTS[name], 1)}
                for name in sorted(RESULTS)
            },
            "codec_interning_speedup": round(speedup, 2),
        }
        if OUT_PATH.exists():
            before = json.loads(OUT_PATH.read_text()).get("before")
            if before is not None:
                payload["before"] = before
        OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        return speedup

    speedup = run_once(benchmark, finalize)
    print(f"\ncodec interning speedup: {speedup:.1f}x (wrote {OUT_PATH.name})")
    assert speedup >= 2.0  # the acceptance floor for the wire-cache hit
