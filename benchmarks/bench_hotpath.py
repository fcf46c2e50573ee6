"""Hot-path micro-benchmarks: codec, reselect, coalescer, dispatch, timers,
small-UPDATE and packed-UPDATE receive.

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
  collapsed rate;
- ``small update receive``: 2,500 one-route UPDATEs through one NSR pair
  until every route is applied and no ACK is held.  Beside the rate the
  file records compactions, deltas recorded, purge deletes issued and
  virtual seconds (``small_update_receive``); the gate fails on more
  than one compaction per 1,000 UPDATEs or more purge deletes than
  deltas — the compaction storm (DESIGN.md section 8) cannot return
  silently;
- ``packed update receive``: 45,000 routes in 64 attribute sets, so
  UPDATEs packed to the 4,096-byte limit, originated, advertised,
  received, applied and persisted through one NSR pair.  Beside the rate
  the file records how many bytes of RIB delta record the store holds
  per route (``packed_update_delta_bytes``, a cost: lower is better)
  and, under ``packed_update_receive``, UPDATEs against delta records —
  the gate fails unless they are one to one.

``--write`` rewrites ``BENCH_hotpath.json`` at the repo root, the
committed baseline ``benchmarks/check_bench_regression.py`` (the
``make bench-gate`` target) compares against; ``--out PATH`` writes the
results elsewhere, and with neither nothing is written.  A
``before`` block in the committed file (rows measured at earlier
commits on the same host, kept beside ``results`` as the before/after
pairs ROADMAP aim 1 asks for) is carried over unchanged.
"""

import pathlib

from conftest import run_once
from repro.bgp import AsPath, LocRib, Origin, PathAttributes, Prefix
from repro.bgp.rib import Path
from repro.config import build_system, lab_spec
from repro.core.replication import WriteCoalescer
from repro.kvstore import KvClient, KvServer
from repro.sim import DeterministicRandom, Engine, Network, Process
from repro.workloads import RouteGenerator
from results_file import write_results

OUT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"

#: test name -> measured ops/sec, collected across the file's tests and
#: written out (plus the interning-speedup assertion) by the final test.
RESULTS = {}
#: The small-update row's counters, from its last round.
SMALL_UPDATE_RECEIVE = {}
#: The packed row's counters, from its last round.
PACKED_UPDATE_RECEIVE = {}


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
            path = Path(_sample_attributes(64500 + peer_index), peer)
            rib.offer(prefix, path)
            offers.append((prefix, path))
    ops = len(offers)

    def run():
        offer = rib.offer
        for prefix, path in offers:
            offer(prefix, path)

    benchmark(run)
    _record("rib_incremental_reselect", benchmark, ops)


def test_coalescer_flush(benchmark):
    ops = 2000

    def run():
        engine = Engine()
        network = Network(engine)
        network.enable_fabric()
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


def _nsr_pair_lab(seed):
    """One NSR pair and one remote AS, session established."""
    system, pairs, remotes = build_system(lab_spec(seed))
    system.run(10.0)
    remote = remotes["remote0"]
    return system, pairs["pair0"], remote, remote.sessions[0]


def _receive(system, pair, remote, session, expected, limit):
    """Readvertise and run until ``expected`` routes are applied and no
    ACK is held; returns the virtual seconds it took."""
    engine = system.engine
    loc_rib = pair.speaker.vrfs["v0"].loc_rib
    tcp_queue = pair.speaker.tcp_queue
    started = engine.now
    remote.speaker.readvertise(session)
    while len(loc_rib) < expected or tcp_queue.held_count():
        upcoming = engine.next_event_time()
        assert upcoming is not None and upcoming - started < limit, (
            f"{len(loc_rib)}/{expected} routes applied,"
            f" {tcp_queue.held_count()} ACKs held after {limit:.0f}"
            f" virtual s")
        engine.run(until=upcoming)
    assert session.established
    return engine.now - started


def test_small_update_receive(benchmark):
    updates = 2500
    limit = 60.0  # virtual s; the receive takes under 6

    def setup():
        lab = _nsr_pair_lab(seed=3)
        routes = RouteGenerator(
            DeterministicRandom(3), 64512, next_hop="192.0.2.1",
            attr_pool_size=1,
        ).distinct_routes(updates)
        lab[2].speaker.originate_many("v0", routes)
        return lab, {}

    def run(system, pair, remote, session):
        virtual_s = _receive(system, pair, remote, session, updates, limit)
        pipeline = pair.pipeline
        SMALL_UPDATE_RECEIVE.update(
            updates=updates,
            compactions=pipeline.compactions,
            deltas_recorded=pipeline.deltas_recorded,
            purge_deletes=pipeline.deltas_purged,
            virtual_s=round(virtual_s, 4),
        )

    benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    _record("small_update_receive", benchmark, updates)


def _record_bytes(value):
    """Payload bytes of a stored record: text and byte strings by
    length, numbers as eight, containers as the sum of what they hold."""
    if isinstance(value, (bytes, str)):
        return len(value)
    if isinstance(value, dict):
        return sum(_record_bytes(k) + _record_bytes(v)
                   for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return sum(_record_bytes(item) for item in value)
    return 8


def test_packed_update_receive(benchmark):
    count = 45_000
    limit = 60.0  # virtual s; the receive takes under 1

    def setup():
        lab = _nsr_pair_lab(seed=5)
        routes = RouteGenerator(
            DeterministicRandom(5), 64512, next_hop="192.0.2.1",
            attr_pool_size=64,
        ).routes(count)
        return lab + (routes,), {}

    def run(system, pair, remote, session, routes):
        # origination is part of the row: the sender's table load is on
        # the path nsrbench's update_recv_packed times
        remote.speaker.originate_many("v0", routes)
        virtual_s = _receive(system, pair, remote, session, count, limit)
        deltas = system.db.store.scan("tensor:pair0:rib:v0:d:")
        gateway_session = next(iter(pair.speaker.sessions.values()))
        PACKED_UPDATE_RECEIVE.update(
            routes=count,
            updates=gateway_session.messages_received - 2,  # OPEN, KEEPALIVE
            deltas_recorded=pair.pipeline.deltas_recorded,
            delta_bytes=sum(_record_bytes(delta) for _key, delta in deltas),
            virtual_s=round(virtual_s, 4),
        )

    benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    _record("packed_update_receive", benchmark, count)


def test_write_results_and_interning_speedup(benchmark, request):
    config = request.config
    write, out = config.getoption("write"), config.getoption("out")
    assert not (write and out), "--write and --out are exclusive"
    expected = {
        "codec_to_wire_uncached",
        "codec_to_wire_interned",
        "rib_incremental_reselect",
        "coalescer_flush",
        "engine_dispatch",
        "process_periodic_tick",
        "small_update_receive",
        "packed_update_receive",
    }

    def finalize():
        assert expected <= set(RESULTS), f"missing: {expected - set(RESULTS)}"
        speedup = (
            RESULTS["codec_to_wire_interned"] / RESULTS["codec_to_wire_uncached"]
        )
        results = {
            name: {"ops_per_sec": round(RESULTS[name], 1)}
            for name in sorted(RESULTS)
        }
        results["packed_update_delta_bytes"] = {"per_route": round(
            PACKED_UPDATE_RECEIVE["delta_bytes"]
            / PACKED_UPDATE_RECEIVE["routes"], 2)}
        payload = {
            "results": results,
            "codec_interning_speedup": round(speedup, 2),
            "small_update_receive": SMALL_UPDATE_RECEIVE,
            "packed_update_receive": PACKED_UPDATE_RECEIVE,
        }
        write_results(payload, OUT_PATH, write, out)
        return speedup

    speedup = run_once(benchmark, finalize)
    print(f"\ncodec interning speedup: {speedup:.1f}x")
    assert speedup >= 2.0  # the acceptance floor for the wire-cache hit
