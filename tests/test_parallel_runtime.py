"""Unit tests for the conservative parallel runtime.

The ping-pong scenario used throughout: two shards, one host each,
exchanging a counter over a cross-shard link.  Builders are module-level
functions so the spawn-based process mode can pickle them by reference.
"""

import pytest

from repro.sim import Engine, Network, SimulationError
from repro.sim.network import Packet
from repro.sim.parallel import (
    BoundaryLink,
    ParallelRunner,
    ShardSpec,
    assign_shards,
    partition_items,
)
from repro.sim.parallel.boundary import ShardBoundary

LATENCY = 0.01


class PingProgram:
    def __init__(self, shard_id, params, boundary):
        self.engine = Engine()
        self.network = Network(self.engine)
        self.host = self.network.add_host(f"h-{shard_id}", params["addr"])
        self.peer = params["peer"]
        self.limit = params.get("limit", 6)
        self.log = []
        self.host.bind("udp", 7, self._on_packet)
        boundary.attach(self.network)
        if params.get("starts"):
            self.engine.schedule(0.5, self._send, 0)

    def _send(self, n):
        self.log.append(("tx", round(self.engine.now, 6), n))
        self.host.send(
            Packet(self.host.address, self.peer, "udp", 7, 7, n, 100)
        )

    def _on_packet(self, packet):
        n = packet.payload
        self.log.append(("rx", round(self.engine.now, 6), n))
        if n < self.limit:
            self._send(n + 1)

    def results(self):
        return self.log


def build_ping(shard_id, params, boundary):
    return PingProgram(shard_id, params, boundary)


def ping_specs(latency=LATENCY):
    return [
        ShardSpec(
            "A", build_ping,
            {"addr": "10.0.0.1", "peer": "10.0.0.2", "starts": True},
            links=[BoundaryLink("10.0.0.1", "10.0.0.2", "B", latency)],
        ),
        ShardSpec(
            "B", build_ping,
            {"addr": "10.0.0.2", "peer": "10.0.0.1"},
            links=[BoundaryLink("10.0.0.2", "10.0.0.1", "A", latency)],
        ),
    ]


# ----------------------------------------------------------------------
# partitioner
# ----------------------------------------------------------------------

def test_partition_balances_by_weight():
    items = [("a", 5.0), ("b", 1.0), ("c", 1.0), ("d", 1.0), ("e", 2.0)]
    groups = partition_items(items, 2, weight=lambda kv: kv[1])
    loads = sorted(sum(w for _n, w in group) for group in groups)
    assert loads == [5.0, 5.0]


def test_partition_is_deterministic_and_order_preserving():
    items = list(range(10))
    first = partition_items(items, 3)
    second = partition_items(items, 3)
    assert first == second
    for group in first:
        assert group == sorted(group)  # input order inside each group


def test_partition_rejects_nonpositive_bins():
    with pytest.raises(ValueError):
        partition_items([1], 0)


def test_assign_shards_clamps_to_spec_count():
    specs = ping_specs()
    groups = assign_shards(specs, 8)
    assert len(groups) == 2
    assert sorted(s.shard_id for g in groups for s in g) == ["A", "B"]


# ----------------------------------------------------------------------
# boundary adapters
# ----------------------------------------------------------------------

def test_boundary_requires_positive_latency():
    with pytest.raises(SimulationError):
        BoundaryLink("10.0.0.1", "10.0.0.2", "B", 0.0)


def test_boundary_attach_requires_local_endpoint():
    engine = Engine()
    network = Network(engine)
    boundary = ShardBoundary(
        "A", [BoundaryLink("10.0.0.1", "10.0.0.2", "B", LATENCY)]
    )
    with pytest.raises(SimulationError):
        boundary.attach(network)


def test_boundary_export_captures_at_send_time_with_path_delay():
    engine = Engine()
    network = Network(engine)
    host = network.add_host("h", "10.0.0.1")
    boundary = ShardBoundary(
        "A", [BoundaryLink("10.0.0.1", "10.0.0.2", "B", LATENCY)]
    )
    boundary.attach(network)
    engine.advance(1.0)
    host.send(Packet("10.0.0.1", "10.0.0.2", "udp", 7, 7, "ping", 100))
    frames = boundary.drain()
    assert list(frames) == ["B"]
    (frame,) = frames["B"]
    assert frame.src_shard == "A"
    assert frame.packet.payload == "ping"
    # arrival = send instant + link latency + serialization of 100 bytes
    assert frame.arrival_time == pytest.approx(1.0 + LATENCY, abs=1e-6)
    assert frame.arrival_time > 1.0 + LATENCY  # serialization is charged
    assert boundary.drain() == {}  # drain clears


def test_boundary_inject_merges_deterministically():
    engine = Engine()
    network = Network(engine)
    network.add_host("h", "10.0.0.1")
    sink = ShardBoundary("B", [])
    sink.network = network
    order = []
    network.host_by_address("10.0.0.1").bind(
        "udp", 7, lambda packet: order.append(packet.payload)
    )

    def frame(arrival, src, seq, tag):
        from repro.sim.parallel.boundary import CrossShardFrame

        return CrossShardFrame(
            "B", arrival, src, seq,
            Packet("x", "10.0.0.1", "udp", 7, 7, tag, 10),
        )

    # delivered in (arrival, src_shard, seq) order regardless of batching
    sink.inject(engine, [
        frame(2.0, "C", 1, "late"),
        frame(1.0, "C", 2, "early-c"),
        frame(1.0, "A", 9, "early-a"),
    ])
    engine.run_until_idle()
    assert order == ["early-a", "early-c", "late"]


def test_boundary_drops_frames_for_missing_hosts():
    engine = Engine()
    network = Network(engine)
    network.add_host("h", "10.0.0.1")
    sink = ShardBoundary("B", [])
    sink.network = network
    from repro.sim.parallel.boundary import CrossShardFrame

    sink.inject(engine, [CrossShardFrame(
        "B", 1.0, "A", 1, Packet("x", "10.9.9.9", "udp", 7, 7, "lost", 10)
    )])
    engine.run_until_idle()
    assert network.packets_dropped == 1


# ----------------------------------------------------------------------
# the windowed runner
# ----------------------------------------------------------------------

def test_ping_pong_crosses_shards_at_link_latency():
    result = ParallelRunner(ping_specs(), workers=1).run(2.0)
    a, b = result.shard_results["A"], result.shard_results["B"]
    assert [n for kind, _t, n in a if kind == "tx"] == [0, 2, 4, 6]
    assert [n for kind, _t, n in b if kind == "rx"] == [0, 2, 4, 6]
    # every hop costs one link latency
    assert b[0][1] == pytest.approx(0.5 + LATENCY, abs=1e-4)
    assert a[1][1] == pytest.approx(0.5 + 2 * LATENCY, abs=1e-4)


def test_lookahead_and_window_count():
    runner = ParallelRunner(ping_specs(), workers=1)
    assert runner.lookahead == LATENCY
    result = runner.run(1.0)
    # Adaptive windows: the fixed protocol would need ~100 barriers
    # (1.0s / 0.01s lookahead); the adaptive horizon only narrows while
    # the ping-pong is in flight and leaps over the quiet lead-in
    # (nothing before 0.5s) and the quiet tail after the exchange.
    assert 2 <= result.windows < 30
    assert result.window_edges[0] == 0.0
    assert result.window_edges[-1] == pytest.approx(1.0)
    widths = result.window_widths()
    assert sum(widths) == pytest.approx(1.0)
    # the lead-in is one wide window ending at first-send + lookahead
    assert result.window_edges[1] == pytest.approx(0.5 + LATENCY, abs=1e-9)
    wide_count, wide_span = result.wide_windows()
    assert wide_count >= 2  # the lead-in and the tail, at least
    assert wide_span > 0.9  # quiet time dominates this scenario


def test_adaptive_windows_fall_back_to_lookahead_under_traffic():
    # while the exchange is in flight, consecutive barriers are one
    # lookahead (plus the serialization sliver) apart — the
    # conservative fallback under traffic
    result = ParallelRunner(ping_specs(), workers=1).run(1.0)
    narrow = [w for w in result.window_widths() if w <= LATENCY * 1.5]
    assert len(narrow) >= 4  # several hops synchronized at ~width L


def test_closed_shards_run_in_a_single_window():
    spec = ShardSpec("solo", build_ping, {"addr": "10.0.0.1", "peer": "10.0.0.9"})
    runner = ParallelRunner([spec], workers=1)
    assert runner.lookahead is None
    result = runner.run(5.0)
    assert result.windows == 1


def test_runner_validates_specs():
    with pytest.raises(SimulationError):
        ParallelRunner([], workers=1)
    dup = [ping_specs()[0], ping_specs()[0]]
    with pytest.raises(SimulationError):
        ParallelRunner(dup, workers=1)
    dangling = ShardSpec(
        "A", build_ping, {"addr": "10.0.0.1", "peer": "10.0.0.2"},
        links=[BoundaryLink("10.0.0.1", "10.0.0.2", "nowhere", LATENCY)],
    )
    with pytest.raises(SimulationError):
        ParallelRunner([dangling], workers=1)


def test_builder_string_resolution_rejects_bad_spec():
    from repro.sim.parallel.runtime import _resolve_builder

    assert _resolve_builder("repro.workloads.fleet:build_fleet_site")
    with pytest.raises(SimulationError):
        _resolve_builder("no-colon-here")


def test_result_accounting_and_projection():
    result = ParallelRunner(ping_specs(), workers=1).run(1.0)
    assert result.executed > 0
    assert set(result.busy) == {"A", "B"}
    assert len(result.window_edges) == result.windows + 1
    total_busy = sum(result.busy.values())
    # projection at 1 worker is the full busy sum; at 2 it can only shrink
    assert result.projected_wall(1) == pytest.approx(total_busy, rel=1e-6)
    assert result.projected_wall(2) <= total_busy + 1e-9
    # projections exist only for the requested worker counts
    with pytest.raises(SimulationError, match="no projection"):
        result.projected_wall(7)
    # the timing split is recorded and self-consistent
    assert result.timing["compute_s"] == pytest.approx(total_busy, rel=1e-6)
    assert result.timing["wall_s"] == result.wall
    for key in ("serialize_s", "barrier_send_s", "barrier_wait_s"):
        assert result.timing[key] >= 0.0
    # in-process transport never pickles: frames counted, zero blob
    # bytes — and the explicit marker says the zero means "no pickling
    # happened", not "pickling was free"
    assert result.transport["frames"] > 0
    assert result.transport["bytes"] == 0
    assert result.transport["in_process"] is True
    assert result.timing["serialize_s"] == 0.0


def test_process_mode_matches_local_mode():
    local = ParallelRunner(ping_specs(), workers=1).run(1.0)
    spawned = ParallelRunner(ping_specs(), workers=2).run(1.0)
    assert spawned.workers == 2
    assert local.shard_results == spawned.shard_results
    assert spawned.transport["in_process"] is False
    assert spawned.transport["bytes"] > 0


class FancyPacket(Packet):
    """A ``Packet`` subclass; module-level so pickle finds it by name."""

    __slots__ = ()


class OddPacketProgram(PingProgram):
    """Ping-pong whose packets are not the plain IPv4 ``Packet`` of
    ``PingProgram``: the ``variant`` param picks what is odd."""

    def __init__(self, shard_id, params, boundary):
        self.variant = params["variant"]
        super().__init__(shard_id, params, boundary)

    def _send(self, n):
        self.log.append(("tx", round(self.engine.now, 6), n))
        cls = FancyPacket if self.variant == "subclass" else Packet
        payload = n
        if self.variant == "object-payload":
            payload = {"n": n, "route": ("10.0.0.0/8", [65001, 65002])}
        self.host.send(cls(self.host.address, self.peer, "udp", 7, 7,
                           payload, 100))

    def _on_packet(self, packet):
        payload = packet.payload
        self.log.append(("rx", round(self.engine.now, 6),
                         type(packet).__name__, packet.src, packet.dst,
                         payload, packet.size))
        n = payload["n"] if isinstance(payload, dict) else payload
        if n < self.limit:
            self._send(n + 1)


def build_odd_packet(shard_id, params, boundary):
    return OddPacketProgram(shard_id, params, boundary)


def odd_packet_specs(variant):
    a, b = ("fe80::1", "fe80::2") if variant == "ipv6" else (
        "10.0.0.1", "10.0.0.2")
    return [
        ShardSpec(
            "A", build_odd_packet,
            {"addr": a, "peer": b, "starts": True, "variant": variant},
            links=[BoundaryLink(a, b, "B", LATENCY)],
        ),
        ShardSpec(
            "B", build_odd_packet,
            {"addr": b, "peer": a, "variant": variant},
            links=[BoundaryLink(b, a, "A", LATENCY)],
        ),
    ]


@pytest.mark.parametrize("variant", ["subclass", "ipv6", "object-payload"])
def test_odd_packets_cross_process_shards_unchanged(variant):
    # a Packet subclass, a non-IPv4 address and a non-bytes payload all
    # ride the pickled barrier blobs; the receiving shard must see what
    # the in-process run (frames passed by reference) sees
    local = ParallelRunner(odd_packet_specs(variant), workers=1).run(1.0)
    spawned = ParallelRunner(odd_packet_specs(variant), workers=2).run(1.0)
    assert spawned.transport["bytes"] > 0
    assert spawned.shard_results == local.shard_results
    received = [e for e in spawned.shard_results["B"] if e[0] == "rx"]
    assert len(received) == 4
    _rx, _t, kind, src, dst, payload, size = received[0]
    assert kind == ("FancyPacket" if variant == "subclass" else "Packet")
    assert (src, dst) == (("fe80::1", "fe80::2") if variant == "ipv6"
                          else ("10.0.0.1", "10.0.0.2"))
    assert payload == ({"n": 0, "route": ("10.0.0.0/8", [65001, 65002])}
                       if variant == "object-payload" else 0)
    assert size == 100


def test_local_mode_propagates_builder_errors():
    def boom(shard_id, params, boundary):
        raise RuntimeError("builder exploded")

    with pytest.raises(RuntimeError, match="builder exploded"):
        ParallelRunner(
            [ShardSpec("X", boom, {})], workers=1
        ).run(1.0)


def test_process_mode_propagates_worker_errors():
    # a builder string that fails to resolve inside the spawned worker
    # must surface in the parent as a RuntimeError with the traceback
    spec = ShardSpec("X", "repro.sim.parallel.runtime:no_such_builder")
    with pytest.raises(RuntimeError, match="no_such_builder"):
        ParallelRunner([spec], workers=2).run(1.0)


# ----------------------------------------------------------------------
# worker lifecycle: crashes mid-window, silent deaths, stragglers
# ----------------------------------------------------------------------

class MidWindowCrashProgram:
    """Runs fine through build, then detonates inside a window."""

    def __init__(self, shard_id, params, boundary):
        self.engine = Engine()
        self.network = Network(self.engine)
        self.network.add_host(f"h-{shard_id}", params["addr"])
        boundary.attach(self.network)
        self.engine.schedule(0.5, self._boom)

    def _boom(self):
        raise ValueError("kaboom mid-window")

    def results(self):
        return ()


def build_mid_window_crash(shard_id, params, boundary):
    return MidWindowCrashProgram(shard_id, params, boundary)


def crash_pair_specs():
    return [
        ShardSpec(
            "A", build_mid_window_crash, {"addr": "10.0.0.1"},
            links=[BoundaryLink("10.0.0.1", "10.0.0.2", "B", LATENCY)],
        ),
        ShardSpec(
            "B", build_ping, {"addr": "10.0.0.2", "peer": "10.0.0.1"},
            links=[BoundaryLink("10.0.0.2", "10.0.0.1", "A", LATENCY)],
        ),
    ]


def test_worker_crash_mid_window_surfaces_traceback_without_hanging():
    # the worker catches the exception inside its window loop and ships
    # the traceback; the coordinator re-raises promptly (no deadlock on
    # the barrier) and the finally-path closes every worker
    with pytest.raises(RuntimeError, match="kaboom mid-window"):
        ParallelRunner(crash_pair_specs(), workers=2).run(2.0)


def build_exit_hard(shard_id, params, boundary):
    import os

    os._exit(3)


def test_worker_dying_without_traceback_raises_runtime_error():
    # a worker that dies outright (no error message, pipe just closes)
    # must surface as RuntimeError, not EOFError or a hang
    spec = ShardSpec("X", build_exit_hard)
    with pytest.raises(RuntimeError, match="died without"):
        ParallelRunner([spec], workers=2).run(1.0)


def build_sleepy(shard_id, params, boundary):
    import time as _time

    _time.sleep(60)


def test_close_terminates_stragglers_via_timeout_path():
    import multiprocessing
    import time as _time

    from repro.sim.parallel.runtime import _ProcessWorker

    context = multiprocessing.get_context("spawn")
    worker = _ProcessWorker(
        [ShardSpec("X", build_sleepy)], context, join_timeout=0.5
    )
    try:
        assert worker.process.is_alive()
        start = _time.perf_counter()
        worker.close()  # "stop" goes unread; join times out; terminate
        elapsed = _time.perf_counter() - start
    finally:
        if worker.process.is_alive():  # belt and braces on test failure
            worker.process.kill()
    assert not worker.process.is_alive()
    assert elapsed < 30  # nowhere near the 60s the worker wanted


# ----------------------------------------------------------------------
# adaptive lookahead: the conservative contract is verified at runtime
# ----------------------------------------------------------------------

class LyingEotProgram(PingProgram):
    """Claims its boundary is quiet forever, then sends anyway."""

    def next_outbound_time(self):
        return 1e9


def build_lying_eot(shard_id, params, boundary):
    return LyingEotProgram(shard_id, params, boundary)


def test_underreported_next_outbound_time_fails_loudly():
    specs = [
        ShardSpec(
            "A", build_lying_eot,
            {"addr": "10.0.0.1", "peer": "10.0.0.2", "starts": True},
            links=[BoundaryLink("10.0.0.1", "10.0.0.2", "B", LATENCY)],
        ),
        ShardSpec(
            "B", build_ping, {"addr": "10.0.0.2", "peer": "10.0.0.1"},
            links=[BoundaryLink("10.0.0.2", "10.0.0.1", "A", LATENCY)],
        ),
    ]
    with pytest.raises(SimulationError, match="under-reported"):
        ParallelRunner(specs, workers=1).run(2.0)
