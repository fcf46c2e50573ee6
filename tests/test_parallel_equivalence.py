"""Seeded equivalence: sharded parallel execution is bit-identical.

The conservative runtime's core guarantee (DESIGN.md §11): for a fixed
scenario and seed, ``workers=1`` and ``workers=4`` produce identical
Loc-RIB contents, chaos oracle verdicts, and trace phase summaries —
sharding changes wall-clock, never results.  These tests pin that
guarantee on the two shard programs the repo ships: the container-fleet
workload (cross-shard BGP ring) and the chaos corpus (closed shards).
"""

import functools
import math

import pytest

from repro.failures.chaos import (
    chaos_corpus_horizon,
    chaos_corpus_specs,
    generate_schedule,
    run_schedule,
)
from repro.sim import Engine, Network
from repro.sim.network import Packet
from repro.sim.parallel import BoundaryLink, ParallelRunner, ShardSpec
from repro.workloads.fleet import fleet_site_specs

pytestmark = pytest.mark.slow

FLEET_KW = dict(pairs=2, routes=20, border_routes=10, seed=3,
                churn_ticks=2, churn_interval=2.0, tracing=True)
FLEET_DURATION = 22.0
CHAOS_SEEDS = (0, 1, 2)


@functools.lru_cache(maxsize=None)
def fleet_run(workers):
    specs = fleet_site_specs(2, **FLEET_KW)
    return ParallelRunner(specs, workers=workers).run(FLEET_DURATION)


@functools.lru_cache(maxsize=None)
def chaos_run(workers):
    specs = chaos_corpus_specs(CHAOS_SEEDS)
    return ParallelRunner(specs, workers=workers).run(
        chaos_corpus_horizon(CHAOS_SEEDS)
    )


DB_FAILOVER_SEEDS = (10, 11, 12)


@functools.lru_cache(maxsize=None)
def db_failover_run(workers):
    specs = chaos_corpus_specs(DB_FAILOVER_SEEDS, db_failover=True)
    return ParallelRunner(specs, workers=workers).run(
        chaos_corpus_horizon(DB_FAILOVER_SEEDS, db_failover=True)
    )


# ----------------------------------------------------------------------
# fleet workload: traced, cross-shard BGP ring
# ----------------------------------------------------------------------

def test_fleet_sharded_run_is_bit_identical_across_worker_counts():
    sequential, two, four = fleet_run(1), fleet_run(2), fleet_run(4)
    assert sequential.shard_results == two.shard_results
    assert sequential.shard_results == four.shard_results
    # same virtual execution: identical event counts, barrier count, and
    # the exact adaptive window sequence (the horizon is a pure function
    # of shard state, never of worker placement)
    for sharded in (two, four):
        assert sequential.executed == sharded.executed
        assert sequential.windows == sharded.windows
        assert sequential.window_edges == sharded.window_edges


def test_fleet_run_exercises_the_cross_shard_ring():
    result = fleet_run(1)
    for site_result in result.shard_results.values():
        # WAN sessions established over boundary links and routes learned
        assert site_result["border_established"] >= 1
        assert len(site_result["border_rib"]) > FLEET_KW["border_routes"]
        # per-pair Loc-RIBs converged and non-trivial
        assert site_result["rib"]
        assert all(site_result["rib"].values())


def test_fleet_trace_phase_summaries_match_across_worker_counts():
    sequential, sharded = fleet_run(1), fleet_run(4)
    for site in sequential.shard_results:
        summary = sequential.shard_results[site]["phase_summary"]
        assert summary  # tracing was on and captured phases
        assert summary == sharded.shard_results[site]["phase_summary"]


# ----------------------------------------------------------------------
# chaos corpus: closed shards, oracle verdicts
# ----------------------------------------------------------------------

def test_chaos_corpus_verdicts_identical_across_worker_counts():
    sequential, two, four = chaos_run(1), chaos_run(2), chaos_run(4)
    assert sequential.shard_results == two.shard_results
    assert sequential.shard_results == four.shard_results
    for seed in CHAOS_SEEDS:
        verdict = sequential.shard_results[f"chaos{seed}"]["verdict"]
        assert verdict == "all oracles passed"


def test_db_failover_chaos_identical_across_worker_counts():
    """The automatic-failover machinery (monitor pings, promotion,
    client repoints, retry backoff) is all virtual-time events; sharding
    must not perturb any of it — verdicts and RIBs stay bit-identical
    and every seed fails over exactly once, cleanly."""
    sequential, sharded = db_failover_run(1), db_failover_run(4)
    assert sequential.shard_results == sharded.shard_results
    for seed in DB_FAILOVER_SEEDS:
        verdict = sequential.shard_results[f"chaos{seed}"]["verdict"]
        assert verdict == "all oracles passed"


# ----------------------------------------------------------------------
# quiet/bursty scenario: adaptive windows widen in gaps, narrow in bursts
# ----------------------------------------------------------------------

BURST_DURATION = 16.0
BURST_LOOKAHEAD = 0.01


class BurstProgram:
    """Alternating quiet/bursty shard for the adaptive-window contract.

    Cross-shard traffic happens in short scoped bursts separated by long
    quiet gaps, while dense *unscoped* local tick noise runs throughout —
    exactly the shape the scoped ``next_outbound_time()`` bound exists
    for: the noise must not narrow the windows, the bursts must.
    """

    SCOPE = "burst"

    def __init__(self, shard_id, params, boundary):
        self.engine = Engine()
        self.network = Network(self.engine)
        self.host = self.network.add_host(f"h-{shard_id}", params["addr"])
        self.peer = params["peer"]
        self.log = []
        self.ticks = 0
        self.host.bind("udp", 9, self._on_packet)
        boundary.inject_scope = self.SCOPE
        boundary.attach(self.network)
        # dense local noise, outside the scope (5 ms cadence, half the
        # lookahead): invisible to next_outbound_time() by design
        self.engine.schedule(0.005, self._tick)
        with self.engine.scoped(self.SCOPE):
            for start in params.get("bursts", ()):
                self.engine.schedule(start, self._burst, 0)

    def _tick(self):
        self.ticks += 1
        if self.engine.now < BURST_DURATION - 0.01:
            self.engine.schedule(0.005, self._tick)

    def _burst(self, n):
        self.log.append(("tx", round(self.engine.now, 6), n))
        self.host.send(
            Packet(self.host.address, self.peer, "udp", 9, 9, n, 100)
        )
        if n + 1 < 5:
            # fires under the burst scope (ambient propagation), so the
            # rest of the burst stays visible to the lookahead bound
            self.engine.schedule(0.003, self._burst, n + 1)

    def _on_packet(self, packet):
        self.log.append(("rx", round(self.engine.now, 6), packet.payload))

    def next_outbound_time(self):
        return self.engine.next_event_time(self.SCOPE)

    def results(self):
        return {"log": tuple(self.log), "ticks": self.ticks}


def build_burst(shard_id, params, boundary):
    return BurstProgram(shard_id, params, boundary)


def burst_specs():
    return [
        ShardSpec(
            "A", build_burst,
            {"addr": "10.0.0.1", "peer": "10.0.0.2", "bursts": (2.0, 12.0)},
            links=[BoundaryLink("10.0.0.1", "10.0.0.2", "B", BURST_LOOKAHEAD)],
        ),
        ShardSpec(
            "B", build_burst,
            {"addr": "10.0.0.2", "peer": "10.0.0.1", "bursts": (7.0,)},
            links=[BoundaryLink("10.0.0.2", "10.0.0.1", "A", BURST_LOOKAHEAD)],
        ),
    ]


@functools.lru_cache(maxsize=None)
def burst_run(workers):
    return ParallelRunner(burst_specs(), workers=workers).run(BURST_DURATION)


def test_burst_scenario_bit_identical_across_worker_counts():
    one, two, four = burst_run(1), burst_run(2), burst_run(4)
    assert one.shard_results == two.shard_results
    assert one.shard_results == four.shard_results
    assert one.window_edges == two.window_edges
    assert one.window_edges == four.window_edges
    # every burst actually crossed shards in both directions
    for shard in ("A", "B"):
        log = one.shard_results[shard]["log"]
        assert any(entry[0] == "rx" for entry in log)
        assert one.shard_results[shard]["ticks"] > 1000  # noise really ran


def test_burst_scenario_windows_collapse_in_quiet_gaps():
    result = burst_run(1)
    fixed_equiv = math.ceil(BURST_DURATION / BURST_LOOKAHEAD)
    # far below the fixed-lookahead window count despite the dense noise
    assert result.windows * 10 <= fixed_equiv
    # the quiet gaps are covered by a handful of wide windows...
    _wide_count, wide_span = result.wide_windows()
    assert wide_span > BURST_DURATION * 0.6
    # ...while the bursts force windows back down to the lookahead bound
    assert any(
        width <= BURST_LOOKAHEAD * 1.5 for width in result.window_widths()
    )


# ----------------------------------------------------------------------
# fuzz specs as closed shards: coverage keys are worker-count stable
# ----------------------------------------------------------------------

FUZZ_SEEDS = (1, 4)


@functools.lru_cache(maxsize=None)
def fuzz_run(workers):
    from repro.failures.harness import scenario_shard_specs
    from repro.fuzz import generate_fuzz_spec

    specs = [generate_fuzz_spec(seed) for seed in FUZZ_SEEDS]
    horizon = max(spec.duration for spec in specs) + 20.0
    return ParallelRunner(
        scenario_shard_specs(specs, tracing=True), workers=workers
    ).run(horizon)


def test_fuzz_coverage_keys_identical_across_worker_counts():
    """DESIGN.md §13 (S4): the coverage signal is a pure function of
    deterministic run state, so the same spec + seed yields the same
    profile and coverage key under workers=1 and workers=4 — full shard
    results (RIBs, verdicts, phase shapes) included."""
    sequential, sharded = fuzz_run(1), fuzz_run(4)
    assert sequential.shard_results == sharded.shard_results
    for seed in FUZZ_SEEDS:
        shard = sequential.shard_results[f"fuzz{seed}"]
        assert shard["verdict"] == "all oracles passed"
        assert shard["completed"] is True
        assert shard["coverage_key"] == (
            sharded.shard_results[f"fuzz{seed}"]["coverage_key"]
        )


def test_fuzz_shard_matches_plain_run_fuzz_spec():
    from repro.fuzz import (
        coverage_key,
        generate_fuzz_spec,
        run_fuzz_spec,
        run_profile,
    )

    sharded = fuzz_run(1)
    for seed in FUZZ_SEEDS:
        plain = run_fuzz_spec(generate_fuzz_spec(seed), tracing=True)
        shard = sharded.shard_results[f"fuzz{seed}"]
        assert shard["verdict"] == plain.summary()
        assert shard["executed"] == plain.events_executed
        assert shard["rib"] == plain.system.rib_digest()
        assert shard["profile"] == run_profile(plain)
        assert shard["coverage_key"] == coverage_key(run_profile(plain))


def test_chaos_shard_matches_plain_run_schedule():
    # a closed shard under the windowed runner is literally run_schedule:
    # same verdict, same violation list, same event count, same RIBs
    sharded = chaos_run(1)
    for seed in CHAOS_SEEDS:
        plain = run_schedule(generate_schedule(seed))
        shard = sharded.shard_results[f"chaos{seed}"]
        assert shard["verdict"] == plain.summary()
        assert shard["violations"] == tuple(
            (v.time, v.oracle, v.detail) for v in plain.suite.violations
        )
        assert shard["executed"] == plain.events_executed
        assert shard["rib"] == plain.system.rib_digest()
