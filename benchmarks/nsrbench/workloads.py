"""The five workloads, driven through ``src/repro``'s public entry points.

Each workload is a class with three steps.  ``__init__(seed, smoke)``
makes the inputs from the seed and builds what set-up may build.
``run()`` is the timed region.  ``check()`` verifies the outputs and
returns an :class:`Outcome`.  Every workload is closed-loop and single
process; its inputs, and so its virtual clock, are a function of the
seed alone.

README.md says why each workload is here and what it is sized to.
"""

import hashlib
import random
import resource
import time

from repro.bgp.aggregation import expand_snapshot_entries
from repro.core.replication import ReplicationPipeline
from repro.core.system import PeerNeighborSpec, TensorSystem
from repro.failures.chaos import generate_schedule, run_schedule
from repro.sim.calibration import PEERING_LINK_LATENCY
from repro.sim.parallel.runtime import ParallelRunner
from repro.sim.rand import DeterministicRandom
from repro.workloads.fleet import (
    BORDER_AT, CHURN_AT, FleetSiteProgram, fleet_site_specs)
from repro.workloads.fulltable import FullTableWorkload
from repro.workloads.topology import build_remote_peer
from repro.workloads.updates import RouteGenerator


class Outcome:
    """What one run of a workload produced, and whether it was right."""

    def __init__(self):
        self.work = 0.0            # application work done (unit per workload)
        self.virtual_s = 0.0       # the workload's virtual-clock duration
        self.events = 0            # engine events fired in the timed region
        self.attempted = 0         # operations checked
        self.failures = []         # one line per failed operation
        self.digest = ""           # hash of the outputs: same seed, same hash
        self.counters = {}         # counts known from public results
        self.phases = {}           # host seconds of named phases

    def expect(self, ok, what, count=1):
        """``count`` operations were attempted; all failed unless ``ok``."""
        self.attempted += count
        if not ok:
            self.failures.append(what)

    def expect_none(self, failed, attempted, what):
        """``failed`` of ``attempted`` operations went wrong."""
        self.attempted += attempted
        self.failures.extend([what] * failed)


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# 1. fleet_steady
# ---------------------------------------------------------------------------

class _Site(FleetSiteProgram):
    """A fleet site that also reports what the checks below need."""

    def results(self):
        out = super().results()
        out["pair_sessions"] = sum(
            pair.established_session_count()
            for pair in self.system.pairs.values())
        out["remote_sessions"] = sum(
            1 for _remote, session in self.remotes if session.established)
        out["wan_converged_at"] = self.border.last_apply_time
        return out


def build_site(shard_id, params, boundary):
    """ShardSpec builder (``nsrbench.workloads:build_site``)."""
    return _Site(shard_id, params, boundary)


class FleetSteady:
    """Sites of NSR pairs on a WAN ring, run for 25 virtual seconds."""

    work_unit = "container_virtual_s"
    DURATION = 25.0
    ROUTES, BORDER_ROUTES = 40, 20
    CHURN_TICKS, CHURN_INTERVAL = 3, 5.0

    def __init__(self, seed, smoke=False):
        self.sites, self.pairs = (2, 2) if smoke else (4, 7)
        self.specs = fleet_site_specs(
            self.sites, pairs=self.pairs, routes=self.ROUTES,
            border_routes=self.BORDER_ROUTES, churn_ticks=self.CHURN_TICKS,
            churn_interval=self.CHURN_INTERVAL, seed=seed)
        for spec in self.specs:
            spec.builder = "nsrbench.workloads:build_site"

    def run(self):
        # The shards are built inside run(), so nothing hides in set-up.
        self.result = ParallelRunner(self.specs, workers=1).run(self.DURATION)

    def check(self):
        out = Outcome()
        result = self.result
        shards = result.shard_results
        containers = sum(shard["containers"] for shard in shards.values())
        out.work = containers * self.DURATION
        out.events = result.executed
        out.counters["sim.parallel.windows"] = result.windows
        ring = min(2, self.sites - 1)
        # churn ticks alternate advertise and withdraw of one block: an
        # odd number of them inside the run leaves the block advertised
        ticks = min(self.CHURN_TICKS,
                    int((self.DURATION - CHURN_AT) // self.CHURN_INTERVAL) + 1)
        churned = max(1, self.ROUTES // 4) if ticks % 2 else 0
        converged = []
        for name, shard in sorted(shards.items()):
            out.expect_none(self.pairs - shard["pair_sessions"], self.pairs,
                            f"{name}: a pair session is not established")
            out.expect_none(self.pairs - shard["remote_sessions"], self.pairs,
                            f"{name}: a remote session is not established")
            out.expect(shard["border_established"] == ring,
                       f"{name}: {shard['border_established']} of {ring}"
                       " border sessions established")
            wan = self.sites * self.BORDER_ROUTES
            out.expect_none(wan - len(shard["border_rib"]), wan,
                            f"{name}: a WAN prefix is missing")
            for key, entries in sorted(shard["rib"].items()):
                expected = self.ROUTES + churned
                out.expect_none(abs(expected - len(entries)), expected,
                                f"{name} {key}: Loc-RIB route count is off")
            if shard["wan_converged_at"] is not None:
                converged.append(shard["wan_converged_at"] - BORDER_AT)
        out.expect(len(converged) == self.sites,
                   "a border router never applied a WAN route")
        # mean time from border start to the last WAN route applied
        out.virtual_s = sum(converged) / max(1, len(converged))
        out.digest = _digest(sorted(shards.items()))
        return out


# ---------------------------------------------------------------------------
# 2 and 3. update_recv_packed / update_recv_small
# ---------------------------------------------------------------------------

class NsrPairLab:
    """One NSR pair and one remote AS, with the session brought up."""

    DRAIN = 3.0
    LIMIT = 300.0  # virtual seconds before a receive counts as stuck

    def __init__(self, seed):
        self.system = system = TensorSystem(seed=seed)
        m1 = system.add_machine("gw-1", "10.1.0.1")
        m2 = system.add_machine("gw-2", "10.2.0.1")
        self.pair = system.create_pair(
            "pair0", m1, m2, service_addr="10.10.0.1", local_as=65001,
            router_id="10.10.0.1",
            neighbors=[PeerNeighborSpec("192.0.2.1", 64512, vrf_name="v0",
                                        mode="passive")],
        )
        self.remote = build_remote_peer(system, "remote0", "192.0.2.1", 64512,
                                        link_machines=[m1, m2])
        # The simulator draws nothing from its seed on this path, so the
        # seed sets the peering link's latency, within 0.1%: the virtual
        # clock then differs from seed to seed, by parts per million.
        latency = PEERING_LINK_LATENCY * (1 + random.Random(seed).random() * 1e-3)
        for machine in (m1, m2):
            self.remote.link_to(machine.host, latency=latency)
        self.session = self.remote.peer_with("10.10.0.1", 65001,
                                             vrf_name="v0", mode="active")
        self.pair.start()
        self.remote.start()
        system.run(10.0)
        self.events = 0
        self.virtual_s = None

    def receive(self, routes):
        """The remote originates ``routes``; run until the gateway has
        applied them all and holds no ACK, then drain.

        The engine is advanced one event time at a time, so the virtual
        duration is exact, not rounded up to a polling step."""
        engine = self.system.engine
        speaker = self.pair.speaker
        loc_rib = speaker.vrfs["v0"].loc_rib
        tcp_queue = speaker.tcp_queue
        self.remote.speaker.originate_many("v0", routes)
        started = engine.now
        self.remote.speaker.readvertise(self.session)
        while len(loc_rib) < len(routes) or tcp_queue.held_count():
            upcoming = engine.next_event_time()
            if upcoming is None or upcoming - started > self.LIMIT:
                break
            self.events += engine.run(until=upcoming)
        else:
            self.virtual_s = engine.now - started
        self.events += engine.advance(self.DRAIN)

    def check(self, out, routes, label):
        speaker = self.pair.speaker
        loc_rib = speaker.vrfs["v0"].loc_rib
        out.expect(self.virtual_s is not None,
                   f"{label}: not applied and ACK-released within"
                   f" {self.LIMIT:.0f} virtual s")
        missing = sum(1 for prefix, _attrs in routes
                      if loc_rib.best(prefix) is None)
        out.expect_none(missing, len(routes),
                        f"{label}: a route is missing from the gateway Loc-RIB")
        out.expect(speaker.tcp_queue.held_count() == 0,
                   f"{label}: ACKs still held after the drain")
        out.expect(self.session.established
                   and self.pair.established_session_count() == 1,
                   f"{label}: the session did not survive")
        out.expect(speaker.duplicate_applies == 0,
                   f"{label}: a message was applied twice")


class UpdateRecv:
    """Remote ASes readvertise tables to NSR pairs over the full path."""

    work_unit = "routes"

    def __init__(self, seed, tables):
        self.tables = tables
        self.labs = [NsrPairLab(seed * 64 + index)
                     for index in range(len(tables))]

    def run(self):
        for lab, table in zip(self.labs, self.tables):
            lab.receive(table)

    def check(self):
        out = Outcome()
        digests = []
        for index, (lab, table) in enumerate(zip(self.labs, self.tables)):
            lab.check(out, table, f"pair {index}")
            out.work += len(table)
            out.events += lab.events
            out.virtual_s += lab.virtual_s or 0.0
            digests.append(lab.system.rib_digest())
        out.digest = _digest(digests)
        return out


def _generator(seed, attr_pool):
    return RouteGenerator(DeterministicRandom(seed), 64512,
                          next_hop="192.0.2.1", attr_pool_size=attr_pool)


class UpdateRecvPacked(UpdateRecv):
    """64 attribute sets, so UPDATEs packed full (~700 routes each):
    per-route cost dominates."""

    def __init__(self, seed, smoke=False):
        routes = 9_000 if smoke else 90_000
        super().__init__(seed, [_generator(seed, 64).routes(routes)])


class UpdateRecvSmall(UpdateRecv):
    """One route per UPDATE: per-message cost dominates."""

    POOL_SEED = 7

    def __init__(self, seed, smoke=False):
        # 1,500 per pair, not more: see README.md (the compaction storm
        # that starts at 1,024 deltas flaps the session near 2,000).
        routes = 1_100 if smoke else 1_500
        tables = []
        for index in range(1 if smoke else 2):
            # As many attribute sets as routes, so nothing packs.  The
            # sets are the same for every seed; the seed deals them to
            # the prefixes.  With the sets themselves drawn from the
            # seed, the storm's length, and the virtual clock with it,
            # swings by 2.5% from seed to seed.
            table = _generator(self.POOL_SEED + index, routes).routes(
                routes, base=f"{10 + (seed + index) % 100}.0.0.0")
            attrs = [attributes for _prefix, attributes in table]
            random.Random(seed * 64 + index).shuffle(attrs)
            tables.append([(prefix, attributes) for (prefix, _), attributes
                           in zip(table, attrs)])
        super().__init__(seed, tables)


# ---------------------------------------------------------------------------
# 4. fulltable_rib
# ---------------------------------------------------------------------------

class MemoryKv:
    """In-memory stand-in for ``KvClient``: the compaction phases measure
    encode and collapse cost, not the simulated transport."""

    def __init__(self):
        self.store = {}

    def mset(self, items, on_done=None, on_error=None):
        self.store.update(items)
        if on_done is not None:
            on_done()

    def delete(self, keys, on_done=None, on_error=None):
        removed = sum(self.store.pop(key, None) is not None for key in keys)
        if on_done is not None:
            on_done(removed)


class FullTableRib:
    """A DFZ-shaped table through the Loc-RIB and snapshot compaction,
    with no engine in the timed region."""

    work_unit = "routes"
    TABLE_SEED = 11
    INCREMENTAL_OPS = 3_000
    LOOKUPS = 10_000
    SLICE = 2_000  # table routes replayed through an NSR pair for virtual_s

    def __init__(self, seed, smoke=False):
        # The table is one fixed layout (only its attribute pool has a
        # seed at all).  The benchmark's seed picks the churn sequences
        # and the prefixes looked up.
        self.seed = seed
        self.size = 8_000 if smoke else 80_000
        self.incremental_ops = self.INCREMENTAL_OPS // (10 if smoke else 1)
        self.workload = FullTableWorkload(seed=self.TABLE_SEED, size=self.size)
        self.kv = MemoryKv()
        self.pipeline = ReplicationPipeline("bench", self.kv, self.kv,
                                            aggregate_snapshots=True)
        self.phases = {}
        self.rss = {}

    def run(self):
        clock = time.perf_counter
        workload, pipeline = self.workload, self.pipeline
        marks = [clock()]
        self.rss["before"] = _rss_bytes()
        self.rib = rib = workload.build()
        self.built = len(rib)
        self.rss["after"] = _rss_bytes()
        marks.append(clock())
        workload.churn(rib, self.size, seed=2 * self.seed + 1)
        marks.append(clock())
        pipeline.compact("v", rib)
        marks.append(clock())
        workload.churn(rib, self.incremental_ops, seed=2 * self.seed + 2)
        pipeline.compact("v", rib)
        marks.append(clock())
        names = ("bgp.rib.load_s", "bgp.rib.churn_s",
                 "core.replication.full_compact_s",
                 "core.replication.incr_compact_s")
        self.phases = {name: marks[i + 1] - marks[i]
                       for i, name in enumerate(names)}

    def check(self):
        out = Outcome()
        workload, rib = self.workload, self.rib
        out.work = float(self.built)
        out.phases = dict(self.phases)
        out.counters["bgp.rib.bytes_per_route"] = (
            (self.rss["after"] - self.rss["before"]) / max(1, self.built))
        out.expect_none(abs(workload.total - self.built), workload.total,
                        "build: route count differs from the table")
        out.expect_none(abs(workload.total - len(rib)), workload.total,
                        "churn: route count differs from the table")
        rng = random.Random(self.seed)
        wrong = 0
        for _ in range(self.LOOKUPS):
            prefix = workload.prefix_at(rng.randrange(workload.total))
            best = rib.lookup(prefix)
            wrong += best is None or best.prefix != prefix
        out.expect_none(wrong, self.LOOKUPS, "lookup: wrong route for a prefix")
        marker = self.kv.store["tensor:bench:rib:v:marker"]
        snapshot = []
        for chunk in range(marker["chunks"]):
            snapshot.extend(expand_snapshot_entries(
                self.kv.store[f"tensor:bench:rib:v:s:{chunk:08d}"]))
        live = sorted(rib.export_entries(), key=_entry_order)
        out.expect(sorted(snapshot, key=_entry_order) == live,
                   "snapshot: re-import differs from the live RIB",
                   count=len(live))
        out.digest = _digest([(e["prefix"], str(e["peer_id"]),
                               bytes(e["attributes"])) for e in live])
        # The timed region has no virtual clock.  A slice of the same
        # table through a real NSR pair gives this workload one.
        stride = max(1, self.size // self.SLICE)
        table = [(workload.prefix_at(i), workload.attrs_at(i))
                 for i in range(0, self.size, stride)]
        lab = NsrPairLab(self.seed)
        lab.receive(table)
        lab.check(out, table, "table slice")
        out.virtual_s = lab.virtual_s or 0.0
        return out


def _entry_order(entry):
    return entry["prefix"], str(entry["peer_id"])


def _rss_bytes():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * resource.getpagesize()


# ---------------------------------------------------------------------------
# 5. failover_chaos
# ---------------------------------------------------------------------------

class FailoverChaos:
    """The controller-chaos and KV-failover corpus schedules."""

    work_unit = "virtual_s"
    # Five of the nine tier-1 corpus schedules, which between them hold
    # every controller-plane event kind, both lying modes and two KV
    # failovers; all nine would leave time for one run, not three.
    CONTROLLER_SEEDS = (14, 15, 17)
    DB_FAILOVER_SEEDS = (11, 12)

    def __init__(self, seed, smoke=False):
        # The failure schedules are the corpus's.  The seed moves every
        # event by under a millisecond against the probe and heartbeat
        # timers, and picks the routes the workload bursts carry.
        shift = random.Random(seed).random() * 1e-3
        plans = [(s, {"controller_chaos": True}) for s in self.CONTROLLER_SEEDS]
        plans += [(s, {"db_failover": True}) for s in self.DB_FAILOVER_SEEDS]
        if smoke:
            plans = plans[:1]
        self.schedules = []
        for corpus_seed, flags in plans:
            schedule = generate_schedule(corpus_seed, **flags)
            schedule.seed = corpus_seed + 1000 * seed
            for event in schedule.injections + schedule.workload:
                event["at"] += shift
            self.schedules.append(schedule)

    def run(self):
        self.results = [run_schedule(schedule) for schedule in self.schedules]

    def check(self):
        out = Outcome()
        verdicts = []
        for result in self.results:
            label = f"schedule {result.schedule.seed % 1000}"
            out.work += result.system.engine.now
            out.events += result.events_executed
            out.expect(not result.partial, f"{label}: partial run")
            out.expect_none(len(result.violations),
                            max(1, len(result.suite.verdict_bitmap())),
                            f"{label}: oracle violation")
            records = result.system.controller.records
            for record in records:
                done = record.complete and not record.abandoned
                out.expect(done, f"{label}: {record!r} did not complete")
                if done and record.total_time is not None:
                    # failure -> recovered: Table 1's total
                    out.virtual_s += record.total_time
            verdicts.append((result.suite.verdict_bitmap(),
                             [record.as_row() for record in records],
                             result.system.rib_digest()))
        out.counters["control.recoveries"] = sum(
            len(result.system.controller.records) for result in self.results)
        out.digest = _digest(verdicts)
        return out


WORKLOADS = {
    "fleet_steady": FleetSteady,
    "update_recv_packed": UpdateRecvPacked,
    "update_recv_small": UpdateRecvSmall,
    "fulltable_rib": FullTableRib,
    "failover_chaos": FailoverChaos,
}
