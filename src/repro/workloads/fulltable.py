"""Internet-scale full-table workload (DESIGN.md §14).

A deterministic synthetic table shaped like a default-free-zone feed:

- an **aggregatable region**: complete blocks of 16 consecutive /24s
  under a /20 root, each block uniform in (peer, attributes) — DRAGON's
  best case, where snapshot aggregation collapses 16 entries into one;
- a **scattered region**: mixed /20../28 prefixes in disjoint /20
  slots, attributes drawn from a shared pool but varying per prefix, so
  aggregation finds little to merge (the realistic remainder);
- **edge cases**: the default route and a band of /32 host routes.

The same object also replays churn — competing-route offers, retracts
and attribute flips against a built table — which is what the full-table
benchmark times for the sub-linear incremental-reselect claim, and can
push a slice of itself through a complete NSR pair (remote AS -> gateway
speaker -> replication pipeline -> KV snapshot) for an end-to-end
measurement on the virtual clock.
"""

from repro.bgp.attributes import PathAttributes
from repro.bgp.prefixes import prefix_key
from repro.bgp.rib import LocRib, Path
from repro.sim.rand import DeterministicRandom
from repro.workloads.updates import RouteGenerator

#: 16 member /24s per aggregatable /20 block.
BLOCK_MEMBER_BITS = 4

#: Aggregatable /24s start here (8.0.0.0); each block owns one /20.
AGG_BASE = 8 << 24

#: Scattered prefixes start here (96.0.0.0); each owns one /20 slot.
SCATTER_BASE = 96 << 24
SCATTER_SLOT = 1 << 12  # /20 slots in units of the low 12 host bits

#: Length cycle for the scattered region (weights favour /24 like a
#: real table; /28 and the host-route band cover the long tail).
SCATTER_LENGTHS = (24, 24, 24, 23, 24, 22, 24, 25, 20, 24, 26, 21, 24, 28)

HOST_ROUTES = 8  # /32s appended to every table

#: Share of the routed prefixes that form complete uniform /20 blocks.
AGGREGATABLE_FRACTION = 0.5
#: The peer the table is learned from, and the one churn competes with.
TABLE_PEER = "edge0"
COMPETITOR = "edge1"


class FullTableWorkload:
    """Deterministic synthetic table + churn generator.

    ``size`` counts routed prefixes (the default route and host-route
    band ride on top).  ``AGGREGATABLE_FRACTION`` of them form complete
    uniform /20 blocks; the rest scatter.  All are learned from
    ``TABLE_PEER``.
    """

    def __init__(self, seed=1, size=1_000_000):
        self.seed = seed
        self.size = size
        blocks = int(size * AGGREGATABLE_FRACTION) >> BLOCK_MEMBER_BITS
        self.aggregatable_count = blocks << BLOCK_MEMBER_BITS
        self.scattered_count = size - self.aggregatable_count
        generator = RouteGenerator(DeterministicRandom(seed), 64496,
                                   next_hop="192.0.2.1")
        self.attr_pool = generator.attr_pool

    # -- table layout -------------------------------------------------------

    def prefix_at(self, index):
        """The ``index``-th table prefix, a plain key (aggregatable
        first, then scattered, then the host-route band, then the
        default)."""
        if index < self.aggregatable_count:
            return prefix_key(AGG_BASE + (index << 8), 24)
        index -= self.aggregatable_count
        if index < self.scattered_count:
            length = SCATTER_LENGTHS[index % len(SCATTER_LENGTHS)]
            value = SCATTER_BASE + index * SCATTER_SLOT
            return prefix_key(value, length)
        index -= self.scattered_count
        if index < HOST_ROUTES:
            return prefix_key(SCATTER_BASE - (index + 1) * 256, 32)
        return prefix_key(0, 0)

    def _pool_index(self, index):
        """Which attribute-pool entry the ``index``-th prefix carries:
        block-uniform in the aggregatable region, per-prefix pooled in
        the scattered one."""
        if index < self.aggregatable_count:
            return (index >> BLOCK_MEMBER_BITS) % len(self.attr_pool)
        return (index * 7 + 3) % len(self.attr_pool)

    def attrs_at(self, index):
        """The ``index``-th prefix's attributes."""
        return self.attr_pool[self._pool_index(index)]

    def _paths(self, peer_id):
        """One :class:`Path` per pool entry, learned from ``peer_id``:
        what every prefix carrying that entry shares."""
        return [Path(attributes, peer_id, "ebgp")
                for attributes in self.attr_pool]

    @property
    def total(self):
        return self.size + HOST_ROUTES + 1

    def load(self, loc_rib):
        """Offer the whole table; returns the number of routes."""
        offer = loc_rib.offer
        prefix_at, pool_index = self.prefix_at, self._pool_index
        paths = self._paths(TABLE_PEER)
        for index in range(self.total):
            offer(prefix_at(index), paths[pool_index(index)])
        return self.total

    def build(self):
        rib = LocRib()
        self.load(rib)
        return rib

    # -- churn replay -------------------------------------------------------

    def churn(self, loc_rib, ops, seed=None):
        """Replay ``ops`` deterministic churn operations.

        Cycles competing-route offers (forces a reselect among
        candidates), competitor retracts, and attribute flips on the
        primary route, across a strided sample of the table.  Returns
        the number of operations applied.
        """
        rng = DeterministicRandom(self.seed if seed is None
                                  else seed).stream("churn")
        rivals, primaries = self._paths(COMPETITOR), self._paths(TABLE_PEER)
        applied = 0
        for op in range(ops):
            # Groups of three share a multiplicatively-scattered base
            # prefix: competitor offer, competitor retract (same
            # prefix — exercises candidate add/remove), primary flip.
            base = ((op // 3) * 2654435761) % self.size
            kind = op % 3
            if kind == 0:
                loc_rib.offer(self.prefix_at(base),
                              rivals[rng.randrange(len(rivals))])
            elif kind == 1:
                loc_rib.retract(self.prefix_at(base), COMPETITOR)
            else:
                loc_rib.offer(self.prefix_at((base + 1) % self.size),
                              primaries[rng.randrange(len(primaries))])
            applied += 1
        return applied


# ---------------------------------------------------------------------------
# end-to-end: a table slice through a real NSR pair
# ---------------------------------------------------------------------------

def replay_through_pair(size=2_000, churn_ops=300, seed=3):
    """Push a full-table slice through an NSR pair and snapshot it.

    Builds the standard one-pair topology (remote AS -> gateway), has
    the remote originate ``size`` table prefixes, replays churn as
    originate/withdraw rounds, then compacts the pair's Loc-RIB into the
    replicated KV snapshot.  Returns measurement dict (virtual-clock
    durations, snapshot counters, and the digest for determinism
    checks).
    """
    from repro.config import build_system, lab_spec

    workload = FullTableWorkload(seed=seed, size=size)
    spec = lab_spec(seed)
    spec["pairs"][0]["aggregate_snapshots"] = True
    system, pairs, remotes = build_system(spec)
    system.run(10.0)
    pair, remote = pairs["pair0"], remotes["remote0"]
    session = remote.sessions[0]

    load_start = system.engine.now
    remote.speaker.originate_many(
        "v0",
        [(workload.prefix_at(i), workload.attrs_at(i)) for i in range(size)],
    )
    remote.speaker.readvertise(session)
    system.run(max(5.0, size / 5_000))
    load_elapsed = system.engine.now - load_start

    churn_start = system.engine.now
    rng = DeterministicRandom(seed).stream("pair-churn")
    flapped = 0
    for round_index in range(max(1, churn_ops // 50)):
        for _ in range(min(50, churn_ops - flapped)):
            index = rng.randrange(size)
            prefix = workload.prefix_at(index)
            if rng.random() < 0.3:
                remote.speaker.withdraw_originated("v0", prefix)
            else:
                remote.speaker.originate(
                    "v0", prefix,
                    workload.attr_pool[rng.randrange(
                        len(workload.attr_pool))])
            flapped += 1
        system.run(1.0)
    system.run(3.0)
    churn_elapsed = system.engine.now - churn_start

    loc_rib = pair.speaker.vrfs["v0"].loc_rib
    pair.pipeline.compact("v0", loc_rib)
    system.run(2.0)
    return {
        "routes_loaded": len(loc_rib),
        "load_virtual_s": load_elapsed,
        "churn_ops": flapped,
        "churn_virtual_s": churn_elapsed,
        "compactions": pair.pipeline.compactions,
        "snapshot_chunks_written": pair.pipeline.snapshot_chunks_written,
        "snapshot_entries_raw": pair.pipeline.snapshot_entries_raw,
        "snapshot_entries_written": pair.pipeline.snapshot_entries_written,
        "digest": system.rib_digest(),
        "session_established": session.established,
    }
