"""Differential Loc-RIB harness (DESIGN.md §14): trie vs reference.

Three implementations run in lockstep under seeded insert/retract
churn — the production :class:`LocRib` on its radix-trie store, the
same LocRib on the seed-era flat-dict store, and the brute-force
:class:`ReferenceRib` oracle — and must agree at every step on best
routes, and at every checkpoint on snapshot exports, digest
bit-identity, LPM answers, and covered/covering subtree walks.

The workload is adversarial for the trie: clustered prefixes (sibling
splits, shared stems), MED-group attribute mixes (exercises the
incremental-reselect fallbacks), covering chains (/8 over /16 over /24
over /32), the default route, and bursts of retract-to-empty that force
node pruning.

The prefix store is a *derived* index: nothing is inserted into it
until the first ordered query (``store``, ``lookup``, ``covered_best``,
``covering_best``, ``export_entries``), which fills it from the
exact-match dict; the second half of this file pins that rule.
"""

import gc

import pytest

from repro.bgp import AsPath, LocRib, Origin, PathAttributes, Prefix
from repro.bgp.radix import RadixTrie
from repro.bgp.rib import Path
from repro.sim.rand import DeterministicRandom

from tests.rib_reference import (
    DictPrefixStore,
    ReferenceRib,
    contested_churn,
    probe_points,
    rib_digest_of,
    use_prefix_store,
)

PEERS = [f"peer{i}" for i in range(6)]


def _attributes(rng):
    """Attribute mixes that reach every decision step, including MED
    (same neighboring AS, different MED) and iBGP ranking."""
    first_as = rng.choice([64500, 64501, 64502])
    path = (first_as,) + tuple(
        64600 + rng.randrange(4) for _ in range(rng.randrange(3)))
    return PathAttributes(
        origin=rng.choice([Origin.IGP, Origin.EGP, Origin.INCOMPLETE]),
        as_path=AsPath.sequence(*path),
        next_hop="1.1.1.1",
        local_pref=rng.choice([None, 90, 100, 100, 110]),
        med=rng.choice([None, 0, 10, 20]),
    )


def _prefix_pool(rng, size):
    """Clustered pool: covering chains and dense sibling blocks."""
    pool = [Prefix(0, 0)]  # default route: the root carries an entry
    for _ in range(size // 3):
        base = rng.choice([0x0A000000, 0x0B000000, 0xC0A80000])
        block = base | (rng.randrange(16) << 16)
        pool.append(Prefix(block, 16))
        for sub in range(rng.randrange(1, 5)):
            pool.append(Prefix(block | (sub << 8), 24))
        pool.append(Prefix(block | rng.randrange(256), 32))
    while len(pool) < size:
        pool.append(Prefix(rng.randrange(2**32), rng.choice([8, 20, 28])))
    return pool


def _assert_checkpoint(trie_rib, dict_rib, reference, pool, rng):
    exports = reference.export_entries()
    assert trie_rib.export_entries() == exports
    assert dict_rib.export_entries() == exports
    digest = reference.digest()
    assert rib_digest_of(trie_rib) == digest
    assert rib_digest_of(dict_rib) == digest
    assert set(trie_rib.prefixes()) == reference.prefixes()
    for point in probe_points(pool, rng):
        expected = reference.lookup(point)
        assert trie_rib.lookup(point) == expected
        assert dict_rib.lookup(point) == expected
        assert trie_rib.covered_best(point) == reference.covered_best(point)
        assert (trie_rib.covering_best(point)
                == reference.covering_best(point))


@pytest.mark.parametrize("seed", range(8))
def test_lockstep_churn(seed):
    rng = DeterministicRandom(seed).stream("rib-differential")
    pool = _prefix_pool(rng, 30)
    trie_rib = LocRib()
    dict_rib = LocRib(store=DictPrefixStore())
    reference = ReferenceRib()
    steps = 400
    for step in range(steps):
        prefix = rng.choice(pool)
        peer = rng.choice(PEERS)
        retract_bias = 0.65 if step > steps * 0.7 else 0.3
        if rng.random() < retract_bias:
            expected = reference.retract(prefix, peer)
            assert trie_rib.retract(prefix, peer) == expected
            assert dict_rib.retract(prefix, peer) == expected
        else:
            path = Path(_attributes(rng), peer,
                        rng.choice(["ebgp", "ebgp", "ibgp"]))
            expected = reference.offer(prefix, path)
            assert trie_rib.offer(prefix, path) == expected
            assert dict_rib.offer(prefix, path) == expected
        assert trie_rib.best(prefix) == reference.best(prefix)
        if step % 80 == 79:
            _assert_checkpoint(trie_rib, dict_rib, reference, pool, rng)
    # Drain to empty: maximum pruning pressure on the trie.
    for prefix in list(pool):
        for peer in PEERS:
            expected = reference.retract(prefix, peer)
            assert trie_rib.retract(prefix, peer) == expected
            assert dict_rib.retract(prefix, peer) == expected
    assert len(trie_rib) == len(reference) == 0
    assert trie_rib.export_entries() == []
    assert len(trie_rib.store) == 0


def test_incremental_matches_reference_decisions():
    """The incremental MED-group shortcuts must land on the same best
    route the full re-scan picks, across a dense same-prefix battle."""
    rng = DeterministicRandom(99).stream("rib-med-battle")
    prefix = Prefix.parse("10.0.0.0/8")
    trie_rib, reference = LocRib(), ReferenceRib()
    for _ in range(300):
        peer = rng.choice(PEERS)
        if rng.random() < 0.35:
            assert (trie_rib.retract(prefix, peer)
                    == reference.retract(prefix, peer))
        else:
            path = Path(_attributes(rng), peer)
            assert (trie_rib.offer(prefix, path)
                    == reference.offer(prefix, path))
        assert trie_rib.best(prefix) == reference.best(prefix)
        assert trie_rib.candidates(prefix) == reference.candidates(prefix)


def test_import_entries_round_trip_via_trie():
    rng = DeterministicRandom(3).stream("rib-import")
    rib = LocRib()
    for prefix in _prefix_pool(rng, 20):
        rib.offer(prefix, Path(_attributes(rng), rng.choice(PEERS)))
    clone = LocRib.import_entries(rib.export_entries())
    assert clone.export_entries() == rib.export_entries()
    assert rib_digest_of(clone) == rib_digest_of(rib)


# -- the derived index ------------------------------------------------------


class RecordingStore(RadixTrie):
    """A RadixTrie that logs every mutation the Loc-RIB makes to it."""

    def __init__(self):
        super().__init__()
        self.log = []

    def insert(self, prefix, value):
        self.log.append(("insert", prefix))
        return super().insert(prefix, value)

    def remove(self, prefix):
        self.log.append(("remove", prefix))
        return super().remove(prefix)


def _churn_step(rng, pool, ribs, reference, retract_bias=0.35):
    """One seeded offer or retract applied to every rib; returns the
    prefix touched.  Every return value must match the reference's."""
    prefix = rng.choice(pool)
    peer = rng.choice(PEERS)
    if rng.random() < retract_bias:
        expected = reference.retract(prefix, peer)
        for rib in ribs:
            assert rib.retract(prefix, peer) == expected
    else:
        path = Path(_attributes(rng), peer)
        expected = reference.offer(prefix, path)
        for rib in ribs:
            assert rib.offer(prefix, path) == expected
    return prefix


def test_receive_path_never_touches_the_store():
    """offer/retract/best, delta replication and per-prefix snapshot
    export — everything the NSR receive path calls — run on the
    exact-match dict alone."""
    rng = DeterministicRandom(21).stream("rib-derived")
    pool = _prefix_pool(rng, 30)
    recorder = RecordingStore()
    rib, reference = LocRib(store=recorder), ReferenceRib()
    watermark = 0
    for step in range(300):
        prefix = _churn_step(rng, pool, [rib], reference)
        assert rib.best(prefix) == reference.best(prefix)
        assert (rib.export_prefix_entries(prefix)
                == reference.export_prefix_entries(prefix))
        if step % 50 == 49:
            watermark, dirty = rib.export_entries_since(watermark)
            assert dirty and all(
                entries == reference.export_prefix_entries(changed)
                for changed, entries in dirty.items())
    assert len(rib) == len(reference) > 0
    assert recorder.log == [] and len(recorder) == 0
    # The first ordered query fills it, once, in sorted prefix order...
    assert rib.export_entries() == reference.export_entries()
    filled = [prefix for op, prefix in recorder.log if op == "insert"]
    assert filled == sorted(reference.prefixes()) and len(filled) == len(rib)
    assert len(recorder.log) == len(filled)
    # ...later queries add nothing, later mutations are mirrored one by one.
    rib.lookup(pool[1])
    rib.covered_best(pool[0])
    assert len(recorder.log) == len(filled)
    newcomer = Prefix.parse("203.0.113.0/24")
    rib.offer(newcomer, Path(_attributes(rng), "peer0"))
    rib.retract(newcomer, "peer0")
    assert recorder.log[len(filled):] == [("insert", newcomer),
                                          ("remove", newcomer)]


@pytest.mark.parametrize("first_query", ["store", "lookup", "covered_best",
                                         "covering_best", "export_entries"])
@pytest.mark.parametrize("seed", range(3))
def test_churn_before_and_after_first_ordered_query(seed, first_query):
    """Whichever ordered query comes first, and however much history
    precedes it, answers match the reference at every step after."""
    rng = DeterministicRandom(seed).stream("rib-derived-churn")
    pool = _prefix_pool(rng, 24)
    trie_rib, dict_rib = LocRib(), LocRib(store=DictPrefixStore())
    reference = ReferenceRib()
    ribs = [trie_rib, dict_rib]
    for _ in range(150):
        _churn_step(rng, pool, ribs, reference)
    assert not trie_rib._indexed and not dict_rib._indexed
    for rib in ribs:
        if first_query == "store":
            assert len(rib.store) == len(reference)
        elif first_query == "export_entries":
            assert rib.export_entries() == reference.export_entries()
        else:
            point = pool[3]
            assert (getattr(rib, first_query)(point)
                    == getattr(reference, first_query)(point))
        assert rib._indexed
    for step in range(150):
        _churn_step(rng, pool, ribs, reference,
                    retract_bias=0.7 if step > 100 else 0.35)
        for rib in ribs:
            assert rib.export_entries() == reference.export_entries()
            assert len(rib.store) == len(reference)
        for point in probe_points(pool, rng, extra=2)[:10]:
            for rib in ribs:
                assert rib.lookup(point) == reference.lookup(point)
                assert (rib.covered_best(point)
                        == reference.covered_best(point))
                assert (rib.covering_best(point)
                        == reference.covering_best(point))
    assert rib_digest_of(trie_rib) == rib_digest_of(dict_rib) \
        == reference.digest()


def test_retract_to_empty_before_first_query_leaves_nothing_behind():
    rng = DeterministicRandom(5).stream("rib-derived-empty")
    pool = _prefix_pool(rng, 20)
    recorder = RecordingStore()
    rib = LocRib(store=recorder)
    survivor, doomed = pool[0], pool[1:]
    for prefix in pool:
        for peer in PEERS[:2]:
            rib.offer(prefix, Path(_attributes(rng), peer))
    for prefix in doomed:
        for peer in PEERS[:2]:
            rib.retract(prefix, peer)
    assert recorder.log == []
    assert [p for p, _slot in rib.store.walk()] == [survivor]
    assert recorder.log == [("insert", survivor)]
    assert {e["prefix"] for e in rib.export_entries()} == {str(survivor)}
    for prefix in set(doomed):
        assert prefix not in rib.store
        assert rib.covering_best(prefix) == (
            [(survivor, rib.best(survivor).at(survivor))]
            if survivor.contains(prefix)
            else [])
    for peer in PEERS[:2]:
        rib.retract(survivor, peer)
    assert len(rib.store) == 0 and rib.export_entries() == []


def test_backend_is_captured_at_construction_not_at_first_query():
    rng = DeterministicRandom(9).stream("rib-derived-backend")
    pool = _prefix_pool(rng, 12)
    with use_prefix_store(DictPrefixStore):
        inside = LocRib()
    outside = LocRib()
    for prefix in pool:
        path = Path(_attributes(rng), "peer0")
        inside.offer(prefix, path)
        outside.offer(prefix, path)
    # Queried after the context exited: still the backend it was built on.
    assert type(inside.store) is DictPrefixStore
    assert type(outside.store) is RadixTrie
    assert len(inside.store) == len(outside.store) == len(set(pool))
    assert inside.export_entries() == outside.export_entries()


# -- the table-plus-contested layout -----------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_contested_layout_matches_reference(seed):
    """Prefixes crossing 1 -> 2 -> 1 -> 0 paths, with the derived index
    never built, built first, and built mid-run: returns (by identity),
    ``decision_runs``, ``candidates()``, best-map order, the contested
    map's key set, ``export_entries()`` and ``export_entries_since()``
    all follow the brute-force reference (asserted inside the driver)."""
    trace = contested_churn(seed, index_at=None)
    # When the index is built does not show in anything observable.
    assert contested_churn(seed, index_at=0) == trace
    assert contested_churn(seed, index_at=250) == trace


def test_single_path_load_adds_no_tracked_object_per_route():
    """The allocation budget of the layout: a single-path route costs
    its table entry and nothing the collector has to walk — its path is
    the one every prefix of the batch shares, and there is no slot and
    no candidate dict — and leaves the contested map empty."""
    count = 10_000
    attributes = _attributes(DeterministicRandom(1).stream("rib-budget"))
    prefixes = [Prefix((10 << 24) + (i << 8), 24) for i in range(count)]
    rib = LocRib()
    path = Path(attributes, "peer0")
    # Twice: a tuple is untracked only in the full collection after the
    # one that untracked the dicts it holds, and the test runner keeps
    # making such tuples.
    gc.collect()
    gc.collect()
    before = len(gc.get_objects())
    for prefix in prefixes:
        rib.offer(prefix, path)
    gc.collect()
    added = len(gc.get_objects()) - before
    assert added <= 0.05 * count, added
    assert not rib._contested and len(rib) == count
    # A competitor promotes exactly the prefixes it contests, and its
    # withdrawal demotes them again.
    rival = Path(attributes, "peer1")
    for prefix in prefixes[:100]:
        rib.offer(prefix, rival)
    assert set(rib._contested) == set(prefixes[:100])
    for prefix in prefixes[:100]:
        rib.retract(prefix, "peer1")
    assert not rib._contested and len(rib) == count
    gc.collect()
    assert len(gc.get_objects()) - before <= 0.05 * count
