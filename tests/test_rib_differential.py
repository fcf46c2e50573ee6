"""Differential Loc-RIB harness (DESIGN.md §14): LocRib vs reference.

The production :class:`LocRib` and the brute-force :class:`ReferenceRib`
oracle run in lockstep under seeded insert/retract churn and must agree
at every step on best routes, and at every checkpoint on snapshot
exports, digest bit-identity and longest-prefix-match answers.

The workload is adversarial for the match: clustered prefixes (sibling
splits, shared stems), MED-group attribute mixes (exercises the
incremental-reselect fallbacks), covering chains (/8 over /16 over /24
over /32), the default route, and bursts of retract-to-empty.

The Loc-RIB keeps no index.  ``lookup`` probes the table once per prefix
length present in the family, from a census of lengths that the first
``lookup`` takes and ``offer`` grows; the second half of this file pins
that rule — nothing else takes the census, a length first seen after it
is still found, and a length whose prefixes all left costs a missed
probe, never a wrong answer.
"""

import gc

import pytest

from repro.bgp import AsPath, LocRib, Origin, PathAttributes, Prefix
from repro.bgp.aggregation import expand_snapshot_paths
from repro.bgp.prefixes import AFI_IPV6, AFI_SHIFT, prefix_length
from repro.bgp.rib import Path
from repro.sim.rand import DeterministicRandom

from tests.rib_reference import ReferenceRib, contested_churn, probe_points

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


def _v6_pool(rng, size):
    """IPv6 covering chains under 2001:db8::/32, and the v6 default."""
    pool = [Prefix(0, 0, AFI_IPV6)]
    base = 0x20010DB8 << 96
    while len(pool) < size:
        site = base | rng.randrange(16) << 80
        pool.append(Prefix(site, 48, AFI_IPV6))
        pool.append(Prefix(site | rng.randrange(4) << 64, 64, AFI_IPV6))
        pool.append(Prefix(site | rng.randrange(2**64), 128, AFI_IPV6))
    return pool


def _v6_probes(pool, rng, extra=8):
    """Each v6 prefix, its parent, a one-longer child and random hosts."""
    points = set()
    for prefix in pool:
        points.add(prefix)
        length = prefix_length(prefix)
        if length:
            points.add(Prefix(prefix.value, length - 1, AFI_IPV6))
        if length < 128:
            points.add(Prefix(prefix.value | 1 << (127 - length), length + 1,
                              AFI_IPV6))
    for _ in range(extra):
        points.add(Prefix((0x20010DB8 << 96) | rng.randrange(2**96), 128,
                          AFI_IPV6))
    return sorted(points)


def _assert_checkpoint(rib, reference, probes):
    assert rib.export_entries() == reference.export_entries()
    assert rib.digest() == reference.digest()
    assert set(rib.prefixes()) == reference.prefixes()
    for point in probes:
        assert rib.lookup(point) == reference.lookup(point)


def _churn_step(rng, pool, rib, reference, retract_bias=0.35):
    """One seeded offer or retract applied to both ribs; returns the
    prefix touched.  Every return value must match the reference's."""
    prefix = rng.choice(pool)
    peer = rng.choice(PEERS)
    if rng.random() < retract_bias:
        expected = reference.retract(prefix, peer)
        assert rib.retract(prefix, peer) == expected
    else:
        path = Path(_attributes(rng), peer,
                    rng.choice(["ebgp", "ebgp", "ibgp"]))
        expected = reference.offer(prefix, path)
        assert rib.offer(prefix, path) == expected
    return prefix


@pytest.mark.parametrize("seed", range(8))
def test_lockstep_churn(seed):
    rng = DeterministicRandom(seed).stream("rib-differential")
    pool = _prefix_pool(rng, 30)
    rib, reference = LocRib(), ReferenceRib()
    steps = 400
    for step in range(steps):
        prefix = _churn_step(rng, pool, rib, reference,
                             retract_bias=0.65 if step > steps * 0.7 else 0.3)
        assert rib.best(prefix) == reference.best(prefix)
        if step % 80 == 79:
            _assert_checkpoint(rib, reference, probe_points(pool, rng))
    # Drain to empty: every length the census counted is now absent.
    for prefix in list(pool):
        for peer in PEERS:
            assert rib.retract(prefix, peer) == reference.retract(prefix, peer)
    assert len(rib) == len(reference) == 0
    assert rib.export_entries() == [] and rib.digest() == ()
    assert all(rib.lookup(point) is None for point in probe_points(pool, rng))


def test_incremental_matches_reference_decisions():
    """The incremental MED-group shortcuts must land on the same best
    route the full re-scan picks, across a dense same-prefix battle."""
    rng = DeterministicRandom(99).stream("rib-med-battle")
    prefix = Prefix.parse("10.0.0.0/8")
    rib, reference = LocRib(), ReferenceRib()
    for _ in range(300):
        peer = rng.choice(PEERS)
        if rng.random() < 0.35:
            assert rib.retract(prefix, peer) == reference.retract(prefix, peer)
        else:
            path = Path(_attributes(rng), peer)
            assert rib.offer(prefix, path) == reference.offer(prefix, path)
        assert rib.best(prefix) == reference.best(prefix)
        assert rib.candidates(prefix) == reference.candidates(prefix)


def test_import_entries_round_trip_via_trie():
    rng = DeterministicRandom(3).stream("rib-import")
    rib = LocRib()
    for prefix in _prefix_pool(rng, 20):
        rib.offer(prefix, Path(_attributes(rng), rng.choice(PEERS)))
    clone = LocRib()
    for prefix, path in expand_snapshot_paths(rib.export_entries()):
        clone.offer(prefix, path)
    assert clone.export_entries() == rib.export_entries()
    assert clone.digest() == rib.digest()


# -- the length census --------------------------------------------------------


def test_receive_path_and_table_reads_take_no_census():
    """offer/retract/best, delta replication, per-prefix and whole-table
    snapshot export and the digest — everything but ``lookup`` — leave
    the census untaken; the first ``lookup`` counts exactly the lengths
    present, per family."""
    rng = DeterministicRandom(21).stream("rib-census")
    pool = _prefix_pool(rng, 30) + _v6_pool(rng, 10)
    rib, reference = LocRib(), ReferenceRib()
    watermark = 0
    for step in range(300):
        prefix = _churn_step(rng, pool, rib, reference)
        assert rib.best(prefix) == reference.best(prefix)
        assert (rib.export_prefix_entries(prefix)
                == reference.export_prefix_entries(prefix))
        if step % 50 == 49:
            watermark, dirty = rib.export_entries_since(watermark)
            assert dirty and all(
                entries == reference.export_prefix_entries(changed)
                for changed, entries in dirty.items())
            assert rib.export_entries() == reference.export_entries()
            assert rib.digest() == reference.digest()
    assert len(rib) == len(reference) > 0
    assert rib._lengths is None
    rib.lookup(pool[1])
    for family in (0, 1):
        present = {prefix_length(p) for p in reference.prefixes()
                   if p >> AFI_SHIFT == family}
        assert rib._lengths[family] == sorted(present, reverse=True)


@pytest.mark.parametrize("first_query", ["lookup", "export_entries"])
@pytest.mark.parametrize("seed", range(3))
def test_churn_before_and_after_first_ordered_query(seed, first_query):
    """Whichever ordered query comes first, and however much history
    precedes it, answers match the reference at every step after."""
    rng = DeterministicRandom(seed).stream("rib-derived-churn")
    pool = _prefix_pool(rng, 24)
    rib, reference = LocRib(), ReferenceRib()
    for _ in range(150):
        _churn_step(rng, pool, rib, reference)
    if first_query == "export_entries":
        assert rib.export_entries() == reference.export_entries()
    else:
        point = pool[3]
        assert rib.lookup(point) == reference.lookup(point)
    for step in range(150):
        _churn_step(rng, pool, rib, reference,
                    retract_bias=0.7 if step > 100 else 0.35)
        assert rib.export_entries() == reference.export_entries()
        for point in probe_points(pool, rng, extra=2)[:10]:
            assert rib.lookup(point) == reference.lookup(point)
    assert rib.digest() == reference.digest()


@pytest.mark.parametrize("when", ["before", "during", "after"])
@pytest.mark.parametrize("seed", range(3))
def test_first_lookup_before_during_or_after_churn(seed, when):
    """Mixed-family churn with the census taken on the empty table, half
    way through, or only at the end: every lookup, export and digest
    equals the reference's from then on."""
    rng = DeterministicRandom(seed).stream("rib-census-churn")
    v4, v6 = _prefix_pool(rng, 24), _v6_pool(rng, 13)
    pool = v4 + v6
    probes = probe_points(v4, rng, extra=4) + _v6_probes(v6, rng)
    rib, reference = LocRib(), ReferenceRib()
    first = {"before": 0, "during": 150, "after": 300}[when]
    for step in range(301):
        if step >= first:
            for point in (probes if step in (first, 300)
                          else rng.sample(probes, 6)):
                assert rib.lookup(point) == reference.lookup(point)
        if step == 300:
            break
        _churn_step(rng, pool, rib, reference,
                    retract_bias=0.6 if step > 200 else 0.3)
    _assert_checkpoint(rib, reference, probes)


_SLASH_24S = [Prefix.parse(f"198.51.{i}.0/24") for i in range(8)]


@pytest.mark.parametrize("newcomer, inside, outside", [
    ("198.51.3.7/32", "198.51.3.7/32", "198.51.3.8/32"),
    ("2001:db8:1::/48", "2001:db8:1:2::1/128", "2001:db8:2::1/128"),
    ("0.0.0.0/0", "203.0.113.9/32", "2001:db8::1/128"),
], ids=["host_route", "ipv6_after_ipv4", "default_route"])
def test_length_new_after_census_is_found(newcomer, inside, outside):
    """A length the census did not count when it was taken — a /32 in a
    table of /24s, a first IPv6 prefix, the default route — is matched
    as soon as it is offered, and forgotten by nothing but a missed
    probe once it is retracted."""
    rib, reference = LocRib(), ReferenceRib()
    attributes = _attributes(DeterministicRandom(4).stream("rib-newcomer"))
    for prefix in _SLASH_24S:
        for table in (rib, reference):
            table.offer(prefix, Path(attributes, "peer0"))
    newcomer, inside, outside = map(Prefix.parse, (newcomer, inside, outside))
    probes = _SLASH_24S + [newcomer, inside, outside,
                           Prefix.parse("198.51.3.0/25")]
    for point in probes:
        assert rib.lookup(point) == reference.lookup(point)
    path = Path(attributes, "peer1")
    rib.offer(newcomer, path)
    reference.offer(newcomer, path)
    assert rib.lookup(inside) == path.at(newcomer)
    for point in probes:
        assert rib.lookup(point) == reference.lookup(point)
    rib.retract(newcomer, "peer1")
    reference.retract(newcomer, "peer1")
    assert prefix_length(newcomer) in rib._lengths[newcomer >> AFI_SHIFT]
    for point in probes:
        assert rib.lookup(point) == reference.lookup(point)


def test_retract_to_empty_before_first_query_leaves_nothing_behind():
    rng = DeterministicRandom(5).stream("rib-derived-empty")
    pool = _prefix_pool(rng, 20)
    rib, reference = LocRib(), ReferenceRib()
    survivor, doomed = pool[0], pool[1:]
    for prefix in pool:
        for peer in PEERS[:2]:
            path = Path(_attributes(rng), peer)
            rib.offer(prefix, path)
            reference.offer(prefix, path)
    for prefix in doomed:
        for peer in PEERS[:2]:
            rib.retract(prefix, peer)
            reference.retract(prefix, peer)
    assert rib._lengths is None
    assert list(rib.prefixes()) == [survivor]
    assert {e["prefix"] for e in rib.export_entries()} == {str(survivor)}
    probes = probe_points(pool, rng)
    for point in probes:
        assert rib.lookup(point) == reference.lookup(point)
    # Retract the last prefix with the census taken: every probe misses.
    for peer in PEERS[:2]:
        rib.retract(survivor, peer)
    assert len(rib) == 0 and rib.export_entries() == [] and rib.digest() == ()
    assert all(rib.lookup(point) is None for point in probes)


# -- the table-plus-contested layout -----------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_contested_layout_matches_reference(seed):
    """Prefixes crossing 1 -> 2 -> 1 -> 0 paths, with the census never
    taken, taken on the empty table, and taken mid-run: returns (by
    identity), ``decision_runs``, ``candidates()``, best-map order, the
    contested map's key set, ``export_entries()``, ``lookup()`` and
    ``export_entries_since()`` all follow the brute-force reference
    (asserted inside ``contested_churn``)."""
    trace = contested_churn(seed, lookup_at=None)
    # When the census is taken does not show in anything observable.
    assert contested_churn(seed, lookup_at=0) == trace
    assert contested_churn(seed, lookup_at=250) == trace


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
