"""Brute-force Loc-RIB reference model for differential testing.

:class:`ReferenceRib` reimplements the Loc-RIB's observable contract
with the dumbest data structures that can possibly work: a flat dict of
candidate maps, a full :func:`best_path` re-scan after *every* mutation
(no incremental shortcuts, no MED-group counters), and a linear scan
for longest-prefix match.  Roughly 40 lines of logic
with no clever state to get wrong — the point is that any divergence
from :class:`repro.bgp.rib.LocRib` under churn indicts the optimized
implementation, not the oracle (DESIGN.md §14).

The snapshot half is the same idea: :func:`collapse_prefix_entries` is
the chunk encoder the replication pipeline used before
:func:`repro.bgp.aggregation.encode_chunk` replaced it (a record list
per prefix, 5-tuple merge keys, a lambda sort), and
:func:`reference_chunks` is a from-scratch compaction built on it — what
the store must hold after *any* sequence of full, incremental,
re-bucketing and stale-forced compactions.

``decision_runs`` is modeled as its specification, not its mechanism:
an offer counts unless the prefix had no path or only the offering
peer's; a retract counts when it removes the best of several paths, or
a non-best path that won a MED group other paths still populate.  The
``export_seq`` watermark is not modeled — a performance contract pinned
by its own unit tests — but what a read reports is
(:meth:`ReferenceRib.counts_since_last_read`), and :func:`contested_churn`
checks ``path_counts_since`` against it.
"""

import zlib

from repro.bgp.aggregation import aggregate_root
from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.bgp.decision import best_path, med_group, prefer
from repro.bgp.prefixes import (
    Prefix,
    prefix_afi,
    prefix_contains,
    prefix_length,
    prefix_text,
    prefix_value,
)
from repro.bgp.rib import LocRib, Path
from repro.sim.rand import DeterministicRandom


class ReferenceRib:
    """Dict-of-dicts Loc-RIB with full re-selection on every change."""

    def __init__(self):
        # prefix -> {peer_id: Path}; a prefix enters on its first path
        # and leaves with its last, so the key order is also the order
        # LocRib's best map must iterate in.
        self._candidates = {}
        self.decision_runs = 0
        # Prefixes offered or retracted since the last read; None until
        # the first read, as the Loc-RIB keeps no change record before it.
        self._touched = None

    # -- mutation (mirrors LocRib.offer/retract return contract) ------------

    def offer(self, prefix, path):
        """``(old best, new best)``, where re-offering the object that
        is already the best counts as a change: ``(None, path)``."""
        old = self.best(prefix)
        if self._touched is not None:
            self._touched.add(prefix)
        candidates = self._candidates.setdefault(prefix, {})
        if candidates and list(candidates) != [path.peer_id]:
            self.decision_runs += 1
        candidates[path.peer_id] = path
        return (None if old is path else old), self.best(prefix)

    def retract(self, prefix, peer_id):
        old = self.best(prefix)
        candidates = self._candidates.get(prefix)
        if candidates is not None:
            removed = candidates.pop(peer_id, None)
            if removed is not None and self._touched is not None:
                self._touched.add(prefix)
            if not candidates:
                del self._candidates[prefix]
            elif removed is not None and (
                    removed is old or self._won_med_group(candidates, removed)):
                self.decision_runs += 1
        return old, self.best(prefix)

    @staticmethod
    def _won_med_group(candidates, removed):
        group = med_group(removed)
        rivals = [path for path in candidates.values()
                  if group is not None and med_group(path) == group]
        return bool(rivals) and not any(prefer(r, removed) for r in rivals)

    def counts_since_last_read(self):
        """What one consumer of ``path_counts_since`` reads now: at the
        first read every present prefix, later every prefix offered or
        retracted since the previous read (0 for one left with no
        path), mapped to its number of paths."""
        reported = (self._candidates if self._touched is None
                    else self._touched)
        counts = {prefix: len(self._candidates.get(prefix, ()))
                  for prefix in reported}
        self._touched = set()
        return counts

    # -- selection -----------------------------------------------------------

    def best(self, prefix):
        candidates = self._candidates.get(prefix)
        if not candidates:
            return None
        return best_path(list(candidates.values()))

    def prefixes(self):
        return set(self._candidates)

    def candidates(self, prefix):
        return dict(self._candidates.get(prefix, {}))

    def __len__(self):
        return len(self._candidates)

    # -- longest-prefix match, by linear scan (hands out a Route) ------------

    def lookup(self, prefix):
        """Longest-prefix match over selected routes."""
        covers = [p for p in self._candidates if prefix_contains(p, prefix)]
        if not covers:
            return None
        match = max(covers, key=prefix_length)
        return self.best(match).at(match)

    # -- snapshot ------------------------------------------------------------

    def export_entries(self):
        entries = []
        for prefix in sorted(self._candidates):
            entries.extend(self.export_prefix_entries(prefix))
        return entries

    def export_prefix_entries(self, prefix):
        candidates = self._candidates.get(prefix)
        if not candidates:
            return []
        return [
            {
                "prefix": prefix_text(prefix),
                "peer_id": peer_id,
                "source_kind": path.source_kind,
                "attributes": path.attributes.to_wire(),
            }
            for peer_id, path in sorted(candidates.items(),
                                         key=lambda kv: str(kv[0]))
        ]

    def digest(self):
        """The per-RIB slice of ``TensorSystem.rib_digest``: a canonical
        tuple over every candidate path, attributes in wire form."""
        return tuple(
            (entry["prefix"], str(entry["peer_id"]), entry["source_kind"],
             entry["attributes"])
            for entry in self.export_entries()
        )


# -- the flat-dict prefix store (the longest-prefix-match reference) --------

class DictPrefixStore:
    """Prefix -> value, matched by scanning every key: what the Loc-RIB,
    the FIB and prefix lists are pinned against
    (``tests/test_radix_properties.py``)."""

    def __init__(self):
        self._entries = {}

    def __iter__(self):
        return iter(sorted(self._entries))

    def insert(self, prefix, value):
        self._entries[prefix] = value

    def remove(self, prefix):
        return self._entries.pop(prefix, None) is not None

    def longest_match(self, prefix):
        """``(covering key, value)`` of the longest cover, or None."""
        return max((item for item in self._entries.items()
                    if prefix_contains(item[0], prefix)),
                   key=lambda item: prefix_length(item[0]), default=None)


# -- snapshot chunks (the encoder compact() used before encode_chunk) --------

def collapse_prefix_entries(loc_rib, prefixes):
    """Encode one chunk's Loc-RIB entries, collapsing complete uniform
    subtrees.

    ``prefixes`` is the chunk's member set.  Multi-candidate prefixes
    and the default route pass through as plain records.  Returns the
    encoded entry list in deterministic order.
    """
    plain = []
    # (afi, value, length, member_length, sig) -> one plain record kept
    # for the case the item never merges (member_length == length).
    by_len = {}
    for prefix in prefixes:
        records = loc_rib.export_prefix_entries(prefix)
        length = prefix_length(prefix)
        if len(records) == 1 and length > 0:
            record = records[0]
            sig = (record["peer_id"], record["source_kind"],
                   record["attributes"])
            key = (prefix_afi(prefix), prefix_value(prefix), length, length,
                   sig)
            by_len.setdefault(length, {})[key] = record
        else:
            plain.extend(records)
    # Merge sibling pairs bottom-up: two complete subtrees at the same
    # position length, member length and signature combine into their
    # parent's complete subtree.  Completeness is inductive — a leaf is
    # the (trivially complete) subtree of its own prefix.
    for length in range(max(by_len, default=0), 0, -1):
        level = by_len.get(length)
        if not level:
            continue
        for key in list(level):
            record = level.get(key)
            if record is None:
                continue
            afi, value, _length, member_length, sig = key
            bits = 32 if afi == Prefix.AFI_IPV4 else 128
            mask = 1 << (bits - length)
            sibling = (afi, value ^ mask, length, member_length, sig)
            twin = level.get(sibling)
            if twin is None or sibling == key:
                continue
            del level[key]
            del level[sibling]
            parent = (afi, value & ~mask, length - 1, member_length, sig)
            by_len.setdefault(length - 1, {})[parent] = record
    encoded = list(plain)
    for length in by_len:
        for key, record in by_len[length].items():
            afi, value, pos_length, member_length, sig = key
            if member_length == pos_length:
                encoded.append(record)  # never merged: plain entry
            else:
                encoded.append({
                    "aggregate": str(Prefix(value, pos_length, afi)),
                    "member_length": member_length,
                    "peer_id": sig[0],
                    "source_kind": sig[1],
                    "attributes": sig[2],
                })
    encoded.sort(key=lambda rec: (rec.get("prefix") or rec["aggregate"],
                                  rec.get("member_length", -1),
                                  str(rec["peer_id"])))
    return encoded


class MemoryKv:
    """Synchronous in-memory stand-in for both of a pipeline's KV
    clients: compaction tests compare what is stored, not how it
    travelled."""

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


def reference_chunk_of(prefix, buckets, aggregate):
    """Chunk index: CRC-32 of the prefix's text, or of its aggregate
    root's under snapshot aggregation."""
    keyed = aggregate_root(prefix) if aggregate else prefix
    return zlib.crc32(prefix_text(keyed).encode()) % buckets


def reference_chunks(rib, buckets, aggregate):
    """``{chunk index: record list}`` of a from-scratch snapshot of
    ``rib`` (a :class:`ReferenceRib` or a LocRib) in ``buckets`` chunks."""
    members = {index: [] for index in range(buckets)}
    for prefix in rib.prefixes():
        members[reference_chunk_of(prefix, buckets, aggregate)].append(prefix)
    chunks = {}
    for index, prefixes in members.items():
        prefixes.sort(key=prefix_text)
        if aggregate:
            chunks[index] = collapse_prefix_entries(rib, prefixes)
        else:
            chunks[index] = [record for prefix in prefixes
                             for record in rib.export_prefix_entries(prefix)]
    return chunks


def probe_points(prefixes, rng, extra=8):
    """Deterministic LPM probe positions for a differential run: every
    stored prefix, its parent, a sibling perturbation, a one-longer
    child, the global edges, and a few random positions."""
    points = {Prefix(0, 0), Prefix(0, 32), Prefix(2**32 - 1, 32)}
    for prefix in prefixes:
        points.add(prefix)
        if prefix.length:
            points.add(Prefix(prefix.value, prefix.length - 1))
            points.add(Prefix(prefix.value ^ (1 << (32 - prefix.length)),
                              prefix.length))
        if prefix.length < 32:
            points.add(Prefix(prefix.value | (1 << (31 - prefix.length)),
                              prefix.length + 1))
    for _ in range(extra):
        points.add(Prefix(rng.randrange(2**32), rng.randrange(33)))
    return sorted(points)


# -- contested-prefix churn (the table-plus-contested layout) ----------------

CONTEST_PEERS = ("peer0", "peer1", "peer2")
CONTEST_PREFIXES = (Prefix(0, 0), Prefix(0x0A000000, 8),
                    Prefix(0x0A010000, 16), Prefix(0x0A010100, 24),
                    Prefix(0xC0A80001, 32))


def _contest_attributes(rng):
    """Two neighbouring ASes and a MED spread, so routes join, win and
    leave MED groups; an empty AS path now and then (no group at all)."""
    first_as = rng.choice([64500, 64500, 64501, None])
    path = () if first_as is None else (first_as,) + (64600,) * rng.randrange(2)
    return PathAttributes(
        origin=Origin.IGP,
        as_path=AsPath.sequence(*path),
        next_hop="1.1.1.1",
        local_pref=rng.choice([None, 100, 110]),
        med=rng.choice([None, 0, 10, 20]),
    )


def contested_churn(seed, steps=500, lookup_at=None):
    """Drive a LocRib and a ReferenceRib through one seeded offer/retract
    sequence over five prefixes and three peers, so every prefix keeps
    crossing 1 -> 2 -> 1 -> 0 paths (same peer re-offering — a new path
    or the very path object it already has there — MED-group joins and
    evictions, retracts of best and non-best), asserting agreement on
    everything observable after every step, returns by identity.
    ``lookup_at`` is the step before which every prefix is first looked
    up, which counts the table's prefix lengths (None: never).
    Returns the trace of observations, for determinism pins.
    """
    rng = DeterministicRandom(seed).stream("rib-contested")
    rib, reference = LocRib(), ReferenceRib()
    trace = []
    watermark, crossings = 0, set()
    restored_best = 0
    for step in range(steps):
        if step == lookup_at:
            for probe in CONTEST_PREFIXES:
                assert rib.lookup(probe) == reference.lookup(probe)
        prefix = rng.choice(CONTEST_PREFIXES)
        peer = rng.choice(CONTEST_PEERS)
        before = reference.candidates(prefix)
        if rng.random() < 0.5:
            expected = reference.retract(prefix, peer)
            result = rib.retract(prefix, peer)
        else:
            path = before.get(peer)
            if path is None or rng.random() < 0.75:
                path = Path(_contest_attributes(rng), peer,
                            rng.choice(["ebgp", "ibgp"]))
            elif path is reference.best(prefix):
                restored_best += 1
            expected = reference.offer(prefix, path)
            result = rib.offer(prefix, path)
            # Re-storing the best path object is a change, like any
            # re-announce: the caller must not read it as "no change".
            assert result[0] is not result[1] or path is not result[1]
        crossings.add((len(before), len(reference.candidates(prefix))))
        assert all(r is e for r, e in zip(result, expected)), (result, expected)
        assert rib.decision_runs == reference.decision_runs
        assert (list(rib.candidates(prefix).items())
                == list(reference.candidates(prefix).items()))
        assert list(rib.prefixes()) == list(reference._candidates)
        assert set(rib._contested) == {
            p for p, paths in reference._candidates.items() if len(paths) > 1}
        trace.append((str(prefix), peer,
                      *(None if r is None else r.peer_id for r in result),
                      rib.decision_runs))
        if step % 40 == 39:
            entries = reference.export_entries()
            assert rib.export_entries() == entries
            if lookup_at is not None and step >= lookup_at:
                for probe in CONTEST_PREFIXES:
                    assert rib.lookup(probe) == reference.lookup(probe)
            # The count walk and its entry-list wrapper read the same
            # change records: the first call prunes, the second (same
            # watermark) must still see every prefix it reported.
            advanced, counts = rib.path_counts_since(watermark)
            assert counts == reference.counts_since_last_read()
            watermark, dirty = rib.export_entries_since(watermark)
            assert watermark == advanced == rib.export_seq
            assert dirty == {p: reference.export_prefix_entries(p)
                             for p in counts}
            trace.append([(e["prefix"], e["peer_id"], e["source_kind"],
                           e["attributes"].hex()) for e in entries])
    assert crossings >= {(0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 2),
                         (2, 1), (1, 0), (0, 0)}, crossings
    assert restored_best, "no step re-offered a prefix's best path object"
    return trace
