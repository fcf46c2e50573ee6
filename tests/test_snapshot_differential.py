"""Snapshot byte identity (DESIGN.md §8, §14): the encode-once chunk
encoder and the count walk against their references.

A seeded table holding every shape the encoder distinguishes — complete,
broken, divergent-attribute and divergent-peer blocks, a /20 of /24s
that merges through four levels, a /22 whose /24s *and* /25s are both
complete (two aggregates with one text), a /1 pair beside the default
route, a /32 band, IPv6 blocks, contested prefixes — is driven through a
:class:`ReplicationPipeline` in lockstep with a :class:`ReferenceRib`.
After every compaction (full, incremental after scattered and after
localised churn, re-bucketing on growth and on shrinkage, stale-forced,
and one with nothing to do) the store must hold exactly what
:func:`tests.rib_reference.reference_chunks` — the encoder this one
replaced, run from scratch over the reference — says it should: the same
keys, the same record lists in the same order, nothing past the
marker's chunk count.  An incremental compaction patches each chunk's
kept encoding instead of re-encoding it; the patch corners (a block
split and merged back, a member flipped, contested, or withdrawn under
a twin text, the /1 pair's cross-root merge, an IPv6 split) each get
their own compaction, and no value already handed to the store is ever
changed afterwards.
"""

import copy

import pytest

from repro.bgp import AsPath, LocRib, PathAttributes, Prefix
from repro.bgp.aggregation import encode_chunk, expand_snapshot_entries
from repro.bgp.rib import Path
from repro.core import replication
from repro.core.recovery import RecoveredState
from repro.core.replication import ReplicationPipeline, rib_snapshot_key
from repro.sim.rand import DeterministicRandom

from tests.rib_reference import (
    MemoryKv,
    ReferenceRib,
    reference_chunk_of,
    reference_chunks,
)

CHUNK_ROUTES = 40  # stands in for SNAPSHOT_CHUNK_ROUTES: many chunks, small table
MARKER = "tensor:p:rib:v:marker"
PEERS = ("edge0", "edge1", "edge2")
V6 = Prefix.AFI_IPV6


def _entry_order(entry):
    return entry["prefix"], str(entry["peer_id"])


def _attrs(index):
    return PathAttributes(next_hop="192.0.2.1", local_pref=100,
                          as_path=AsPath.sequence(64496, 64600 + index % 5),
                          med=index % 3)


def _block(root_value, root_length, member_length, afi=Prefix.AFI_IPV4):
    bits = 32 if afi == Prefix.AFI_IPV4 else 128
    stride = 1 << (bits - member_length)
    return [Prefix(root_value + i * stride, member_length, afi)
            for i in range(1 << (member_length - root_length))]


class HandOffKv(MemoryKv):
    """A :class:`MemoryKv` that keeps every snapshot chunk value it is
    handed beside a deep copy taken on the spot."""

    def __init__(self):
        super().__init__()
        self.handed = []  # (value as stored, deep copy at hand-over)

    def mset(self, items, on_done=None, on_error=None):
        items = list(items)
        self.handed.extend((value, copy.deepcopy(value))
                           for key, value in items if ":s:" in key)
        super().mset(items, on_done, on_error)


class Lockstep:
    """One LocRib behind a pipeline, one ReferenceRib beside it."""

    def __init__(self, seed, aggregate, chunk_routes=CHUNK_ROUTES):
        self.rng = DeterministicRandom(seed).stream("snapshot-differential")
        self.aggregate = aggregate
        self.chunk_routes = chunk_routes
        self.rib, self.reference = LocRib(), ReferenceRib()
        self.kv = HandOffKv()
        self.pipeline = ReplicationPipeline("p", self.kv, self.kv,
                                            aggregate_snapshots=aggregate)
        self.touched = set()
        self.buckets = 0  # the reference's model of the chunk count

    # -- mutation -----------------------------------------------------------

    def offer(self, prefix, attrs, peer="edge0", kind="ebgp"):
        self.offer_path(prefix, Path(attrs, peer, kind))

    def offer_path(self, prefix, path):
        self.rib.offer(prefix, path)
        self.reference.offer(prefix, path)
        self.touched.add(prefix)

    def retract(self, prefix, peer="edge0"):
        if peer in self.reference.candidates(prefix):
            self.touched.add(prefix)
        self.rib.retract(prefix, peer)
        self.reference.retract(prefix, peer)

    def load_table(self, blocks):
        rng = self.rng
        self.offer(Prefix(0, 0), _attrs(0))
        self.offer(Prefix(0, 0, V6), _attrs(0))
        for half in _block(0, 0, 1):
            self.offer(half, _attrs(1))
        for host in _block(0xC0A80000, 29, 32):  # the /32 band: /31s, /30, /29
            self.offer(host, _attrs(2))
        self.offer(Prefix(0xC0A80010, 32), _attrs(2))  # and a lone host route
        # Two aggregates spelled "10.250.0.0/22": its /24s and its /25s.
        for member in _block(0x0AFA0000, 22, 24) + _block(0x0AFA0000, 22, 25):
            self.offer(member, _attrs(3))
        for index in range(blocks):
            attrs = _attrs(index)
            shape = index % 6
            root = 0x0A000000 + (index << 12)  # one /20 each under 10/8
            members = _block(root, 20 if shape == 0 else 22, 24)
            if shape == 1:  # broken: siblings missing
                members = [m for m in members if rng.random() < 0.7]
            for member in members:
                self.offer(member, attrs)
            if shape == 2:  # divergent attributes
                self.offer(rng.choice(members), _attrs(index + 1))
            elif shape == 3:  # divergent peer
                victim = rng.choice(members)
                self.retract(victim)
                self.offer(victim, attrs, peer="edge1")
            elif shape == 4:  # contested member
                self.offer(rng.choice(members), _attrs(index + 2), peer="edge2")
            elif shape == 5:  # IPv6 beside it, complete or broken
                for member in _block((0x20010DB8 << 96) + (index << 84), 44, 48, V6):
                    if index % 2 or rng.random() < 0.8:
                        self.offer(member, attrs)

    def churn(self, ops, within=None):
        """Flips, competitor offers and retracts, withdrawals and
        re-announcements over random live prefixes — all of them under
        ``within`` (a covering prefix) when given."""
        rng = self.rng
        live = sorted(p for p in self.reference.prefixes()
                      if within is None or within.contains(p))
        for _ in range(ops):
            prefix = rng.choice(live)
            roll = rng.random()
            if roll < 0.4:
                self.offer(prefix, _attrs(rng.randrange(7)))
            elif roll < 0.6:
                self.offer(prefix, _attrs(rng.randrange(7)),
                           peer=rng.choice(PEERS[1:]),
                           kind=rng.choice(["ebgp", "ibgp"]))
            elif roll < 0.8:
                self.retract(prefix, rng.choice(PEERS))
            else:
                self.retract(prefix)

    # -- compaction and the comparison ---------------------------------------

    def compact(self, expect):
        """Compact, then hold store and counters to the reference.
        ``expect`` is "full", "incremental" or "stale"."""
        pipeline, reference = self.pipeline, self.reference
        total = sum(len(reference.candidates(p)) for p in reference.prefixes())
        written, routes = self.buckets, self.chunk_routes
        rebucket = (
            expect == "stale" or written == 0
            or total > written * 2 * routes
            or (written > 1 and total < (written // 2) * routes))
        assert rebucket == (expect != "incremental")
        if rebucket:
            self.buckets = max(1, -(-total // routes))
            rewritten = set(range(self.buckets))
        else:
            rewritten = {reference_chunk_of(p, written, self.aggregate)
                         for p in self.touched}
        before = (pipeline.snapshot_chunks_written,
                  pipeline.snapshot_entries_raw,
                  pipeline.snapshot_entries_written,
                  pipeline.incremental_compactions)
        handed, self.kv.handed = self.kv.handed, []
        pipeline.compact("v", self.rib)
        self.touched.clear()
        # What the store was handed before is never edited afterwards:
        # neither the lists nor the record dicts they share with the
        # pipeline's kept chunk encodings.
        assert all(value == kept for value, kept in handed)

        expected = reference_chunks(reference, self.buckets, self.aggregate)
        assert self.kv.store[MARKER]["chunks"] == self.buckets
        stored = {key: value for key, value in self.kv.store.items()
                  if ":s:" in key}
        assert stored == {rib_snapshot_key("p", "v", index): records
                          for index, records in expected.items()}
        raw = sum(len(reference.candidates(p)) for p in reference.prefixes()
                  if reference_chunk_of(p, self.buckets, self.aggregate)
                  in rewritten) if self.aggregate else 0
        encoded = sum(len(expected[index]) for index in rewritten
                      ) if self.aggregate else 0
        assert (pipeline.snapshot_chunks_written,
                pipeline.snapshot_entries_raw,
                pipeline.snapshot_entries_written,
                pipeline.incremental_compactions) == (
            before[0] + len(rewritten), before[1] + raw, before[2] + encoded,
            before[3] + (not rebucket))
        return stored

    def check_round_trip(self, stored):
        """expand(snapshot) == export_entries(), by dicts and by routes."""
        live = self.rib.export_entries()
        assert live == self.reference.export_entries()
        snapshot = [record for key in sorted(stored)
                    for record in expand_snapshot_entries(stored[key])]
        assert sorted(snapshot, key=_entry_order) == sorted(live, key=_entry_order)
        state = RecoveredState("p")
        state.rib_markers["v"] = self.kv.store[MARKER]
        state.rib_snapshots["v"] = {
            index: stored[rib_snapshot_key("p", "v", index)]
            for index in range(self.buckets)}
        assert state.rebuild_loc_rib("v").export_entries() == live


@pytest.mark.parametrize("aggregate", [True, False], ids=["aggregated", "plain"])
@pytest.mark.parametrize("seed", range(3))
def test_store_matches_reference_across_compaction_kinds(
        seed, aggregate, monkeypatch):
    monkeypatch.setattr(replication, "SNAPSHOT_CHUNK_ROUTES", CHUNK_ROUTES)
    run = Lockstep(seed, aggregate)
    run.load_table(blocks=36)
    run.check_round_trip(run.compact("full"))
    assert run.buckets > 8
    if aggregate:
        chunks = run.kv.store
        texts = [(r["aggregate"], r["member_length"])
                 for key in chunks if ":s:" in key for r in chunks[key]
                 if "aggregate" in r]
        # the shapes above did reach the encoder's corners (the /1
        # pair only merges where both halves hash into one chunk)
        assert {("10.250.0.0/22", 24), ("10.250.0.0/22", 25)} <= set(texts)
        assert ("192.168.0.0/29", 32) in texts
        assert any(":" in text for text, _ in texts)
        assert any(length == 24 and text.endswith("/20")
                   for text, length in texts)

    run.churn(40)  # scattered: most chunks dirty
    run.check_round_trip(run.compact("incremental"))
    run.churn(25, within=Prefix(0x0A000000, 16))  # localised
    written = run.pipeline.snapshot_chunks_written
    run.check_round_trip(run.compact("incremental"))
    if aggregate:  # one aggregate root, so one chunk
        assert run.pipeline.snapshot_chunks_written - written == 1

    small = run.buckets
    for index in range(40, 140):  # grow past twice the chunk capacity
        for member in _block(0x0B000000 + (index << 12), 21, 24):
            run.offer(member, _attrs(index))
    run.check_round_trip(run.compact("full"))
    assert run.buckets > 2 * small

    large = run.buckets
    for prefix in sorted(run.reference.prefixes()):  # shrink under half
        if run.rng.random() < 0.8:
            for peer in list(run.reference.candidates(prefix)):
                run.retract(prefix, peer)
    run.check_round_trip(run.compact("full"))
    assert run.buckets < large // 2

    run.churn(10)
    run.check_round_trip(run.compact("incremental"))
    run.pipeline._snapshots_went_stale()
    run.churn(10)
    run.check_round_trip(run.compact("stale"))
    run.churn(10)
    run.check_round_trip(run.compact("incremental"))
    run.check_round_trip(run.compact("incremental"))  # nothing changed


def _aggregates(run):
    """``{(text, member length): record}`` of every aggregate stored."""
    return {(record["aggregate"], record["member_length"]): record
            for key, records in run.kv.store.items() if ":s:" in key
            for record in records if "aggregate" in record}


def _refuse(*_args):
    raise AssertionError("an incremental compaction re-encoded a chunk")


def test_patch_corners_split_and_merge_back(monkeypatch):
    """Every corner of a chunk patch, each its own incremental compaction
    held to the reference: a block split and merged back to an equal
    record, a member flipped and flipped back, contested and lone again,
    the /1 pair's cross-root merge broken and restored, a /25 withdrawn
    under a text two aggregates spell, an IPv6 block split.  None of
    them calls the chunk encoder; a re-bucketing compaction calls it
    once per chunk."""
    routes = 70  # five chunks: the one count that puts both /1s in one
    monkeypatch.setattr(replication, "SNAPSHOT_CHUNK_ROUTES", routes)
    run = Lockstep(0, aggregate=True, chunk_routes=routes)
    run.load_table(blocks=36)
    run.check_round_trip(run.compact("full"))
    assert run.buckets == 5
    before = _aggregates(run)
    block, pair = ("10.0.0.0/20", 24), ("0.0.0.0/0", 1)
    twin24, twin25 = ("10.250.0.0/22", 24), ("10.250.0.0/22", 25)
    v6_root = (0x20010DB8 << 96) + (5 << 84)
    v6 = (str(Prefix(v6_root, 44, V6)), 48)
    assert {block, pair, twin24, twin25, v6} <= set(before)
    monkeypatch.setattr(replication, "encode_chunk", _refuse)

    def step():
        run.check_round_trip(run.compact("incremental"))
        return _aggregates(run)

    # (a) A route at the /20's own text, so the merged-back aggregate
    # lands beside a plain record; then a member leaves and the very
    # path object it had comes back.
    run.offer(Prefix(0x0A000000, 20), _attrs(9))
    member = Prefix(0x0A000500, 24)
    path = run.rib.best(member)
    run.retract(member)
    assert block not in step()
    run.offer_path(member, path)
    assert step()[block] == before[block]

    # (b) A member flips to another attribute set, and back.
    member = Prefix(0x0A000900, 24)
    run.offer(member, _attrs(1))
    assert block not in step()
    run.offer(member, _attrs(0))
    assert step()[block] == before[block]

    # (c) A member is contested, its lone sibling is re-offered beside
    # it — and must not merge with it — then the member is lone again.
    member = Prefix(0x0A000300, 24)
    run.offer(member, _attrs(0), peer="edge2")
    assert block not in step()
    run.offer(Prefix(0x0A000200, 24), _attrs(0))
    assert block not in step()
    run.retract(member, "edge2")
    assert step()[block] == before[block]

    # (d) The /1 pair's merge across aggregate roots breaks and heals.
    half = Prefix(0x80000000, 1)
    path = run.rib.best(half)
    run.retract(half)
    assert pair not in step()
    run.offer_path(half, path)
    assert step()[pair] == before[pair]

    # (e) One /25 leaves "10.250.0.0/22": the /25s' aggregate splits,
    # the /24s' aggregate of the same text stays.
    member = Prefix(0x0AFA0180, 25)
    path = run.rib.best(member)
    run.retract(member)
    now = step()
    assert twin25 not in now and now[twin24] == before[twin24]
    run.offer_path(member, path)
    assert step()[twin25] == before[twin25]

    # (f) An IPv6 block splits.
    run.retract(Prefix(v6_root + (3 << 80), 48, V6))
    assert v6 not in step()

    calls = []

    def counted(*args):
        calls.append(args)
        return encode_chunk(*args)

    monkeypatch.setattr(replication, "encode_chunk", counted)
    for index in range(40, 70):  # grow past twice the chunk capacity
        for member in _block(0x0B000000 + (index << 12), 20, 24):
            run.offer(member, _attrs(index))
    run.check_round_trip(run.compact("full"))
    assert len(calls) == run.buckets > 5


def test_count_walk_watermark_contract():
    """``path_counts_since`` against the reference.  The change record
    starts at the first read: before it, offers and retracts keep none,
    and the read, from 0, lists the present table's path counts — never
    a prefix whose history ended at 0 paths.  A watermark at or past
    ``export_seq`` yields nothing.  Later reads list every prefix touched
    since, 0 for one left with no path, and change records at or below
    the consumed watermark are pruned on the next call — the
    single-consumer protocol ``export_entries_since`` always had."""
    run = Lockstep(5, aggregate=False)
    run.load_table(blocks=12)
    gone = Prefix(0xC0A80010, 32)
    run.retract(gone)  # its history ends at 0 paths before any read
    rib, reference = run.rib, run.reference
    assert rib._changed is None and rib.export_seq > 0
    first, counts = rib.path_counts_since(0)
    assert first == rib.export_seq
    assert counts == reference.counts_since_last_read()
    assert set(counts) == reference.prefixes() == run.touched - {gone}
    assert rib._changed == {}
    assert rib.path_counts_since(first) == (first, {})
    assert rib.path_counts_since(first + 10) == (first, {})
    assert rib.path_counts_since(0) == (first, counts)  # a first read again

    run.touched.clear()
    run.churn(30)
    for peer in reference.candidates(Prefix(0, 0)):
        run.retract(Prefix(0, 0), peer)  # to no path at all
    assert set(rib._changed) == run.touched
    second, counts = rib.path_counts_since(first)
    assert second == rib.export_seq > first
    assert counts == reference.counts_since_last_read()
    assert set(counts) == run.touched
    assert {0, 1, 2} <= set(counts.values())
    # The wrapper reads the same records and keeps the same contract.
    assert rib.export_entries_since(first) == (
        second, {p: reference.export_prefix_entries(p) for p in counts})
    assert rib.export_entries_since(second) == (second, {})

    run.touched.clear()
    run.churn(10)
    third, counts = rib.path_counts_since(second)
    assert counts == reference.counts_since_last_read()
    assert set(rib._changed) == run.touched  # the earlier batches are gone
