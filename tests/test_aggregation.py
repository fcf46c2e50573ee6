"""DRAGON-style snapshot aggregation (DESIGN.md §14): collapse/expand
and pipeline integration."""

import pytest

from repro.bgp import LocRib, Prefix
from repro.bgp.aggregation import (
    aggregate_root,
    encode_chunk,
    expand_snapshot_entries,
)
from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.rib import Path
from repro.core.recovery import BackupRecovery
from repro.core.replication import ReplicationPipeline
from repro.kvstore import KvClient, KvServer
from repro.sim import DeterministicRandom, Engine, Network

from tests.rib_reference import collapse_prefix_entries


def _attrs(**overrides):
    base = dict(next_hop="10.0.0.1", as_path=AsPath.sequence(64496), local_pref=100)
    base.update(overrides)
    return PathAttributes(**base)


def _fill(rib, prefixes, attrs=None, peer="p1"):
    for prefix in prefixes:
        rib.offer(prefix, Path(attrs or _attrs(), peer, "ebgp"))


def _block(base, count, length=24):
    stride = 1 << (32 - length)
    return [Prefix(base + i * stride, length) for i in range(count)]


def _record_key(rec):
    return (Prefix.parse(rec["prefix"]), str(rec["peer_id"]),
            rec["source_kind"], rec["attributes"])


def _plain_export(rib, prefixes):
    records = []
    for prefix in prefixes:
        records.extend(rib.export_prefix_entries(prefix))
    return sorted(records, key=_record_key)


def _round_trip(rib, prefixes):
    encoded, _keys, routes = encode_chunk(rib, set(prefixes), collapse=True)
    assert encoded == collapse_prefix_entries(rib, prefixes)
    expanded = sorted(expand_snapshot_entries(encoded), key=_record_key)
    assert expanded == _plain_export(rib, prefixes)
    assert routes == len(expanded)
    return encoded


# ---------------------------------------------------------------------------
# snapshot collapse/expand
# ---------------------------------------------------------------------------

def test_complete_uniform_block_collapses_to_one_record():
    rib = LocRib()
    members = _block(Prefix.parse("10.1.0.0/22").value, 4)
    _fill(rib, members)
    encoded = _round_trip(rib, members)
    assert len(encoded) == 1
    assert encoded[0]["aggregate"] == "10.1.0.0/22"
    assert encoded[0]["member_length"] == 24


def test_multi_level_collapse_spans_intermediate_lengths():
    # 16 x /24 under a /20: merging must walk through /23, /22, /21 —
    # levels that did not exist in the input.
    rib = LocRib()
    members = _block(Prefix.parse("172.16.16.0/20").value, 16)
    _fill(rib, members)
    encoded = _round_trip(rib, members)
    assert len(encoded) == 1
    assert encoded[0]["aggregate"] == "172.16.16.0/20"


def test_missing_sibling_blocks_collapse():
    rib = LocRib()
    members = _block(Prefix.parse("10.1.0.0/22").value, 4)
    members.pop(1)  # 10.1.1.0/24 absent: left /23 incomplete
    _fill(rib, members)
    encoded = _round_trip(rib, members)
    # 10.1.2.0/24 + 10.1.3.0/24 still merge into 10.1.2.0/23.
    aggregates = [rec for rec in encoded if "aggregate" in rec]
    plains = [rec for rec in encoded if "prefix" in rec]
    assert [rec["aggregate"] for rec in aggregates] == ["10.1.2.0/23"]
    assert [rec["prefix"] for rec in plains] == ["10.1.0.0/24"]


def test_divergent_attributes_block_collapse():
    rib = LocRib()
    members = _block(Prefix.parse("10.1.0.0/22").value, 4)
    _fill(rib, members[:3])
    _fill(rib, members[3:], attrs=_attrs(med=50))
    encoded = _round_trip(rib, members)
    aggregates = sorted(rec["aggregate"] for rec in encoded
                        if "aggregate" in rec)
    assert aggregates == ["10.1.0.0/23"]  # the divergent half stays split


def test_multi_candidate_and_default_route_pass_through():
    rib = LocRib()
    members = _block(Prefix.parse("10.1.0.0/23").value, 2)
    _fill(rib, members)
    rib.offer(members[0], Path(_attrs(local_pref=50), "p2", "ebgp"))
    default = Prefix(0, 0)
    rib.offer(default, Path(_attrs(), "p1", "ebgp"))
    encoded = _round_trip(rib, members + [default])
    # the two-candidate prefix and the default route forbid any merge
    assert all("prefix" in rec for rec in encoded)
    assert len(encoded) == 4  # 2 candidates + sibling + default


def test_collapse_differs_by_peer_signature():
    rib = LocRib()
    members = _block(Prefix.parse("10.1.0.0/23").value, 2)
    rib.offer(members[0], Path(_attrs(), "p1", "ebgp"))
    rib.offer(members[1], Path(_attrs(), "p2", "ebgp"))
    encoded = _round_trip(rib, members)
    assert all("prefix" in rec for rec in encoded)


def test_coinciding_texts_order_plain_then_member_length():
    # One chunk where three records share a text: the default route, the
    # /1 pair merged into "0.0.0.0/0", and — under 10.250.0.0/22 — the
    # /22 itself, its complete /24s and its complete /25s.
    rib = LocRib()
    halves = _block(0, 2, length=1)
    root = Prefix.parse("10.250.0.0/22")
    members = ([Prefix(0, 0), root] + halves + _block(root.value, 4)
               + _block(root.value, 8, length=25))
    _fill(rib, members)
    rib.offer(Prefix(0, 0), Path(_attrs(local_pref=50), "p0", "ibgp"))
    encoded = _round_trip(rib, members)
    assert [(rec.get("prefix") or rec["aggregate"],
             rec.get("member_length"), rec["peer_id"]) for rec in encoded] == [
        ("0.0.0.0/0", None, "p0"), ("0.0.0.0/0", None, "p1"),
        ("0.0.0.0/0", 1, "p1"),
        ("10.250.0.0/22", None, "p1"),
        ("10.250.0.0/22", 24, "p1"), ("10.250.0.0/22", 25, "p1"),
    ]


def test_collapse_fuzz_round_trip():
    rng = DeterministicRandom(71).stream("aggfuzz")
    for _trial in range(25):
        rib = LocRib()
        prefixes = set()
        for _ in range(rng.randrange(1, 40)):
            length = rng.choice([0, 8, 16, 22, 23, 24, 24, 24, 25, 32])
            value = (rng.randrange(0, 1 << 8) << 24) | (
                rng.randrange(0, 1 << 10) << 8)
            prefix = Prefix(value & (((1 << length) - 1) << (32 - length))
                            if length else 0, length)
            prefixes.add(prefix)
            attrs = _attrs(med=rng.choice([0, 0, 0, 50]))
            peer = rng.choice(["p1", "p1", "p2"])
            rib.offer(prefix, Path(attrs, peer, "ebgp"))
            if rng.random() < 0.2:
                rib.offer(prefix, Path(_attrs(local_pref=90), "p3", "ebgp"))
        _round_trip(rib, sorted(prefixes))


def test_aggregate_root_bucketing():
    assert aggregate_root(Prefix.parse("10.1.2.0/24")) == Prefix.parse("10.1.0.0/16")
    assert aggregate_root(Prefix.parse("10.0.0.0/8")) == Prefix.parse("10.0.0.0/8")
    assert aggregate_root(Prefix(0, 0)) == Prefix(0, 0)


# ---------------------------------------------------------------------------
# pipeline integration: aggregated snapshots shrink and round-trip
# ---------------------------------------------------------------------------

@pytest.fixture
def kv_env(engine):
    network = Network(engine, DeterministicRandom(4))
    network.enable_fabric(latency=5e-5)
    client_host = network.add_host("c", "1.1.1.1")
    server_host = network.add_host("s", "1.1.1.2")
    server = KvServer(engine, server_host)
    fast = KvClient(engine, client_host, "1.1.1.2")
    bulk = KvClient(engine, client_host, "1.1.1.2")
    return engine, server, fast, bulk


def _aggregatable_rib(blocks=8, members=16):
    rib = LocRib()
    for block in range(blocks):
        base = Prefix.parse(f"10.{block}.0.0/16").value
        _fill(rib, _block(base, members))
    return rib


def test_aggregated_compaction_round_trips_and_shrinks(kv_env):
    engine, server, fast, bulk = kv_env
    pipeline = ReplicationPipeline("pair0", fast, bulk,
                                   aggregate_snapshots=True)
    rib = _aggregatable_rib()
    pipeline.compact("v1", rib)
    engine.run_until_idle()
    assert pipeline.snapshot_entries_raw == 8 * 16
    # every block collapses: written entries shrink well past the §14
    # 20% target on this fully-aggregatable table
    assert pipeline.snapshot_entries_written <= pipeline.snapshot_entries_raw // 2
    recovery = BackupRecovery(engine, fast, "pair0")
    states = []
    recovery.load(states.append)
    engine.run_until_idle()
    rebuilt = states[0].rebuild_loc_rib("v1")
    assert rebuilt.export_entries() == rib.export_entries()


def test_aggregated_incremental_compaction_stays_correct(kv_env):
    engine, server, fast, bulk = kv_env
    pipeline = ReplicationPipeline("pair0", fast, bulk,
                                   aggregate_snapshots=True)
    rib = _aggregatable_rib(blocks=4)
    pipeline.compact("v1", rib)
    engine.run_until_idle()
    # Punch a divergence into one block, then touch another block's
    # member: only dirty chunks rewrite, and recovery still matches.
    hole = Prefix.parse("10.2.3.0/24")
    rib.offer(hole, Path(_attrs(med=99), "p1", "ebgp"))
    rib.retract(Prefix.parse("10.1.5.0/24"), "p1")
    pipeline.compact("v1", rib)
    engine.run_until_idle()
    assert pipeline.incremental_compactions == 1
    recovery = BackupRecovery(engine, fast, "pair0")
    states = []
    recovery.load(states.append)
    engine.run_until_idle()
    rebuilt = states[0].rebuild_loc_rib("v1")
    assert rebuilt.export_entries() == rib.export_entries()
    assert rebuilt.best(hole).attributes.med == 99


def test_unaggregated_pipeline_counts_match():
    engine = Engine()
    network = Network(engine, DeterministicRandom(4))
    network.enable_fabric(latency=5e-5)
    server = KvServer(engine, network.add_host("s", "1.1.1.2"))
    client_host = network.add_host("c", "1.1.1.1")
    fast = KvClient(engine, client_host, "1.1.1.2")
    bulk = KvClient(engine, client_host, "1.1.1.2")
    pipeline = ReplicationPipeline("pair0", fast, bulk)
    rib = _aggregatable_rib(blocks=2)
    pipeline.compact("v1", rib)
    engine.run_until_idle()
    # default-off: byte-for-byte the plain per-prefix snapshot
    chunks = server.store.scan("tensor:pair0:rib:v1:s:")
    assert sum(len(entries) for _k, entries in chunks) == 32
    assert all("prefix" in rec for _k, entries in chunks for rec in entries)
