"""DRAGON-style aggregation (DESIGN.md §14): snapshot collapse/expand,
pipeline integration, and export aggregation on a live speaker mesh."""

import pytest

from repro.bgp import BgpSpeaker, LocRib, PeerConfig, Prefix, SpeakerConfig
from repro.bgp.aggregation import (
    ExportAggregator,
    aggregate_root,
    encode_chunk,
    expand_snapshot_entries,
)
from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.rib import AdjRibOut, Path
from repro.core.recovery import BackupRecovery
from repro.core.replication import ReplicationPipeline
from repro.kvstore import KvClient, KvServer
from repro.sim import DeterministicRandom, Engine, Network
from repro.tcpsim import TcpStack

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


# ---------------------------------------------------------------------------
# export aggregation: unit-level transform_table
# ---------------------------------------------------------------------------

class _StubSession:
    def __init__(self, peer_id="stub-peer", source_kind="ebgp"):
        self.peer_id = peer_id
        self.source_kind = source_kind
        self.adj_rib_out = AdjRibOut(peer_id)


def test_transform_table_collapses_uniform_members():
    rib = LocRib()
    aggregate = Prefix.parse("10.1.0.0/22")
    members = _block(aggregate.value, 4)
    _fill(rib, members)
    aggregator = ExportAggregator("spk", [aggregate])
    session = _StubSession()
    routes = [(prefix, path.attributes) for prefix, path in rib.items()]
    out = aggregator.transform_table(rib, session, routes)
    assert [prefix for prefix, _ in out] == [aggregate]
    assert aggregator.aggregates_advertised == 1


def test_transform_table_punches_hole_for_divergent_member():
    rib = LocRib()
    aggregate = Prefix.parse("10.1.0.0/22")
    members = _block(aggregate.value, 4)
    _fill(rib, members[:3])
    divergent = _attrs(med=50)
    _fill(rib, members[3:], attrs=divergent)
    aggregator = ExportAggregator("spk", [aggregate])
    out = aggregator.transform_table(rib, _StubSession(), [
        (prefix, path.attributes) for prefix, path in rib.items()
    ])
    exported = dict(out)
    assert set(exported) == {aggregate, members[3]}
    assert exported[members[3]] == divergent
    assert exported[aggregate] == _attrs()  # the uniform majority's attrs
    assert aggregator.holes_punched == 1


def test_transform_table_inert_below_min_members():
    rib = LocRib()
    aggregate = Prefix.parse("10.1.0.0/22")
    only = Prefix.parse("10.1.2.0/24")
    _fill(rib, [only])
    aggregator = ExportAggregator("spk", [aggregate])
    out = aggregator.transform_table(rib, _StubSession(), [
        (prefix, path.attributes) for prefix, path in rib.items()
    ])
    assert [prefix for prefix, _ in out] == [only]
    assert aggregator.aggregates_advertised == 0


def test_transform_table_inert_when_real_aggregate_route_exists():
    rib = LocRib()
    aggregate = Prefix.parse("10.1.0.0/22")
    members = _block(aggregate.value, 4)
    _fill(rib, members)
    real = _attrs(local_pref=200)
    rib.offer(aggregate, Path(real, "p7", "ebgp"))
    aggregator = ExportAggregator("spk", [aggregate])
    out = aggregator.transform_table(rib, _StubSession(), [
        (prefix, path.attributes) for prefix, path in rib.items()
    ])
    exported = dict(out)
    # the real /22 route passes through; members export individually
    assert set(exported) == {aggregate} | set(members)
    assert exported[aggregate] == real


def test_broken_aggregate_reexports_and_withdraws_members_ascending():
    """``transform_changes`` output is walked in insertion order to build
    the UPDATEs, so members leaving an aggregate's state come out in
    prefix order, never in set order (which the key's hash decides)."""
    rib = LocRib()
    aggregate = Prefix.parse("10.0.0.0/16")
    members = _block(aggregate.value, 12)
    _fill(rib, members)
    aggregator = ExportAggregator("spk", [aggregate])
    session = _StubSession()
    aggregator.transform_table(rib, session, [])
    # Three members leave the table while the aggregate stands: withdrawn.
    gone = [members[9], members[2], members[5]]
    for prefix in gone:
        rib.retract(prefix, "p1")
    out = aggregator.transform_changes(rib, session, dict.fromkeys(gone))
    assert list(out) == sorted(gone) and set(out.values()) == {None}
    # A real route at the aggregate's own prefix breaks it: the aggregate
    # is withdrawn and every surviving member re-exported.
    rib.offer(aggregate, Path(_attrs(local_pref=200), "p7", "ebgp"))
    out = aggregator.transform_changes(rib, session, {members[0]: None})
    survivors = sorted(set(members) - set(gone))
    assert list(out) == [aggregate] + survivors
    assert out.pop(aggregate) is None
    assert all(out[prefix] is rib.best(prefix) for prefix in survivors)


# ---------------------------------------------------------------------------
# export aggregation: live speaker mesh (delta path)
# ---------------------------------------------------------------------------

def _mesh(engine, network, specs):
    network.enable_fabric(latency=5e-5)
    speakers = {}
    for name, (addr, asn, aggregates) in specs.items():
        host = network.add_host(name, addr)
        speakers[name] = BgpSpeaker(
            engine, TcpStack(engine, host),
            SpeakerConfig(name, asn, addr, aggregates=aggregates),
        )
        speakers[name].add_vrf("v")
    return speakers


def _connect(engine, speakers, active, passive):
    passive_speaker = speakers[passive]
    active_speaker = speakers[active]
    passive_speaker.add_peer(PeerConfig(
        active_speaker.stack.host.address,
        active_speaker.config.local_as, vrf_name="v", mode="passive"))
    return active_speaker.add_peer(PeerConfig(
        passive_speaker.stack.host.address,
        passive_speaker.config.local_as, vrf_name="v", mode="active"))


@pytest.fixture
def agg_mesh(engine, network):
    """src --eBGP--> agg (aggregates 10.1.0.0/22) --eBGP--> dst."""
    speakers = _mesh(engine, network, {
        "src": ("10.0.0.1", 64496, ()),
        "agg": ("10.0.0.2", 65001, (Prefix.parse("10.1.0.0/22"),)),
        "dst": ("10.0.0.3", 65010, ()),
    })
    _connect(engine, speakers, "src", "agg")
    _connect(engine, speakers, "dst", "agg")
    for speaker in speakers.values():
        speaker.start()
    engine.advance(3.0)
    return speakers


AGGREGATE = Prefix.parse("10.1.0.0/22")
MEMBERS = _block(AGGREGATE.value, 4)


def _originate_members(engine, speakers, members=MEMBERS, med=None):
    for prefix in members:
        attrs = _attrs() if med is None else _attrs(med=med)
        speakers["src"].originate("v", prefix, attrs)
    engine.advance(3.0)


def test_uniform_members_export_as_one_aggregate(agg_mesh, engine):
    speakers = agg_mesh
    _originate_members(engine, speakers)
    dst_rib = speakers["dst"].vrfs["v"].loc_rib
    assert dst_rib.best(AGGREGATE) is not None
    for member in MEMBERS:
        assert dst_rib.best(member) is None
    # LPM at the receiver still resolves every member destination
    for member in MEMBERS:
        route = dst_rib.lookup(Prefix(member.value, 32))
        assert route is not None and route.prefix == AGGREGATE
    # the aggregate is an export-side artifact: agg's own Loc-RIB (and
    # hence rib_digest / the convergence oracles) never contains it
    assert speakers["agg"].vrfs["v"].loc_rib.best(AGGREGATE) is None
    # ...and the upstream peer is not told about its own members' cover
    assert speakers["src"].vrfs["v"].loc_rib.best(AGGREGATE) is None


def test_divergent_member_punches_hole(agg_mesh, engine):
    speakers = agg_mesh
    _originate_members(engine, speakers)
    speakers["src"].originate("v", MEMBERS[2], _attrs(med=50))
    engine.advance(3.0)
    dst_rib = speakers["dst"].vrfs["v"].loc_rib
    assert dst_rib.best(AGGREGATE) is not None
    assert dst_rib.best(MEMBERS[2]) is not None  # the hole
    for member in (MEMBERS[0], MEMBERS[1], MEMBERS[3]):
        assert dst_rib.best(member) is None
    # LPM: the divergent destination hits the hole, others the aggregate
    assert dst_rib.lookup(Prefix(MEMBERS[2].value, 32)).prefix == MEMBERS[2]
    assert dst_rib.lookup(Prefix(MEMBERS[1].value, 32)).prefix == AGGREGATE
    assert speakers["agg"].aggregator.holes_punched >= 1


def test_hole_heals_when_member_reconverges(agg_mesh, engine):
    speakers = agg_mesh
    _originate_members(engine, speakers)
    speakers["src"].originate("v", MEMBERS[2], _attrs(med=50))
    engine.advance(3.0)
    speakers["src"].originate("v", MEMBERS[2], _attrs())
    engine.advance(3.0)
    dst_rib = speakers["dst"].vrfs["v"].loc_rib
    assert dst_rib.best(AGGREGATE) is not None
    assert dst_rib.best(MEMBERS[2]) is None  # hole withdrawn


def test_completeness_break_withdraws_aggregate(agg_mesh, engine):
    speakers = agg_mesh
    _originate_members(engine, speakers)
    for member in MEMBERS[1:]:
        speakers["src"].withdraw_originated("v", member)
    engine.advance(3.0)
    dst_rib = speakers["dst"].vrfs["v"].loc_rib
    # one member left (< min_members): aggregate gone, member re-exported
    assert dst_rib.best(AGGREGATE) is None
    assert dst_rib.best(MEMBERS[0]) is not None
    for member in MEMBERS[1:]:
        assert dst_rib.best(member) is None


def test_all_members_withdrawn_leaves_clean_table(agg_mesh, engine):
    speakers = agg_mesh
    _originate_members(engine, speakers)
    for member in MEMBERS:
        speakers["src"].withdraw_originated("v", member)
    engine.advance(3.0)
    dst_rib = speakers["dst"].vrfs["v"].loc_rib
    assert dst_rib.best(AGGREGATE) is None
    for member in MEMBERS:
        assert dst_rib.best(member) is None
    assert len(dst_rib) == 0


def test_session_establishment_advertises_aggregated_table(engine, network):
    # routes first, session after: the full-table path (transform_table)
    speakers = _mesh(engine, network, {
        "src": ("10.0.0.1", 64496, ()),
        "agg": ("10.0.0.2", 65001, (AGGREGATE,)),
        "late": ("10.0.0.4", 65020, ()),
    })
    _connect(engine, speakers, "src", "agg")
    _connect(engine, speakers, "late", "agg")
    speakers["src"].start()
    speakers["agg"].start()
    engine.advance(3.0)
    _originate_members(engine, speakers)
    speakers["late"].start()
    engine.advance(3.0)
    late_rib = speakers["late"].vrfs["v"].loc_rib
    assert late_rib.best(AGGREGATE) is not None
    for member in MEMBERS:
        assert late_rib.best(member) is None
