"""The table key is one plain packed int (DESIGN.md §14).

``(afi - 1) << 136 | value << 8 | length`` must order, hash and
round-trip exactly as the ``(afi, value, length)`` triple it packs;
everything that produces prefixes in bulk must hand back *plain* ints
(an ``int`` subclass instance is still GC-tracked, a plain int is not);
and a table must not care whether a key arrived as a ``Prefix`` from the
edge or as an int from the wire.
"""

import copy
import gc
import pickle

import pytest
from hypothesis import example, given, strategies as st

from repro.bgp.aggregation import expand_snapshot_entries

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.prefixes import (
    AFI_IPV4,
    AFI_IPV6,
    Prefix,
    decode_nlri_block,
    encode_nlri_block,
    longest_match,
    parse_prefix,
    prefix_afi,
    prefix_ancestor,
    prefix_bits,
    prefix_contains,
    prefix_fields,
    prefix_key,
    prefix_length,
    prefix_lengths,
    prefix_text,
    prefix_value,
)
from repro.bgp.rib import LocRib, Path
from repro.core.recovery import BackupRecovery
from repro.core.replication import ReplicationPipeline
from repro.forwarding.fib import Fib
from repro.sim import DeterministicRandom
from repro.workloads.fulltable import FullTableWorkload
from repro.workloads.updates import RouteGenerator

from tests.rib_reference import MemoryKv


@st.composite
def triples(draw):
    """``(afi, masked value, length)``, the edge lengths included."""
    afi = draw(st.sampled_from([AFI_IPV4, AFI_IPV6]))
    bits = 32 if afi == AFI_IPV4 else 128
    length = draw(st.one_of(st.sampled_from([0, 1, bits - 1, bits]),
                            st.integers(min_value=0, max_value=bits)))
    value = draw(st.integers(min_value=0, max_value=2**bits - 1))
    keep = bits - length
    return afi, value >> keep << keep, length


def _key(triple):
    afi, value, length = triple
    return prefix_key(value, length, afi)


@given(a=triples(), b=triples())
@example(a=(AFI_IPV4, 2**32 - 1, 32), b=(AFI_IPV6, 0, 0))
@example(a=(AFI_IPV4, 0, 0), b=(AFI_IPV4, 0, 1))
@example(a=(AFI_IPV6, 2**128 - 1, 128), b=(AFI_IPV6, 2**128 - 2, 127))
def test_int_order_is_afi_value_length_order(a, b):
    assert (_key(a) < _key(b)) == (a < b)
    assert (_key(a) == _key(b)) == (a == b)


@given(triple=triples())
@example(triple=(AFI_IPV4, 0, 0))
@example(triple=(AFI_IPV4, 2**32 - 1, 32))
@example(triple=(AFI_IPV6, 0, 0))
@example(triple=(AFI_IPV6, 2**128 - 1, 128))
def test_text_key_wire_round_trip(triple):
    afi, value, length = triple
    key = _key(triple)
    assert type(key) is int
    assert prefix_fields(key) == triple
    assert (prefix_afi(key), prefix_value(key), prefix_length(key)) == triple
    assert prefix_bits(key) == (32 if afi == AFI_IPV4 else 128)
    # The edge type is the same number: equal, same hash, same dict slot.
    text = prefix_text(key)
    named = Prefix.parse(text)
    assert named == key and hash(named) == hash(key)
    assert {key: "slot"}[named] == "slot" and int(named) == key
    assert (named.afi, named.value, named.length) == triple
    assert str(named) == f"{named}" == text and repr(named) == f"Prefix({text!r})"
    assert Prefix(value, length, afi) == key
    assert parse_prefix(text) == key and type(parse_prefix(text)) is int
    wire = encode_nlri_block([key])
    assert wire == named.to_wire() and len(wire) == named.wire_size
    assert decode_nlri_block(wire, afi) == [key]


@given(triple=triples(), shorter=st.integers(min_value=0, max_value=128))
def test_ancestor_and_contains_agree_with_the_fields(triple, shorter):
    afi, value, length = triple
    key = _key(triple)
    span = min(shorter, length)
    keep = prefix_bits(key) - span
    ancestor = prefix_ancestor(key, span)
    assert ancestor == prefix_key(value >> keep << keep, span, afi)
    assert prefix_ancestor(key, length + 1) is key
    assert prefix_contains(ancestor, key)
    assert prefix_contains(key, ancestor) == (span == length)
    other_family = prefix_key(0, 0, AFI_IPV6 if afi == AFI_IPV4 else AFI_IPV4)
    assert not prefix_contains(other_family, key)


def test_default_route_is_the_falsy_key_and_still_a_member():
    default = parse_prefix("0.0.0.0/0")
    assert default == 0 and prefix_text(default) == "0.0.0.0/0"
    rib = LocRib()
    rib.offer(default, Path(_ATTRS, "p1"))
    assert rib.best(default) is not None and default in rib.prefixes()
    assert rib.lookup(parse_prefix("203.0.113.9/32")).prefix == default
    assert [e["prefix"] for e in rib.export_entries()] == ["0.0.0.0/0"]
    fib = Fib()
    fib.program(default, "192.0.2.1")
    assert list(fib.entries()) == [0]
    assert fib.lookup("10.0.0.1").prefix == default
    assert longest_match({default: "d"}, prefix_lengths([default]),
                         parse_prefix("10.0.0.0/8")) == (0, "d")


def test_prefix_survives_pickle_and_copy():
    for text in ("10.1.2.0/24", "0.0.0.0/0", "2001:db8::/32", "::/0"):
        named = Prefix.parse(text)
        for clone in (pickle.loads(pickle.dumps(named)), copy.copy(named),
                      copy.deepcopy(named)):
            assert type(clone) is Prefix
            assert clone == named and str(clone) == str(named)


# -- bulk producers hand back plain ints --------------------------------------

_ATTRS = PathAttributes(as_path=AsPath.sequence(64512), next_hop="192.0.2.1")


def _all_plain(keys):
    keys = list(keys)
    return bool(keys) and all(type(key) is int for key in keys)


def _snapshot(rib, aggregate=True):
    """``rib`` compacted into a fresh in-memory store."""
    kv = MemoryKv()
    ReplicationPipeline("pair0", kv, kv,
                        aggregate_snapshots=aggregate).compact("v0", rib)
    return kv.store


def _rebuilt(store):
    state = BackupRecovery(None, None, "pair0")._parse(sorted(store.items()))
    return state.rebuild_loc_rib("v0")


def test_bulk_producers_yield_plain_ints():
    named = [Prefix.parse("10.0.0.0/8"), Prefix.parse("10.1.0.0/16")]
    v6 = [Prefix.parse("2001:db8::/32")]
    assert _all_plain(decode_nlri_block(encode_nlri_block(named)))
    assert _all_plain(decode_nlri_block(encode_nlri_block(v6), AFI_IPV6))
    generator = RouteGenerator(DeterministicRandom(3), 64512)
    assert _all_plain(generator.prefixes(50))
    assert _all_plain(prefix for prefix, _attrs in generator.routes(50))
    workload = FullTableWorkload(seed=1, size=640)
    assert _all_plain(workload.prefix_at(i) for i in range(workload.total))
    rib = workload.build()
    assert _all_plain(rib.prefixes())
    assert _all_plain(key for key, _path in rib.items())
    assert _all_plain(key for key, _path in rib.entry_paths())
    assert _all_plain(rib.lookup(key).prefix for key in rib.prefixes())
    rebuilt = _rebuilt(_snapshot(rib))
    assert len(rebuilt) == len(rib)
    assert _all_plain(rebuilt.prefixes())
    assert _all_plain(key for key, _path in rebuilt.entry_paths())


# -- one table, whatever the provenance of its keys ---------------------------

def test_named_and_decoded_keys_give_one_digest_and_one_store():
    workload = FullTableWorkload(seed=5, size=320)
    texts = [prefix_text(workload.prefix_at(i)) for i in range(workload.total)]
    texts += ["2001:db8::/32", "2001:db8:1::/48", "::/0"]
    named = [Prefix.parse(text) for text in texts]
    decoded = (decode_nlri_block(encode_nlri_block(named[:-3]))
               + decode_nlri_block(encode_nlri_block(named[-3:]), AFI_IPV6))
    mixed = [a if index % 2 else b
             for index, (a, b) in enumerate(zip(named, decoded))]
    ribs = []
    for keys in (named, decoded, mixed):
        rib = LocRib()
        for index, key in enumerate(keys):
            rib.offer(key, Path(workload.attrs_at(index), "edge0"))
            if index % 7 == 0:
                rib.offer(key, Path(workload.attrs_at(index + 1), "edge1"))
        ribs.append(rib)
    first = ribs[0]
    assert [e["prefix"] for e in first.export_entries()[:1]] == ["0.0.0.0/0"]
    for rib in ribs[1:]:
        assert rib.export_entries() == first.export_entries()
        assert rib.digest() == first.digest()
        for aggregate in (False, True):
            assert _snapshot(rib, aggregate) == _snapshot(first, aggregate)
    # ... and a key of either type probes a table built from the other.
    assert all(ribs[1].best(key) is not None for key in named)
    assert all(first.best(key) is not None for key in decoded)


# -- the collector has nothing per route to walk ------------------------------

def test_loaded_table_adds_no_tracked_object_per_route():
    generator = RouteGenerator(DeterministicRandom(9), 64512)
    wire = encode_nlri_block(generator.prefixes(10_000))
    attrs = generator.attr_pool
    rib = LocRib()
    gc.collect()
    before = len(gc.get_objects())
    # One path per attribute set, shared by every prefix carrying it.
    paths = [Path(attributes, "edge0") for attributes in attrs]
    for index, key in enumerate(decode_nlri_block(wire)):
        rib.offer(key, paths[index % len(paths)])
    added = len(gc.get_objects()) - before
    assert len(rib) == 10_000
    assert added <= 0.05 * len(rib), added / len(rib)
    assert not any(map(gc.is_tracked, rib.prefixes()))
    assert rib._changed is None  # no snapshot read it: nothing recorded


@pytest.mark.parametrize("aggregate", [False, True], ids=["plain", "aggregated"])
def test_rebuilt_table_shares_its_paths(aggregate):
    """A Loc-RIB rebuilt from the 80,000-route table's snapshot holds one
    path per (attributes, peer, source kind), not one per plain record,
    and offers the records in the order the snapshot lists them."""
    live = FullTableWorkload(seed=11, size=80_000).build()
    store = _snapshot(live, aggregate)
    state = BackupRecovery(None, None, "pair0")._parse(sorted(store.items()))
    gc.collect()
    gc.collect()
    before = len(gc.get_objects())
    rebuilt = state.rebuild_loc_rib("v0")
    gc.collect()
    added = len(gc.get_objects()) - before
    assert len(rebuilt) == len(live)
    assert added <= 0.05 * len(rebuilt), added / len(rebuilt)
    assert len({id(path) for _prefix, path in rebuilt.items()}) == len(
        {(path.attributes.to_wire(), path.peer_id, path.source_kind)
         for _prefix, path in live.items()})
    chunks = state.rib_snapshots["v0"]
    assert list(rebuilt.prefixes()) == [
        parse_prefix(entry["prefix"])
        for index in range(state.rib_markers["v0"]["chunks"])
        for entry in expand_snapshot_entries(chunks[index])]
