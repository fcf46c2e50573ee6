"""Path attributes: AS paths, wire roundtrips, policy helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.bgp import AsPath, Origin, PathAttributes
from repro.bgp.attributes import (
    FLAG_OPTIONAL,
    FLAG_PARTIAL,
    FLAG_TRANSITIVE,
    SEGMENT_SEQUENCE,
    SEGMENT_SET,
    int_to_ipv4,
    ipv4_to_int,
)
from repro.bgp.errors import BgpError


def test_ipv4_helpers_roundtrip():
    assert int_to_ipv4(ipv4_to_int("192.0.2.1")) == "192.0.2.1"
    assert ipv4_to_int("0.0.0.0") == 0
    assert ipv4_to_int("255.255.255.255") == 2**32 - 1


def test_as_path_sequence_and_length():
    path = AsPath.sequence(65001, 65002, 65003)
    assert path.path_length() == 3
    assert path.as_list() == [65001, 65002, 65003]
    assert path.first_as() == 65001


def test_as_set_counts_one_hop():
    path = AsPath([(SEGMENT_SEQUENCE, (1, 2)), (SEGMENT_SET, (3, 4, 5))])
    assert path.path_length() == 3  # 2 + 1


def test_prepend_extends_head_sequence():
    path = AsPath.sequence(65002)
    prepended = path.prepend(65001, count=2)
    assert prepended.as_list() == [65001, 65001, 65002]
    assert path.as_list() == [65002]  # original untouched


def test_prepend_to_empty_path():
    assert AsPath().prepend(65001).as_list() == [65001]


def test_prepend_before_as_set_creates_new_segment():
    path = AsPath([(SEGMENT_SET, (3, 4))])
    prepended = path.prepend(1)
    assert prepended.segments[0] == (SEGMENT_SEQUENCE, (1,))


def test_contains_for_loop_detection():
    path = AsPath.sequence(65001, 65002)
    assert path.contains(65002)
    assert not path.contains(65003)


def test_as_path_wire_roundtrip_4_octet():
    path = AsPath([(SEGMENT_SEQUENCE, (70000, 65001)), (SEGMENT_SET, (2, 3))])
    assert AsPath.from_wire(path.to_wire()) == path


def test_as_path_truncated_wire_raises():
    wire = AsPath.sequence(65001).to_wire()
    with pytest.raises(BgpError):
        AsPath.from_wire(wire[:-1])


def test_attributes_default_values():
    attrs = PathAttributes()
    assert attrs.origin is Origin.IGP
    assert attrs.as_path.path_length() == 0
    assert attrs.local_pref is None


def test_attributes_wire_roundtrip_full():
    attrs = PathAttributes(
        origin=Origin.EGP,
        as_path=AsPath.sequence(70000, 65001),
        next_hop="192.0.2.7",
        med=50,
        local_pref=200,
        atomic_aggregate=True,
        aggregator=(65001, "10.0.0.1"),
        communities=(0x00010002, 0xFFFF0001),
    )
    assert PathAttributes.from_wire(attrs.to_wire()) == attrs


def test_attributes_wire_roundtrip_minimal():
    attrs = PathAttributes(next_hop="1.2.3.4")
    assert PathAttributes.from_wire(attrs.to_wire()) == attrs


def test_unknown_optional_transitive_passthrough():
    """Type and value pass through verbatim; the flags gain the Partial
    bit (RFC 4271 §5), once: passing the set on again changes nothing."""
    attrs = PathAttributes(
        next_hop="1.2.3.4",
        unknown=((FLAG_OPTIONAL | FLAG_TRANSITIVE, 99, b"opaque"),),
    )
    decoded = PathAttributes.from_wire(attrs.to_wire())
    assert decoded.unknown == (
        (FLAG_OPTIONAL | FLAG_TRANSITIVE | FLAG_PARTIAL, 99, b"opaque"),)
    assert PathAttributes.from_wire(decoded.to_wire()) is decoded


def test_unrecognized_wellknown_raises():
    # flags=transitive only (well-known), unknown type 77
    wire = bytes([FLAG_TRANSITIVE, 77, 1, 0])
    with pytest.raises(BgpError):
        PathAttributes.from_wire(wire)


def test_bad_origin_value_raises():
    wire = bytes([FLAG_TRANSITIVE, 1, 1, 9])
    with pytest.raises(BgpError):
        PathAttributes.from_wire(wire)


def test_truncated_attribute_raises():
    attrs = PathAttributes(next_hop="1.2.3.4")
    with pytest.raises(BgpError):
        PathAttributes.from_wire(attrs.to_wire()[:-2])


def test_extended_length_encoding():
    # a very long AS path forces the extended-length flag
    attrs = PathAttributes(as_path=AsPath.sequence(*range(1, 101)))
    assert PathAttributes.from_wire(attrs.to_wire()) == attrs


def test_replace_makes_modified_copy():
    attrs = PathAttributes(local_pref=100)
    changed = attrs.replace(local_pref=300, med=5)
    assert attrs.local_pref == 100
    assert changed.local_pref == 300 and changed.med == 5


def test_key_equality_and_hash():
    a = PathAttributes(next_hop="1.1.1.1", communities=(1, 2))
    b = PathAttributes(next_hop="1.1.1.1", communities=(1, 2))
    c = PathAttributes(next_hop="1.1.1.2", communities=(1, 2))
    assert a == b and hash(a) == hash(b)
    assert a != c


@st.composite
def attributes_strategy(draw):
    asns = draw(st.lists(st.integers(min_value=1, max_value=2**32 - 1),
                         min_size=0, max_size=6))
    return PathAttributes(
        origin=Origin(draw(st.integers(min_value=0, max_value=2))),
        as_path=AsPath.sequence(*asns),
        next_hop=draw(st.one_of(st.none(), st.just("192.0.2.1"), st.just("10.9.8.7"))),
        med=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1))),
        local_pref=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1))),
        atomic_aggregate=draw(st.booleans()),
        aggregator=draw(st.one_of(st.none(), st.just((65001, "10.0.0.1")))),
        communities=tuple(draw(st.lists(
            st.integers(min_value=0, max_value=2**32 - 1), max_size=5))),
    )


@given(attrs=attributes_strategy())
def test_attributes_wire_roundtrip_property(attrs):
    assert PathAttributes.from_wire(attrs.to_wire()) == attrs
