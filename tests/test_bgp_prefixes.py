"""Prefix parsing, wire format, containment, and longest-prefix match."""

import ipaddress

import pytest
from hypothesis import example, given, strategies as st

from repro.bgp import BgpError, Prefix
from repro.bgp.prefixes import decode_nlri_block, longest_match, prefix_lengths
from repro.forwarding.fib import Fib


def test_parse_ipv4():
    p = Prefix.parse("10.1.2.0/24")
    assert p.length == 24
    assert p.afi == Prefix.AFI_IPV4
    assert str(p) == "10.1.2.0/24"


def test_parse_ipv4_host_route_default_length():
    assert Prefix.parse("192.0.2.1").length == 32


def test_parse_masks_host_bits():
    assert str(Prefix.parse("10.1.2.3/24")) == "10.1.2.0/24"


def test_parse_ipv6():
    p = Prefix.parse("2001:db8::/32")
    assert p.afi == Prefix.AFI_IPV6
    assert p.length == 32
    assert str(p) == "2001:db8:0:0:0:0:0:0/32"


def test_parse_ipv6_full_form():
    p = Prefix.parse("2001:0db8:0000:0000:0000:0000:0000:0001/128")
    assert p.length == 128


def test_bad_addresses_rejected():
    for bad in ("10.1.2", "10.1.2.256", "1.2.3.4.5", "g::1", "::1::2"):
        with pytest.raises(ValueError):
            Prefix.parse(bad)


def test_bad_length_rejected():
    with pytest.raises(ValueError):
        Prefix.parse("10.0.0.0/33")


def test_wire_roundtrip_v4():
    p = Prefix.parse("203.0.113.0/25")
    wire = p.to_wire()
    assert len(wire) == p.wire_size == 1 + 4
    assert decode_nlri_block(wire) == [p]
    assert decode_nlri_block(b"\x00" + wire + wire, offset=1) == [p, p]


def test_wire_minimal_octets():
    assert len(Prefix.parse("10.0.0.0/8").to_wire()) == 2
    assert len(Prefix.parse("10.128.0.0/9").to_wire()) == 3
    assert len(Prefix.parse("0.0.0.0/0").to_wire()) == 1


def test_wire_truncated_raises():
    with pytest.raises(BgpError):
        decode_nlri_block(b"\x18\x0a")  # /24 needs 3 octets


def test_contains():
    outer = Prefix.parse("10.0.0.0/8")
    inner = Prefix.parse("10.1.0.0/16")
    assert outer.contains(inner)
    assert not inner.contains(outer)
    assert outer.contains(outer)
    assert not outer.contains(Prefix.parse("11.0.0.0/16"))


def test_contains_rejects_cross_afi():
    assert not Prefix.parse("0.0.0.0/0").contains(Prefix.parse("::/0"))


def test_ordering_and_hash():
    a = Prefix.parse("10.0.0.0/8")
    b = Prefix.parse("10.0.0.0/16")
    assert a < b
    assert len({a, b, Prefix.parse("10.0.0.0/8")}) == 2


@given(value=st.integers(min_value=0, max_value=2**32 - 1),
       length=st.integers(min_value=0, max_value=32))
def test_wire_roundtrip_property_v4(value, length):
    p = Prefix(value, length)
    assert decode_nlri_block(p.to_wire()) == [p]


@given(value=st.integers(min_value=0, max_value=2**128 - 1),
       length=st.integers(min_value=0, max_value=128))
def test_wire_roundtrip_property_v6(value, length):
    p = Prefix(value, length, Prefix.AFI_IPV6)
    assert decode_nlri_block(p.to_wire(), Prefix.AFI_IPV6) == [p]


@given(text=st.from_regex(r"(25[0-5]|2[0-4][0-9]|1?[0-9]?[0-9])"
                          r"(\.(25[0-5]|2[0-4][0-9]|1?[0-9]?[0-9])){3}/(3[0-2]|[12]?[0-9])",
                          fullmatch=True))
def test_parse_str_roundtrip_property(text):
    p = Prefix.parse(text)
    assert Prefix.parse(str(p)) == p


@given(value=st.integers(min_value=0, max_value=2**32 - 1),
       length=st.integers(min_value=0, max_value=32))
@example(value=0, length=0)
@example(value=2**32 - 1, length=0)
@example(value=2**32 - 1, length=32)
@example(value=0x0A000001, length=32)
def test_str_parse_roundtrip_property_v4(value, length):
    p = Prefix(value, length)
    text = str(p)
    # Dotted quad exactly as the standard library renders it.
    assert text == f"{ipaddress.IPv4Address(p.value)}/{length}"
    assert Prefix.parse(text) == p
    assert str(Prefix.parse(text)) == text


@given(value=st.integers(min_value=0, max_value=2**128 - 1),
       length=st.integers(min_value=0, max_value=128))
@example(value=0, length=0)
@example(value=2**128 - 1, length=0)
@example(value=2**128 - 1, length=128)
@example(value=1, length=128)
def test_str_parse_roundtrip_property_v6(value, length):
    p = Prefix(value, length, Prefix.AFI_IPV6)
    text = str(p)
    # Eight uncompressed groups, no leading zeros.
    exploded = ipaddress.IPv6Address(p.value).exploded.split(":")
    assert text == ":".join(f"{int(g, 16):x}" for g in exploded) + f"/{length}"
    assert Prefix.parse(text) == p
    assert str(Prefix.parse(text)) == text


# -- longest-prefix match (the FIB, and longest_match over a bare dict) -------


def _match(table, key):
    return longest_match(table, prefix_lengths(table), Prefix.parse(key))


def test_trie_exact_and_remove():
    fib = Fib()
    p = Prefix.parse("10.0.0.0/8")
    fib.program(p, "A")
    assert fib.entries()[p].next_hop == "A"
    assert p in fib and len(fib) == 1
    fib.unprogram(p)
    assert p not in fib and fib.lookup("10.0.0.1") is None
    fib.unprogram(p)  # a second unprogram is a no-op
    assert len(fib) == 0


def test_trie_longest_match():
    eight, sixteen = Prefix.parse("10.0.0.0/8"), Prefix.parse("10.1.0.0/16")
    table = {eight: "eight", sixteen: "sixteen"}
    assert _match(table, "10.1.2.0/24") == (sixteen, "sixteen")
    # LPM falls back to the shorter cover when the /16 does not apply.
    assert _match(table, "10.2.0.0/24") == (eight, "eight")
    assert _match(table, "11.0.0.0/24") is None


def test_trie_default_route_matches_everything():
    table = {Prefix.parse("0.0.0.0/0"): "default"}
    assert _match(table, "192.0.2.1/32") == (
        Prefix.parse("0.0.0.0/0"), "default")


def test_trie_host_route_and_remove_then_miss():
    fib = Fib()
    host = Prefix.parse("192.0.2.1/32")
    fib.program(host, "host")
    assert fib.lookup("192.0.2.1").prefix == host
    assert fib.lookup("192.0.2.0") is None
    fib.unprogram(host)
    assert fib.lookup("192.0.2.1") is None
    assert fib.misses == 2 and fib.lookups == 3


def test_trie_update_in_place():
    fib = Fib()
    p = Prefix.parse("10.0.0.0/8")
    fib.program(p, "one")
    fib.program(p, "two", now=1.0)
    assert fib.lookup("10.0.0.1").next_hop == "two"
    assert len(fib) == 1


def test_trie_v4_v6_independent():
    table = {Prefix.parse("0.0.0.0/0"): "v4", Prefix.parse("::/0"): "v6"}
    assert _match(table, "1.2.3.4/32")[1] == "v4"
    assert _match(table, "2001:db8::1/128")[1] == "v6"


# ----------------------------------------------------------------------
# length-0 / max-length edge cases (DESIGN.md §14: longest-prefix match
# leans on these invariants at the shortest and longest lengths)
# ----------------------------------------------------------------------

def test_default_route_contains_everything_including_itself():
    default = Prefix.parse("0.0.0.0/0")
    assert default.contains(default)
    assert default.contains(Prefix.parse("0.0.0.0/32"))
    assert default.contains(Prefix.parse("255.255.255.255/32"))
    assert default.contains(Prefix.parse("128.0.0.0/1"))
    # ...but nothing contains the default except another default
    assert not Prefix.parse("0.0.0.0/1").contains(default)
    assert not Prefix.parse("0.0.0.0/32").contains(default)


def test_v6_default_route_contains_everything():
    default = Prefix.parse("::/0")
    assert default.contains(Prefix.parse("2001:db8::/32"))
    assert default.contains(Prefix.parse("::1/128"))
    assert not default.contains(Prefix.parse("0.0.0.0/0"))  # cross-AFI


def test_host_route_contains_only_itself():
    host = Prefix.parse("192.0.2.1/32")
    assert host.contains(host)
    assert not host.contains(Prefix.parse("192.0.2.1/31"))
    assert not host.contains(Prefix.parse("192.0.2.0/32"))
    v6_host = Prefix.parse("2001:db8::1/128")
    assert v6_host.contains(v6_host)
    assert not v6_host.contains(Prefix.parse("2001:db8::/127"))


# ----------------------------------------------------------------------
# hashing: computed once at construction, stable across every way of
# building an equal prefix and across pickling
# ----------------------------------------------------------------------

def test_equal_prefixes_hash_equal_however_built():
    parsed = Prefix.parse("10.1.0.0/16")
    wired, = decode_nlri_block(parsed.to_wire())
    unmasked = Prefix(0x0A01FFFF, 16)  # host bits set: masked on the way in
    assert parsed == wired == unmasked
    assert hash(parsed) == hash(wired) == hash(unmasked)
    assert hash(parsed) != hash(Prefix.parse("10.1.0.0/17"))
    assert len({parsed, wired, unmasked}) == 1
    v6 = Prefix.parse("2001:db8::/32")
    wired6, = decode_nlri_block(v6.to_wire(), Prefix.AFI_IPV6)
    assert v6 == wired6 and hash(v6) == hash(wired6)
    assert hash(Prefix.parse("::/0")) != hash(Prefix.parse("0.0.0.0/0"))


def test_prefix_is_a_dict_key_across_pickling():
    import pickle

    table = {Prefix.parse("10.1.0.0/16"): "v4", Prefix.parse("2001:db8::/32"): "v6"}
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        shipped = pickle.loads(pickle.dumps(table, protocol))
        assert shipped == table
        for prefix, value in table.items():
            clone = pickle.loads(pickle.dumps(prefix, protocol))
            assert clone == prefix and hash(clone) == hash(prefix)
            assert shipped[clone] == table[clone] == value
