"""Longest-prefix-match property tests (DESIGN.md §14).

Every LPM table in the tree probes one dict per prefix length in its
census (:func:`repro.bgp.prefixes.longest_match`): the Loc-RIB's
``lookup``, the FIB's ``lookup`` and a prefix list's ``matches``.  Each
must agree with the brute-force flat-dict reference
(:class:`tests.rib_reference.DictPrefixStore`) on every query, under
insert and remove churn, over random prefix sets that include the edge
positions: 0.0.0.0/0 and ::/0 (the shortest length), /32 and /128 host
routes (the longest), dense sibling runs, both families at once, and
lengths whose last prefix has been removed (a census entry with nothing
left under it).  The FIB's sorted ``entries()`` must equal the sorted
key set throughout.

A prefix list has no remove: the controller pushes a new one, so at
each check after a removal the list is rebuilt from what is left.

Hypothesis drives the prefix sets when available (``derandomize=True``
keeps runs stable); a ``DeterministicRandom``-seeded fallback covers the
same properties without it.
"""

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.policy import PrefixList
from repro.bgp.prefixes import (
    Prefix,
    longest_match,
    note_length,
    prefix_lengths,
    prefix_text,
)
from repro.bgp.rib import LocRib, Path
from repro.forwarding.fib import Fib
from repro.sim import DeterministicRandom
from tests.rib_reference import DictPrefixStore

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - the image bakes hypothesis in
    HAVE_HYPOTHESIS = False

needs_hypothesis = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed"
)

_PATH = Path(PathAttributes(as_path=AsPath.sequence(64512),
                            next_hop="192.0.2.1"), "peer")
V6_TOP = 1 << 127


def _v4(value, length):
    return Prefix(value, length, Prefix.AFI_IPV4)


def _v6(value, length):
    return Prefix(value, length, Prefix.AFI_IPV6)


def _keys(pairs):
    """The v4 prefixes of ``pairs``, and every other one again as IPv6
    (value in the top bits), so the families hold different lengths."""
    keys = [_v4(value, length) for value, length in pairs]
    keys += [_v6(value << 96, length) for value, length in pairs[1::2]]
    return keys


if HAVE_HYPOTHESIS:
    # Bias toward clustered values so siblings and shared stems
    # actually occur; pure-uniform 32-bit values almost never collide
    # in their leading bits.
    prefix_sets = st.lists(
        st.tuples(
            st.one_of(
                st.integers(min_value=0, max_value=2**32 - 1),
                st.builds(lambda hi, lo: (hi << 24) | lo,
                          st.integers(min_value=0, max_value=3),
                          st.integers(min_value=0, max_value=255)),
            ),
            st.one_of(
                st.integers(min_value=0, max_value=32),
                st.sampled_from([0, 1, 8, 16, 24, 31, 32]),
            ),
        ),
        min_size=0, max_size=60,
    )
    query_seeds = st.integers(min_value=0, max_value=2**16)
else:  # pragma: no cover
    prefix_sets = None
    query_seeds = None


class Tables:
    """The three LPM tables and the reference, churned in step.

    The Loc-RIB takes its census at its first lookup, so a table
    checked early grows it through ``offer`` and one checked late
    takes it in one pass; the FIB and the prefix list grow theirs from
    the first insert.
    """

    def __init__(self, keys=()):
        self.rib, self.fib, self.ref = LocRib(), Fib(), DictPrefixStore()
        self.plist = PrefixList("p")
        for key in keys:
            self.insert(key)

    def insert(self, key, value=None):
        value = value or prefix_text(key)
        self.rib.offer(key, _PATH)
        self.fib.program(key, value)
        self.plist.add(key)
        self.ref.insert(key, value)

    def remove(self, key):
        self.rib.retract(key, "peer")
        self.fib.unprogram(key)
        removed = self.ref.remove(key)
        self.plist = PrefixList("p", self.ref)  # pushed anew, as one is
        return removed

    def check(self, points):
        assert list(self.fib.entries()) == list(self.ref)
        assert len(self.fib) == len(self.rib) == len(list(self.ref))
        for point in points:
            expected = self.ref.longest_match(point)
            route = self.rib.lookup(point)
            assert (None if route is None else route.prefix) == (
                None if expected is None else expected[0]), prefix_text(point)
            entry = self.fib.lookup(prefix_text(point))
            assert (None if entry is None
                    else (entry.prefix, entry.next_hop)) == expected
            assert self.plist.matches(point) == (expected is not None)


def _query_points(keys, rng):
    """Query positions: the stored prefixes themselves, their parents
    and single-bit perturbations, plus the global edges of both
    families."""
    points = [_v4(0, 0), _v4(0, 32), _v4(2**32 - 1, 32),
              _v6(0, 0), _v6(0, 128), _v6(2**128 - 1, 128)]
    for key in keys[:24]:
        bits, length, value = key.bits, key.length, key.value
        points.append(key)
        if length:
            points.append(Prefix(value, length - 1, key.afi))
            points.append(Prefix(value ^ (1 << (bits - length)), length,
                                 key.afi))
        if length < bits:
            points.append(Prefix(value, length + 1, key.afi))
    for _ in range(8):
        points.append(_v4(rng.randrange(2**32), rng.randrange(33)))
        points.append(_v6(rng.randrange(2**128), rng.randrange(129)))
    return points


def _assert_insert_query_equivalence(pairs, seed):
    rng = DeterministicRandom(seed).stream("lpm-query")
    keys = _keys(pairs)
    tables = Tables()
    tables.check(_query_points(keys, rng)[:6])  # the census, on empty
    for key in keys:
        tables.insert(key)
    tables.check(_query_points(keys, rng))


def _assert_delete_equivalence(pairs, seed):
    rng = DeterministicRandom(seed).stream("lpm-delete")
    keys = _keys(pairs)
    tables = Tables(keys)
    unique = list(dict.fromkeys(keys))
    rng.shuffle(unique)
    # Interleave removals (including double removes, which must change
    # nothing) with re-queries, so a length left empty is probed while
    # it is still in the census.
    for index, key in enumerate(unique):
        assert tables.remove(key)
        assert not tables.remove(key)
        if index % 5 == 0:
            tables.check(_query_points(keys, rng)[:12])
    assert len(tables.fib) == len(tables.rib) == 0
    tables.check(_query_points(keys, rng))


def _assert_reinsert_stability(pairs, seed):
    """Insert, remove half, re-insert: answers converge, values win
    last-writer."""
    rng = DeterministicRandom(seed).stream("lpm-reinsert")
    keys = _keys(pairs)
    tables = Tables(keys)
    tables.check(_query_points(keys, rng)[:6])
    unique = list(dict.fromkeys(keys))
    doomed = [key for index, key in enumerate(unique) if index % 2]
    for key in doomed:
        tables.remove(key)
    for key in doomed:
        tables.insert(key, "again:" + prefix_text(key))
    tables.check(_query_points(keys, rng))


@needs_hypothesis
@settings(derandomize=True, max_examples=120, deadline=None)
@given(pairs=prefix_sets, seed=query_seeds)
def test_insert_query_equivalence(pairs, seed):
    _assert_insert_query_equivalence(pairs, seed)


@needs_hypothesis
@settings(derandomize=True, max_examples=60, deadline=None)
@given(pairs=prefix_sets, seed=query_seeds)
def test_delete_equivalence(pairs, seed):
    _assert_delete_equivalence(pairs, seed)


@needs_hypothesis
@settings(derandomize=True, max_examples=40, deadline=None)
@given(pairs=prefix_sets, seed=query_seeds)
def test_reinsert_stability(pairs, seed):
    _assert_reinsert_stability(pairs, seed)


def _random_pairs(seed, count):
    rng = DeterministicRandom(seed).stream("lpm-gen")
    pairs = []
    for _ in range(count):
        if rng.random() < 0.5:
            value = (rng.randrange(4) << 24) | rng.randrange(256)
        else:
            value = rng.randrange(2**32)
        pairs.append((value, rng.choice([0, 1, 8, 16, 20, 24, 31, 32])))
    return pairs


@pytest.mark.parametrize("seed", range(12))
def test_equivalence_seeded_fallback(seed):
    pairs = _random_pairs(seed, 40 + seed)
    _assert_insert_query_equivalence(pairs, seed)
    _assert_delete_equivalence(pairs, seed)
    _assert_reinsert_stability(pairs, seed)


def test_default_route_and_host_routes():
    tables = Tables([_v4(0, 0), _v4(0, 32), _v4(2**32 - 1, 32),
                     _v4(0x0A000000, 8), _v4(0x0A000000, 32),
                     _v6(0, 0), _v6(1, 128)])
    # /0 covers everything in its family; LPM falls back to it.
    assert tables.rib.lookup(_v4(0xC0A80101, 32)).prefix == _v4(0, 0)
    assert tables.fib.lookup("192.168.1.1").prefix == _v4(0, 0)
    assert tables.fib.lookup("10.0.0.1").prefix == _v4(0x0A000000, 8)
    assert tables.fib.lookup("10.0.0.0").prefix == _v4(0x0A000000, 32)
    assert tables.fib.lookup("::1").prefix == _v6(1, 128)
    assert tables.fib.lookup("::2").prefix == _v6(0, 0)
    tables.check(_query_points([_v4(0, 0), _v6(1, 128)],
                               DeterministicRandom(7).stream("lpm-query")))
    # without the defaults only the host routes and the /8 answer
    for default in (_v4(0, 0), _v6(0, 0)):
        assert tables.remove(default)
    assert tables.fib.lookup("192.168.1.1") is None
    assert tables.fib.lookup("::2") is None
    assert not tables.plist.matches(_v6(2, 128))
    tables.check(_query_points([_v4(0, 32), _v6(1, 128)],
                               DeterministicRandom(8).stream("lpm-query")))


def test_afi_separation():
    v4, v6 = Prefix.parse("10.0.0.0/8"), Prefix.parse("2001:db8::/32")
    tables = Tables([v4, v6, Prefix.parse("::/0")])
    assert tables.rib.lookup(Prefix.parse("10.1.0.0/16")).prefix == v4
    assert tables.fib.lookup("2001:db8:1::1").prefix == v6
    # Sorted entries: the v4 family before v6, the keys' native order.
    assert list(tables.fib.entries()) == [v4, Prefix.parse("::/0"), v6]
    # The v6 default covers no v4 key, and the census is per family:
    # the /8 is never probed for a v6 key, nor the /0 for a v4 one.
    assert tables.rib.lookup(Prefix.parse("192.0.2.0/24")) is None
    assert not tables.plist.matches(Prefix.parse("192.0.2.0/24"))
    assert tables.fib.lookup("192.0.2.1") is None
    assert tables.fib.lookup("2001:db9::1").prefix == Prefix.parse("::/0")
    lengths = prefix_lengths([v4, v6, Prefix.parse("::/0")])
    assert lengths == ([8], [32, 0])
    assert longest_match({v6: "v6"}, lengths, Prefix.parse("10.0.0.0/8")) \
        is None


def test_length_left_empty_stays_in_the_census():
    """The last /15 leaves: its length stays in every census and is
    probed for nothing; a /15 query falls back to the /14, and a /16
    sibling still answers for its own addresses."""
    cover, fork = _v4(0x0A000000, 14), _v4(0x0A000000, 15)
    left, right = _v4(0x0A000000, 16), _v4(0x0A010000, 16)
    points = [fork, left, right, cover, _v4(0x0A008000, 17),
              _v4(0x0A010001, 32), _v4(0x0A020000, 16), _v4(0, 0)]
    for order in ((left, right, fork, cover), (fork, cover, left, right)):
        tables = Tables(order)
        tables.check(points)  # the Loc-RIB's census, taken with /15 in
        assert tables.remove(fork)
        tables.check(points)
        assert 15 in tables.rib._lengths[0] and 15 in tables.fib._lengths[0]
        assert tables.rib.lookup(fork).prefix == cover
        assert tables.fib.lookup("10.1.0.1").prefix == right
    # the same at the IPv6 root: /1 siblings under a /0 that leaves
    zero, one, root = _v6(0, 1), _v6(V6_TOP, 1), _v6(0, 0)
    tables = Tables([zero, one, root])
    v6_points = [root, zero, one, _v6(V6_TOP, 128), _v6(0, 128)]
    tables.check(v6_points)
    assert tables.remove(root) and tables.remove(zero)
    tables.check(v6_points)
    assert tables.rib.lookup(_v6(0, 128)) is None


def test_census_grows_only_with_a_new_length():
    lengths = prefix_lengths([])
    assert lengths == ([], [])
    for key in (_v4(0, 24), _v4(1 << 8, 24), _v4(0, 32), _v6(0, 128),
                _v4(0, 0)):
        note_length(lengths, key)
    assert lengths == ([32, 24, 0], [128])
    assert prefix_lengths([_v4(0, 24), _v4(0, 32), _v4(0, 0),
                           _v6(0, 128)]) == lengths


def test_ipv6_extreme_lengths_against_reference():
    stored = [
        _v6(0, 0), _v6(0, 1), _v6(V6_TOP, 1),
        _v6(0, 127), _v6(2, 127), _v6(2**128 - 2, 127),
        _v6(0, 128), _v6(1, 128), _v6(2**128 - 1, 128), _v6(V6_TOP, 128),
    ]
    points = stored + [
        _v6(3, 128), _v6(2, 128), _v6(V6_TOP | 1, 128), _v6(V6_TOP, 2),
        _v6(1 << 126, 2), _v6(2**128 - 1, 127), _v6(0, 64), _v6(4, 126),
    ]
    for order in (stored, stored[::-1]):
        tables = Tables(order)
        tables.check(points)
        # shrink from each end: every intermediate table must agree too
        for key in order[::2]:
            assert tables.remove(key)
            tables.check(points)
    # the bare extremes, each alone in the table
    for lone in (_v6(0, 0), _v6(V6_TOP, 1), _v6(2, 127), _v6(2**128 - 1, 128)):
        Tables([lone]).check(points)
