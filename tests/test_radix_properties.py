"""RadixTrie property tests (DESIGN.md §14).

The path-compressed trie must agree with the brute-force flat-dict
reference (:class:`tests.rib_reference.DictPrefixStore`) on every query —
exact get, membership, longest-prefix match, covering chains, covered
walks, and full sorted iteration — over random prefix sets that include
the edge positions: 0.0.0.0/0 (the root carries an entry), /32 host
routes (maximum depth), dense sibling runs (split-heavy), and interleaved
deletes (prune-heavy).

Hypothesis drives the prefix sets when available (``derandomize=True``
keeps runs stable); a ``DeterministicRandom``-seeded fallback covers the
same properties without it.
"""

import pytest

from repro.bgp.prefixes import Prefix
from repro.bgp.radix import RadixTrie
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


def _v4(value, length):
    return Prefix(value, length, Prefix.AFI_IPV4)


if HAVE_HYPOTHESIS:
    # Bias toward clustered values so sibling splits and shared stems
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


def _build_both(pairs):
    trie, ref = RadixTrie(), DictPrefixStore()
    for value, length in pairs:
        prefix = _v4(value, length)
        trie.insert(prefix, str(prefix))
        ref.insert(prefix, str(prefix))
    return trie, ref


def _query_points(pairs, rng):
    """Query positions: the stored prefixes themselves, their parents
    and single-bit perturbations, plus the global edges."""
    points = [_v4(0, 0), _v4(0, 32), _v4(2**32 - 1, 32)]
    for value, length in pairs[:24]:
        points.append(_v4(value, length))
        if length:
            points.append(_v4(value, length - 1))
            points.append(_v4(value ^ (1 << (32 - length)), length))
        if length < 32:
            points.append(_v4(value, length + 1))
    for _ in range(8):
        points.append(_v4(rng.randrange(2**32), rng.randrange(33)))
    return points


def _assert_equivalent(trie, ref, points):
    assert len(trie) == len(ref)
    assert list(trie.walk()) == list(ref.walk())
    assert list(trie) == list(ref)
    for point in points:
        assert trie.get(point) == ref.get(point)
        assert (point in trie) == (point in ref)
        assert trie.longest_match(point) == ref.longest_match(point)
        assert list(trie.covering(point)) == list(ref.covering(point))
        assert list(trie.covered(point)) == list(ref.covered(point))


def _assert_insert_query_equivalence(pairs, seed):
    rng = DeterministicRandom(seed).stream("radix-query")
    trie, ref = _build_both(pairs)
    _assert_equivalent(trie, ref, _query_points(pairs, rng))


def _assert_delete_equivalence(pairs, seed):
    rng = DeterministicRandom(seed).stream("radix-delete")
    trie, ref = _build_both(pairs)
    unique = list(dict.fromkeys(_v4(v, l) for v, l in pairs))
    rng.shuffle(unique)
    # Interleave removals (including double-removes, which must be
    # no-op False) with re-queries so pruning bugs surface mid-stream.
    for index, prefix in enumerate(unique):
        assert trie.remove(prefix) == ref.remove(prefix)
        assert trie.remove(prefix) == ref.remove(prefix) == False  # noqa: E712
        if index % 5 == 0:
            _assert_equivalent(trie, ref, _query_points(pairs, rng)[:12])
    assert len(trie) == 0
    assert list(trie.walk()) == []


def _assert_reinsert_stability(pairs, seed):
    """Insert, remove half, re-insert: structure converges, values win
    last-writer."""
    rng = DeterministicRandom(seed).stream("radix-reinsert")
    trie, ref = _build_both(pairs)
    unique = list(dict.fromkeys(_v4(v, l) for v, l in pairs))
    doomed = [p for i, p in enumerate(unique) if i % 2]
    for prefix in doomed:
        trie.remove(prefix)
        ref.remove(prefix)
    for prefix in doomed:
        trie.insert(prefix, "again:" + str(prefix))
        ref.insert(prefix, "again:" + str(prefix))
    _assert_equivalent(trie, ref, _query_points(pairs, rng))


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
    rng = DeterministicRandom(seed).stream("radix-gen")
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
    trie, ref = _build_both([(0, 0), (0, 32), (2**32 - 1, 32),
                             (0x0A000000, 8), (0x0A000000, 32)])
    # /0 covers everything; LPM through it must fall back correctly.
    assert trie.longest_match(_v4(0xC0A80101, 32)) == (_v4(0, 0), "0.0.0.0/0")
    assert trie.longest_match(_v4(0x0A000001, 32)) == (
        _v4(0x0A000000, 8), "10.0.0.0/8")
    assert trie.longest_match(_v4(0x0A000000, 32)) == (
        _v4(0x0A000000, 32), "10.0.0.0/32")
    assert [p for p, _ in trie.covered(_v4(0, 0))] == sorted(
        p for p, _ in ref.walk())
    _assert_equivalent(trie, ref, _query_points(
        [(0, 0), (0, 32), (2**32 - 1, 32)],
        DeterministicRandom(7).stream("radix-query")))


def test_afi_separation():
    trie = RadixTrie()
    v4 = Prefix.parse("10.0.0.0/8")
    v6 = Prefix.parse("2001:db8::/32")
    trie.insert(v4, "v4")
    trie.insert(v6, "v6")
    assert trie.longest_match(Prefix.parse("10.1.0.0/16")) == (v4, "v4")
    assert trie.longest_match(Prefix.parse("2001:db8:1::/48")) == (v6, "v6")
    # Walk order: v4 AFI before v6, the keys' native int order.
    assert [p for p, _ in trie.walk()] == [v4, v6]
    assert trie.longest_match(Prefix.parse("192.0.2.0/24")) is None


# -- int-descent edges: the widest AFI's extremes and forks at stored keys --

V6_TOP = 1 << 127


def _v6(value, length):
    return Prefix(value, length, Prefix.AFI_IPV6)


def _build_both_from(prefixes):
    trie, ref = RadixTrie(), DictPrefixStore()
    for prefix in prefixes:
        trie.insert(prefix, str(prefix))
        ref.insert(prefix, str(prefix))
    return trie, ref


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
        trie, ref = _build_both_from(order)
        _assert_equivalent(trie, ref, points)
        # shrink from each end: every intermediate shape must agree too
        for prefix in order[::2]:
            assert trie.remove(prefix) == ref.remove(prefix) is True
            _assert_equivalent(trie, ref, points)
    # the bare extremes, each alone in the trie
    for lone in (_v6(0, 0), _v6(V6_TOP, 1), _v6(2, 127), _v6(2**128 - 1, 128)):
        trie, ref = _build_both_from([lone])
        _assert_equivalent(trie, ref, points)


def test_fork_exactly_at_a_stored_prefix():
    """Two siblings force a fork node at 10.0.0.0/15; storing that very
    prefix afterwards must land on the fork (not beside it), and storing
    it first must make the siblings its children."""
    left, right = _v4(0x0A000000, 16), _v4(0x0A010000, 16)
    fork = _v4(0x0A000000, 15)
    points = [fork, left, right, _v4(0x0A000000, 14), _v4(0x0A008000, 17),
              _v4(0x0A010001, 32), _v4(0x0A020000, 16), _v4(0, 0)]
    for order in ((left, right, fork), (fork, left, right),
                  (left, fork, right)):
        trie, ref = _build_both_from(order)
        _assert_equivalent(trie, ref, points)
        assert [p for p, _ in trie.covered(fork)] == [fork, left, right]
        assert trie.longest_match(_v4(0x0A010001, 32))[0] == right
        assert trie.longest_match(_v4(0x0A008000, 17))[0] == left
        # dropping the fork's entry keeps it as a pure branch point
        assert trie.remove(fork) and ref.remove(fork)
        _assert_equivalent(trie, ref, points)
        assert trie.longest_match(_v4(0x0A000000, 15)) is None
    # the same shape at the IPv6 root: /1 siblings fork at /0 itself
    zero, one, root = _v6(0, 1), _v6(V6_TOP, 1), _v6(0, 0)
    trie, ref = _build_both_from([zero, one])
    _assert_equivalent(trie, ref, [root, zero, one, _v6(V6_TOP, 128)])
    trie.insert(root, "root")
    ref.insert(root, "root")
    _assert_equivalent(trie, ref, [root, zero, one, _v6(V6_TOP, 128)])
