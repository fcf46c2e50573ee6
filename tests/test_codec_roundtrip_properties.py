"""Property round-trip tests for the interned wire codec (PR 1).

Random attribute sets, prefixes and UPDATE messages must survive
``to_wire`` → ``parse`` unchanged, and repeated decodes of the same
bytes must hit the flyweight cache (identity, not just equality).

Hypothesis drives the generation when available (``derandomize=True``
keeps the corpus stable across runs); a ``DeterministicRandom``-seeded
fallback covers the same properties so the file has teeth even without
hypothesis installed.
"""

import pytest

from repro.bgp.attributes import (
    FLAG_OPTIONAL,
    FLAG_PARTIAL,
    FLAG_TRANSITIVE,
    AsPath,
    Origin,
    PathAttributes,
    int_to_ipv4,
)
from repro.bgp.messages import HEADER_SIZE, UpdateMessage
from repro.bgp.prefixes import Prefix, decode_nlri_block
from repro.sim import DeterministicRandom

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - the image bakes hypothesis in
    HAVE_HYPOTHESIS = False

needs_hypothesis = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed"
)

# Unknown attributes must round-trip as opaque (flags, type, value)
# triples; optional+transitive is the only class the decoder carries
# through, and the type must avoid every code the codec understands.
# The decoder marks what it passes on partial (RFC 4271 §5), so the
# generated ones carry that bit already and decode unchanged.
UNKNOWN_FLAGS = FLAG_OPTIONAL | FLAG_TRANSITIVE | FLAG_PARTIAL
UNKNOWN_TYPES = (200, 201, 231, 240)


if HAVE_HYPOTHESIS:
    asns = st.integers(min_value=0, max_value=2**32 - 1)
    ipv4 = st.integers(min_value=0, max_value=2**32 - 1).map(int_to_ipv4)

    as_paths = st.lists(
        st.tuples(st.sampled_from((1, 2)), st.lists(asns, max_size=6)),
        max_size=4,
    ).map(AsPath)

    unknown_attrs = st.lists(
        st.tuples(
            st.just(UNKNOWN_FLAGS),
            st.sampled_from(UNKNOWN_TYPES),
            st.binary(max_size=16),
        ),
        max_size=2,
    ).map(tuple)

    path_attributes = st.builds(
        PathAttributes,
        origin=st.sampled_from(Origin),
        as_path=as_paths,
        next_hop=st.none() | ipv4,
        med=st.none() | st.integers(min_value=0, max_value=2**32 - 1),
        local_pref=st.none() | st.integers(min_value=0, max_value=2**32 - 1),
        atomic_aggregate=st.booleans(),
        aggregator=st.none() | st.tuples(asns, ipv4),
        communities=st.lists(
            st.integers(min_value=0, max_value=2**32 - 1), max_size=8
        ).map(tuple),
        unknown=unknown_attrs,
    )

    v4_prefixes = st.builds(
        Prefix,
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=32),
    )

    updates = st.builds(
        UpdateMessage,
        withdrawn=st.lists(v4_prefixes, max_size=8, unique=True),
        attributes=path_attributes,
        nlri=st.lists(v4_prefixes, max_size=8, unique=True),
    )

    @needs_hypothesis
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(path=as_paths)
    def test_as_path_roundtrip(path):
        assert AsPath.from_wire(path.to_wire()) == path

    @needs_hypothesis
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(attrs=path_attributes)
    def test_path_attributes_roundtrip(attrs):
        wire = attrs.to_wire()
        decoded = PathAttributes._decode(wire)
        assert decoded == attrs
        assert decoded.to_wire() == wire

    @needs_hypothesis
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(attrs=path_attributes)
    def test_path_attributes_flyweight_identity(attrs):
        wire = attrs.to_wire()
        first = PathAttributes.from_wire(wire)
        again = PathAttributes.from_wire(wire)
        assert again is first  # cache hit, not a re-decode
        assert PathAttributes.intern(first) is first

    @needs_hypothesis
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(prefix=v4_prefixes)
    def test_prefix_roundtrip(prefix):
        assert decode_nlri_block(prefix.to_wire()) == [prefix]
        assert len(prefix.to_wire()) == prefix.wire_size

    @needs_hypothesis
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        value=st.integers(min_value=0, max_value=2**128 - 1),
        length=st.integers(min_value=0, max_value=128),
    )
    def test_prefix_v6_roundtrip(value, length):
        prefix = Prefix(value, length, afi=Prefix.AFI_IPV6)
        assert decode_nlri_block(prefix.to_wire(), Prefix.AFI_IPV6) == [prefix]

    @needs_hypothesis
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(message=updates)
    def test_update_message_roundtrip(message):
        wire = message.to_wire()
        decoded = UpdateMessage.from_body(wire[HEADER_SIZE:])
        assert decoded == message
        assert decoded.to_wire() == wire


# ----------------------------------------------------------------------
# seeded fallback (always runs)
# ----------------------------------------------------------------------

def _random_attributes(rng):
    segments = [
        (rng.choice([1, 2]),
         tuple(rng.randint(0, 2**32 - 1) for _ in range(rng.randint(0, 6))))
        for _ in range(rng.randint(0, 3))
    ]
    maybe = lambda value: value if rng.random() < 0.5 else None
    return PathAttributes(
        origin=rng.choice(list(Origin)),
        as_path=AsPath(segments),
        next_hop=maybe(int_to_ipv4(rng.randint(0, 2**32 - 1))),
        med=maybe(rng.randint(0, 2**32 - 1)),
        local_pref=maybe(rng.randint(0, 2**32 - 1)),
        atomic_aggregate=rng.random() < 0.5,
        aggregator=maybe(
            (rng.randint(0, 2**32 - 1), int_to_ipv4(rng.randint(0, 2**32 - 1)))
        ),
        communities=tuple(
            rng.randint(0, 2**32 - 1) for _ in range(rng.randint(0, 8))
        ),
        unknown=tuple(
            (UNKNOWN_FLAGS, rng.choice(UNKNOWN_TYPES),
             bytes(rng.randint(0, 255) for _ in range(rng.randint(0, 16))))
            for _ in range(rng.randint(0, 2))
        ),
    )


def _random_prefixes(rng, count):
    seen = {}
    for _ in range(count):
        prefix = Prefix(rng.randint(0, 2**32 - 1), rng.randint(0, 32))
        seen[(prefix.value, prefix.length)] = prefix
    return tuple(seen.values())


def test_seeded_codec_roundtrip_corpus():
    rng = DeterministicRandom(401).stream("codec")
    for _ in range(150):
        attrs = _random_attributes(rng)
        wire = attrs.to_wire()
        assert PathAttributes._decode(wire) == attrs
        assert PathAttributes.from_wire(wire) is PathAttributes.from_wire(wire)

        message = UpdateMessage(
            withdrawn=_random_prefixes(rng, rng.randint(0, 6)),
            attributes=attrs,
            nlri=_random_prefixes(rng, rng.randint(0, 6)),
        )
        body = message.to_wire()[HEADER_SIZE:]
        assert UpdateMessage.from_body(body) == message
