"""Update packing: grouping by attributes, message-size budgeting."""

from hypothesis import given, strategies as st

from repro.bgp import PathAttributes, Prefix
from repro.bgp.attributes import AsPath
from repro.bgp.messages import MAX_MESSAGE_SIZE, MessageDecoder
from repro.bgp.packing import group_routes, pack_group, pack_withdrawals

A1 = PathAttributes(as_path=AsPath.sequence(65001), next_hop="1.1.1.1")
A2 = PathAttributes(as_path=AsPath.sequence(65002), next_hop="1.1.1.1")


def _pack(routes):
    """Group ``routes`` by attribute set and pack each group, as the
    speaker's advertisement plan does."""
    return [message for _afi, attributes, prefixes in group_routes(routes)
            for message in pack_group(attributes, prefixes)]


def _prefixes(n, length=24):
    return [Prefix(i << (32 - length), length) for i in range(n)]


def test_shared_attributes_pack_into_one_message():
    routes = [(p, A1) for p in _prefixes(100)]
    messages = _pack(routes)
    assert len(messages) == 1
    assert len(messages[0].nlri) == 100


def test_distinct_attributes_split_messages():
    routes = [(p, A1 if i % 2 == 0 else A2) for i, p in enumerate(_prefixes(10))]
    messages = _pack(routes)
    assert len(messages) == 2
    assert {len(m.nlri) for m in messages} == {5}


def test_messages_respect_size_limit():
    routes = [(p, A1) for p in _prefixes(3000)]
    messages = _pack(routes)
    assert len(messages) > 1
    for message in messages:
        assert len(message.to_wire()) <= MAX_MESSAGE_SIZE


def test_no_prefix_lost_or_duplicated():
    routes = [(p, A1 if i % 3 else A2) for i, p in enumerate(_prefixes(2500))]
    messages = _pack(routes)
    packed = [p for m in messages for p in m.nlri]
    assert sorted(packed) == sorted(p for p, _a in routes)
    assert len(set(packed)) == len(packed)


def test_packed_messages_decode():
    routes = [(p, A1) for p in _prefixes(1500)]
    for message in _pack(routes):
        [(decoded, _)] = MessageDecoder().feed(message.to_wire())
        assert decoded == message


def test_pack_withdrawals_batches():
    messages = pack_withdrawals(_prefixes(3000))
    assert len(messages) > 1
    got = [p for m in messages for p in m.withdrawn]
    assert sorted(got) == sorted(_prefixes(3000))
    for message in messages:
        assert len(message.to_wire()) <= MAX_MESSAGE_SIZE
        assert not message.nlri


def test_empty_input():
    assert _pack([]) == []
    assert pack_withdrawals([]) == []


def test_order_of_first_appearance_preserved():
    routes = [(Prefix(1 << 8, 24), A2), (Prefix(2 << 8, 24), A1), (Prefix(3 << 8, 24), A2)]
    messages = _pack(routes)
    assert messages[0].attributes == A2
    assert messages[1].attributes == A1


@given(n=st.integers(min_value=1, max_value=4000),
       pool=st.integers(min_value=1, max_value=5))
def test_packing_property_complete_and_bounded(n, pool):
    attrs = [
        PathAttributes(as_path=AsPath.sequence(65000 + i), next_hop="1.1.1.1")
        for i in range(pool)
    ]
    routes = [(p, attrs[i % pool]) for i, p in enumerate(_prefixes(n))]
    messages = _pack(routes)
    packed = [p for m in messages for p in m.nlri]
    assert len(packed) == n
    for message in messages:
        assert len(message.to_wire()) <= MAX_MESSAGE_SIZE
    # optimality-ish: message count is at most pool + total-size bound
    total_nlri_bytes = sum(p.wire_size for p, _a in routes)
    assert len(messages) <= pool + total_nlri_bytes // 3500 + pool
