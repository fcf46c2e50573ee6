"""The fixed-width NLRI kernel against the per-prefix code it replaced.

``fixed_width_block`` (encode) and the run search in
``decode_nlri_block`` (decode) must give what the per-prefix encoder,
greedy cut and decoder kept in ``tests/nlri_reference.py`` give: the
same keys or the same ``BgpError``, byte-identical blocks and UPDATEs.
The kernel's own spies pin where it applies — from :data:`RUN_MIN`
prefixes of one IPv4 length on, never for IPv6 — and that its run
search reads the block a bounded number of times whatever the lengths.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.bgp.packing as packing
import repro.bgp.prefixes as prefixes
from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.errors import BgpError
from repro.bgp.messages import HEADER_SIZE, MAX_MESSAGE_SIZE
from repro.bgp.prefixes import (
    AFI_IPV4,
    AFI_IPV6,
    RUN_MIN,
    decode_nlri_block,
    encode_nlri_block,
    fixed_width_block,
    prefix_key,
)

import nlri_reference as reference

ATTRS = PathAttributes(as_path=AsPath.sequence(65001), next_hop="1.1.1.1")
#: The NLRI bytes one UPDATE carrying ATTRS has room for.
BUDGET = MAX_MESSAGE_SIZE - HEADER_SIZE - 4 - len(ATTRS.to_wire())


def _verdict(decode, data, afi=AFI_IPV4, offset=0, end=None):
    """The keys, or the error as ``(code, subcode, message)``."""
    try:
        return decode(data, afi, offset, end)
    except BgpError as error:
        return error.code, error.subcode, str(error)


def _raw_keys(rng, length, count):
    """IPv4 keys of ``length`` whose values keep their host bits set."""
    return [rng.getrandbits(32) << 8 | length for _ in range(count)]


def _raw_wire(rng, lengths):
    """A block of prefixes with these length octets and random octets
    after each: host bits set on the wire."""
    return b"".join(bytes((length,)) + rng.randbytes((length + 7) // 8)
                    for length in lengths)


@pytest.fixture
def runs(monkeypatch):
    """The size of every run the decode kernel takes."""
    taken = []
    kernel = prefixes._decode_run

    def spy(data, offset, run, length):
        taken.append(run)
        return kernel(data, offset, run, length)

    monkeypatch.setattr(prefixes, "_decode_run", spy)
    return taken


@pytest.mark.parametrize("length", range(33))
def test_every_ipv4_length_around_the_threshold(length, runs):
    rng = random.Random(length)
    width = (length + 7) // 8 + 1
    for count in (RUN_MIN - 1, RUN_MIN, RUN_MIN + 1, 5 * RUN_MIN + 3):
        keys = _raw_keys(rng, length, count)
        wire = b"".join(reference.nlri_wires(keys))
        assert encode_nlri_block(keys) == wire
        fixed = fixed_width_block(keys)
        assert fixed == (None if count < RUN_MIN else (width, wire))
        del runs[:]
        raw = _raw_wire(rng, [length] * count)
        decoded = decode_nlri_block(raw)
        assert decoded == reference.decode_block(raw)
        assert runs == ([] if count < RUN_MIN else [count])
        assert all(type(key) is int for key in decoded)
        assert encode_nlri_block(decoded) == b"".join(
            reference.nlri_wires(decoded))


def test_named_keys_encode_like_plain_ones():
    named = [prefixes.Prefix(index << 8, 24) for index in range(3 * RUN_MIN)]
    assert encode_nlri_block(named) == b"".join(reference.nlri_wires(named))


@st.composite
def framed_blocks(draw):
    """``(data, offset, end)``: runs of IPv4 lengths between a random
    head and tail, perhaps cut short or with one bad length octet."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    shape = draw(st.sampled_from(["runs", "alternating", "scattered"]))
    if shape == "runs":
        lengths = [length for length, count in draw(st.lists(st.tuples(
            st.integers(0, 32), st.integers(1, 3 * RUN_MIN)), max_size=6))
            for _ in range(count)]
    elif shape == "alternating":
        pair = draw(st.tuples(st.integers(0, 32), st.integers(0, 32)))
        lengths = [pair[index % 2] for index in range(draw(st.integers(
            0, 4 * RUN_MIN)))]
    else:
        lengths = draw(st.lists(st.integers(0, 32), max_size=4 * RUN_MIN))
    wire = bytearray(_raw_wire(rng, lengths))
    fault = draw(st.sampled_from(["none", "truncated", "over-width"]))
    if fault == "truncated" and wire:
        del wire[-draw(st.integers(1, min(4, len(wire)))):]
    elif fault == "over-width" and lengths:
        at = draw(st.integers(0, len(lengths) - 1))
        wire[sum((length + 7) // 8 + 1 for length in lengths[:at])] = draw(
            st.integers(33, 255))
    head = rng.randbytes(draw(st.integers(0, 3)))
    tail = rng.randbytes(draw(st.integers(0, 3)))
    return head + bytes(wire) + tail, len(head), len(head) + len(wire)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(block=framed_blocks())
def test_decode_matches_the_per_prefix_loop(block):
    data, offset, end = block
    assert (_verdict(decode_nlri_block, data, AFI_IPV4, offset, end)
            == _verdict(reference.decode_block, data, AFI_IPV4, offset, end))


def test_errors_are_the_per_prefix_loops():
    rng = random.Random(7)
    run = _raw_wire(rng, [24] * (2 * RUN_MIN))
    for bad in (33, 128, 255):
        data = run + bytes((bad,)) + run
        assert _verdict(decode_nlri_block, data) == _verdict(
            reference.decode_block, data) == (
            3, 10, f"prefix length {bad} exceeds AFI width 32")
    for cut in (1, 2, 3):
        data = run[:-cut]
        assert _verdict(decode_nlri_block, data) == _verdict(
            reference.decode_block, data) == (3, 10, "truncated prefix")


class _CountingBytes(bytes):
    """Bytes that count what their slices copy out."""

    copied = [0]

    def __getitem__(self, key):
        result = super().__getitem__(key)
        if isinstance(key, slice):
            self.copied[0] += len(result)
        return result


@pytest.mark.parametrize("pattern", [
    [24, 16], [24] * (RUN_MIN - 1) + [16] * (RUN_MIN - 1),
    [24] * RUN_MIN + [16] * RUN_MIN, [24] * 3 + [32] * 5, [0, 0, 32],
])
def test_run_search_reads_the_block_a_bounded_number_of_times(pattern):
    rng = random.Random(3)
    for repeats in (50, 400):
        data = _CountingBytes(_raw_wire(rng, pattern * repeats))
        _CountingBytes.copied[0] = 0
        assert decode_nlri_block(data) == reference.decode_block(bytes(data))
        assert _CountingBytes.copied[0] <= 4 * len(data)


def _batches(keys, budget):
    wires = reference.nlri_wires(keys)
    return [(keys[start:stop], b"".join(wires[start:stop]))
            for start, stop in reference.cuts(wires, budget)]


@pytest.mark.parametrize("length", [0, 7, 8, 22, 24, 32])
def test_batches_cut_where_the_greedy_cut_does(length):
    rng = random.Random(length)
    width = (length + 7) // 8 + 1
    for count in (RUN_MIN - 1, RUN_MIN, 6 * width, 6 * width + 1, 200):
        keys = _raw_keys(rng, length, count)
        for budget in range(-1, 4 * width + 2):
            assert packing._v4_batches(keys, budget) == _batches(keys, budget)


def _same_messages(got, want):
    assert [message.to_wire() for message in got] == [
        message.to_wire() for message in want]
    assert [(message.nlri, message.withdrawn) for message in got] == [
        (message.nlri, message.withdrawn) for message in want]


@pytest.mark.parametrize("length", [0, 13, 16, 24, 32])
def test_pack_group_builds_the_reference_updates(length):
    rng = random.Random(length)
    step = BUDGET // ((length + 7) // 8 + 1)
    for count in (1, RUN_MIN, step - 1, step, step + 1, 3 * step,
                  3 * step + 5):
        keys = [prefix_key(rng.getrandbits(32), length) for _ in range(count)]
        got = packing.pack_group(ATTRS, keys)
        _same_messages(got, reference.pack_group(ATTRS, keys))
        assert [len(message.nlri) for message in got] == (
            [step] * (count // step) + [count % step] * (count % step > 0))
    mixed = [prefix_key(rng.getrandbits(32), rng.choice((16, 24)))
             for _ in range(3000)]
    _same_messages(packing.pack_group(ATTRS, mixed),
                   reference.pack_group(ATTRS, mixed))


def test_pack_withdrawals_builds_the_reference_updates():
    rng = random.Random(11)
    step = (MAX_MESSAGE_SIZE - HEADER_SIZE - 4) // 4
    v4 = [prefix_key(rng.getrandbits(32), 24) for _ in range(2 * step)]
    v6 = [prefix_key(rng.getrandbits(128), 64, AFI_IPV6) for _ in range(300)]
    for withdrawn in (v4, v4[:step - 1], v4 + [v4[0] & ~255 | 16], v4 + v6,
                      v6, v4[:RUN_MIN - 1]):
        _same_messages(packing.pack_withdrawals(withdrawn),
                       reference.pack_withdrawals(withdrawn))
    assert [len(message.withdrawn)
            for message in packing.pack_withdrawals(v4)] == [step, step]


def test_ipv6_never_enters_the_kernel(monkeypatch):
    def refuse(*_args):
        raise AssertionError("the fixed-width kernel ran on IPv6")

    monkeypatch.setattr(prefixes, "array", refuse)
    monkeypatch.setattr(prefixes, "_decode_run", refuse)
    rng = random.Random(6)
    keys = [prefix_key(rng.getrandbits(128), 48, AFI_IPV6)
            for _ in range(4 * RUN_MIN)]
    wire = encode_nlri_block(keys)
    assert wire == b"".join(reference.nlri_wires(keys))
    assert decode_nlri_block(wire, AFI_IPV6) == keys
    assert fixed_width_block(keys) is None
    packing.pack_mp_group(ATTRS, keys, 1)
    _same_messages(packing.pack_withdrawals(keys),
                   reference.pack_withdrawals(keys))


def test_a_family_mix_takes_the_per_prefix_encoder():
    keys = [prefix_key(index << 8, 24) for index in range(RUN_MIN)]
    keys.append(prefix_key(1 << 104, 24, AFI_IPV6))
    assert fixed_width_block(keys) is None
    assert encode_nlri_block(keys) == b"".join(reference.nlri_wires(keys))
