"""FuzzSpec property tests (DESIGN.md §13, S3).

Three properties over the whole generable spec space:

1. serialize/deserialize round-trips exactly;
2. every generated spec materializes into a valid system — every
   neighbor has an established session with its assigned pair, every
   VRF named in the spec exists on exactly one gateway speaker, and no
   pair hosts a VRF the spec never named (no dangling peers/VRFs);
3. generation is bit-identical for equal seeds (the corpus and repro
   scripts depend on this).

Hypothesis drives seed choice when available (``derandomize=True``
keeps the corpus stable); a ``DeterministicRandom``-seeded fallback
covers the same properties without it.
"""

import pytest

from repro.failures.harness import build_scenario
from repro.fuzz.spec import (
    FuzzSpec,
    generate_fuzz_spec,
    mutate_fuzz_spec,
    validate_fuzz_spec,
)
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

seeds = st.integers(min_value=0, max_value=2**16) if HAVE_HYPOTHESIS else None


def _assert_roundtrip(seed):
    spec = generate_fuzz_spec(seed)
    clone = FuzzSpec.from_dict(spec.to_dict())
    assert clone.to_dict() == spec.to_dict()
    # the copy is deep enough to mutate freely
    copy = spec.copy()
    copy.injections.clear()
    copy.neighbors[0]["mrai"] = 99.0
    assert spec.injections
    assert spec.neighbors[0]["mrai"] != 99.0


def _assert_deterministic(seed):
    assert (generate_fuzz_spec(seed).to_dict()
            == generate_fuzz_spec(seed).to_dict())
    spec = generate_fuzz_spec(seed)
    assert (mutate_fuzz_spec(spec, seed + 1).to_dict()
            == mutate_fuzz_spec(spec, seed + 1).to_dict())


def _assert_builds_valid_system(seed):
    spec = generate_fuzz_spec(seed)
    validate_fuzz_spec(spec)
    system, pairs, remotes = build_scenario(spec)
    # every neighbor's session established against its assigned pair
    assert len(remotes) == len(spec.neighbors)
    for remote, session in remotes:
        assert session.established, f"{remote.name} failed to establish"
    # no dangling VRFs: each spec VRF lives on exactly one gateway
    # speaker, and no pair hosts a VRF the spec never named
    spec_vrfs = {neighbor["vrf"] for neighbor in spec.neighbors}
    homes = {}
    for pair, _members, _policies in pairs:
        for vrf_name in pair.speaker.vrfs:
            assert vrf_name in spec_vrfs, f"dangling VRF {vrf_name}"
            assert homes.setdefault(vrf_name, pair.name) == pair.name
    assert set(homes) == spec_vrfs
    # no dangling peers: each pair's configured neighbors are exactly
    # its split-plan members
    for pair, members, _policies in pairs:
        configured = {spec_n.remote_addr for spec_n in pair.neighbors}
        assert configured == {spec.remote_addr(i) for i in members}


if HAVE_HYPOTHESIS:

    @needs_hypothesis
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_spec_roundtrips_hypothesis(seed):
        _assert_roundtrip(seed)

    @needs_hypothesis
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_generation_is_bit_identical_hypothesis(seed):
        _assert_deterministic(seed)

    @needs_hypothesis
    @settings(derandomize=True, max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=200))
    def test_spec_builds_valid_system_hypothesis(seed):
        _assert_builds_valid_system(seed)


def test_spec_roundtrips_fallback():
    rng = DeterministicRandom(7).stream("fuzz-prop")
    for _ in range(20):
        _assert_roundtrip(rng.randint(0, 2**16))


def test_generation_is_bit_identical_fallback():
    rng = DeterministicRandom(8).stream("fuzz-prop")
    for _ in range(20):
        _assert_deterministic(rng.randint(0, 2**16))


def test_spec_builds_valid_system_fallback():
    rng = DeterministicRandom(9).stream("fuzz-prop")
    for _ in range(3):
        _assert_builds_valid_system(rng.randint(0, 200))


def test_mutations_stay_valid():
    """Every mutation op either preserves the composition rules or
    falls back to fresh generation — never an invalid spec."""
    rng = DeterministicRandom(10).stream("fuzz-prop")
    spec = generate_fuzz_spec(0)
    for _ in range(40):
        spec = mutate_fuzz_spec(spec, rng.randint(0, 2**16))
        validate_fuzz_spec(spec)
