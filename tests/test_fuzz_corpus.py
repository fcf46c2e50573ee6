"""The checked-in fuzz regression corpus (tests/fuzz_corpus/manifest.json).

The manifest pins a coverage-guided campaign: the chaos-corpus coverage
baseline (seeds 0-12 in their tier-1 configurations) plus the fuzz specs
that reached coverage the fixed corpus never produces.  Tier-1 verifies
the acceptance property structurally (>= 3 novel keys), replays a
sample of entries to confirm their coverage keys still reproduce, and
spot-checks the stored baseline against freshly computed chaos profiles
so the "novel" claim cannot go stale silently.
"""

import json
import pathlib

import pytest

from repro.failures.chaos import generate_schedule, run_schedule
from repro.fuzz import coverage_key, run_fuzz_spec, run_profile
from repro.fuzz.loop import load_manifest, manifest_entries
from repro.fuzz.spec import validate_fuzz_spec

MANIFEST = pathlib.Path(__file__).parent / "fuzz_corpus" / "manifest.json"


@pytest.fixture(scope="module")
def manifest():
    assert MANIFEST.exists(), "run `make fuzz-corpus` to regenerate"
    return load_manifest(str(MANIFEST))


def test_manifest_is_canonical_json(manifest):
    raw = MANIFEST.read_text()
    assert raw == json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def test_corpus_reaches_at_least_three_novel_coverage_keys(manifest):
    """The PR's acceptance bar: >= 3 coverage keys (oracle/phase/
    topology shapes) the fixed chaos corpus never produces."""
    baseline_keys = set(manifest["baseline"])
    novel = [entry for entry in manifest["entries"]
             if entry["coverage_key"] not in baseline_keys]
    assert len(novel) >= 3
    for entry in novel:
        assert entry["novel"] is True
    # the novelty is structural, not hash luck: fuzz-only topology
    # dimensions (multi-pair splits, non-default MRAI modes) appear
    assert any(e["profile"]["topology"]["pairs"] > 1 for e in novel)
    assert any(e["profile"]["topology"]["mrai_mode"] != "per_speaker"
               for e in novel)


def test_manifest_specs_are_valid_and_self_consistent(manifest):
    for spec, key, profile in manifest_entries(manifest):
        validate_fuzz_spec(spec)
        assert coverage_key(profile) == key


def test_replayed_entries_reproduce_their_coverage_keys(manifest):
    """Replay a sample of corpus entries end to end; the recomputed
    coverage key must match the manifest (full replay: `python -m
    repro.fuzz --replay tests/fuzz_corpus/manifest.json`)."""
    entries = manifest_entries(manifest)
    assert entries
    for spec, expected_key, expected_profile in entries[:2]:
        result = run_fuzz_spec(spec, tracing=True)
        assert result.first_violation is None, result.summary()
        assert result.completed
        profile = run_profile(result)
        assert profile == expected_profile
        assert coverage_key(profile) == expected_key


def test_baseline_spot_check_matches_fresh_chaos_profiles(manifest):
    """The stored chaos baseline must equal freshly computed profiles
    (spot check two plain seeds; the full baseline regenerates with
    `make fuzz-corpus`)."""
    by_seed = {entry["seed"]: key
               for key, entry in manifest["baseline"].items()}
    for seed in (0, 1):
        result = run_schedule(generate_schedule(seed))
        key = coverage_key(run_profile(result))
        assert by_seed.get(seed) == key
