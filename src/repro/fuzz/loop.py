"""The coverage-guided loop and corpus I/O.

The loop is seed-deterministic end to end: iteration ``i`` either
generates a fresh spec or mutates a corpus entry, with every choice
drawn from one named stream of the loop seed.  Novel coverage keys
(not in the chaos baseline, not seen this campaign) admit the spec to
the corpus; violations go to the harness's shrinker
(:func:`~repro.failures.shrink.shrink_scenario` — schedule dimensions
and config/topology dimensions on *separate* :class:`ShrinkBudget`
pools) and come back as replayable ``fuzz_repro_<seed>.py`` scripts.
"""

import json

from repro.failures.harness import coverage_key, run_profile, run_scenario
from repro.failures.schedule import SETTLE_TAIL, generate_schedule
from repro.failures.shrink import ShrinkBudget, shrink_and_report
from repro.fuzz.spec import FuzzSpec, generate_fuzz_spec, mutate_fuzz_spec
from repro.sim.rand import DeterministicRandom


# ----------------------------------------------------------------------
# the campaign loop
# ----------------------------------------------------------------------

class FuzzReport:
    """Outcome of one campaign: corpus entries, violations, stats."""

    def __init__(self, seed):
        self.seed = seed
        self.corpus = []        # {"spec", "profile", "key", "novel"}
        self.violations = []    # {"spec", "oracle", "repro"}
        self.runs = 0
        self.partial = 0

    def novel_keys(self, baseline_keys):
        return sorted(
            entry["key"] for entry in self.corpus
            if entry["key"] not in baseline_keys
        )


def fuzz_loop(seed=0, iterations=10, baseline_keys=(), hold_acks=True,
              tracing=True, out_dir=".", max_duration=None, log=print):
    """Run one coverage-guided campaign; pure function of its arguments.

    ``baseline_keys``: coverage keys the fixed chaos corpus produces —
    only keys outside it count as *novel* in the report.  ``tracing``
    defaults on so the phase-shape axis contributes to coverage.
    ``max_duration`` caps each spec's virtual horizon (smoke mode).
    """
    r = DeterministicRandom(seed).stream("fuzz-loop")
    baseline_keys = set(baseline_keys)
    seen = set(baseline_keys)
    report = FuzzReport(seed)
    for iteration in range(iterations):
        spec_seed = seed * 100003 + iteration + 1
        if report.corpus and r.random() < 0.5:
            parent = report.corpus[r.randrange(len(report.corpus))]["spec"]
            spec = mutate_fuzz_spec(parent, spec_seed)
            origin = f"mutate({parent.seed})"
        else:
            spec = generate_fuzz_spec(spec_seed)
            origin = "generate"
        if max_duration is not None and spec.duration > max_duration:
            spec = spec.copy()
            spec.duration = max_duration
            spec.injections = [e for e in spec.injections
                               if e["at"] < max_duration - SETTLE_TAIL / 3]
            spec.workload = [e for e in spec.workload
                             if e["at"] < max_duration - SETTLE_TAIL / 3]
            if not spec.injections:
                spec = generate_fuzz_spec(spec_seed)

        result = run_scenario(spec, hold_acks=hold_acks, tracing=tracing)
        report.runs += 1
        if result.partial:
            report.partial += 1
        violation = result.first_violation
        if violation is not None:
            shrunk, path = shrink_and_report(
                spec, result, hold_acks, tracing=tracing, out_dir=out_dir,
                budget=ShrinkBudget.split(40, config_share=0.4), log=log,
            )
            report.violations.append({
                "spec": shrunk, "oracle": violation.oracle, "repro": path,
            })
            continue
        profile = run_profile(result)
        key = coverage_key(profile)
        novel = key not in seen
        if novel:
            seen.add(key)
            report.corpus.append({
                "spec": spec, "profile": profile, "key": key,
                "novel": key not in baseline_keys,
            })
            log(
                f"[{iteration}] seed {spec.seed} ({origin}): NEW coverage"
                f" {key} — pairs={spec.pair_count()}"
                f" mode={spec.mrai_mode} layout={spec.vrf_layout}"
            )
        else:
            log(f"[{iteration}] seed {spec.seed} ({origin}): known"
                f" coverage {key}")
    return report


# ----------------------------------------------------------------------
# manifest I/O (tests/fuzz_corpus/manifest.json)
# ----------------------------------------------------------------------

def chaos_baseline_profiles(plain=(), traced=(), db_failover=()):
    """Run chaos corpus seeds in their tier-1 configurations and return
    ``{key: {"seed": ..., "profile": ...}}`` — the coverage floor a fuzz
    corpus entry must escape to count as novel."""
    baseline = {}
    runs = [(seed, {}, {}) for seed in plain]
    runs += [(seed, {}, {"tracing": True}) for seed in traced]
    runs += [(seed, {"db_failover": True}, {}) for seed in db_failover]
    for seed, generate_kw, run_kw in runs:
        profile = run_profile(
            run_scenario(generate_schedule(seed, **generate_kw), **run_kw)
        )
        baseline[coverage_key(profile)] = {"seed": seed, "profile": profile}
    return baseline


def save_manifest(path, report, baseline):
    """Persist a campaign as the checked-in regression corpus.

    ``baseline``: {key: {"seed", "profile"}} from
    :func:`chaos_baseline_profiles`.
    """
    manifest = {
        "loop_seed": report.seed,
        "baseline": {
            key: {"seed": entry["seed"], "profile": entry["profile"]}
            for key, entry in sorted(baseline.items())
        },
        "entries": [
            {
                "spec": entry["spec"].to_dict(),
                "profile": entry["profile"],
                "coverage_key": entry["key"],
                "novel": entry["key"] not in baseline,
            }
            for entry in report.corpus
        ],
    }
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest


def load_manifest(path):
    with open(path) as handle:
        return json.load(handle)


def manifest_entries(manifest):
    """[(FuzzSpec, expected_key, expected_profile)] from a manifest."""
    return [
        (FuzzSpec.from_dict(entry["spec"]), entry["coverage_key"],
         entry["profile"])
        for entry in manifest["entries"]
    ]
