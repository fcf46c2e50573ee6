"""CLI: python -m repro.fuzz (DESIGN.md §13).

Modes:

- default — run a coverage-guided campaign and print the novel keys:
  ``python -m repro.fuzz --iterations 15 --seed 0``
- ``--smoke`` — three fixed seeds with capped horizons, no baseline
  (the bounded gate wired into ``make verify``);
- ``--write-manifest PATH`` — run the campaign *and* the chaos corpus
  baseline, then persist both as the checked-in regression manifest;
- ``--replay PATH`` — re-run every manifest entry and check its
  coverage key still matches (the corpus regression check).

Exit codes: 0 ok; 1 violations found (repros written) or a replay
mismatch; 2 partial runs (no verdict for the uncovered tail).
"""

import argparse
import sys

from repro.failures.harness import coverage_key, run_profile, run_scenario
from repro.failures.schedule import (
    CORPUS_SEEDS,
    DB_FAILOVER_CORPUS_SEEDS,
    TRACED_CORPUS_SEEDS,
)
from repro.fuzz.loop import (
    chaos_baseline_profiles,
    fuzz_loop,
    load_manifest,
    manifest_entries,
    save_manifest,
)

SMOKE_SEEDS = (101, 102, 103)
SMOKE_HORIZON = 45.0


def _smoke(out_dir):
    """Three fixed seeds, capped horizon: the <=30 s verify gate."""
    failures = partial = 0
    for seed in SMOKE_SEEDS:
        report = fuzz_loop(
            seed=seed, iterations=1, out_dir=out_dir,
            max_duration=SMOKE_HORIZON, tracing=False,
        )
        failures += len(report.violations)
        partial += report.partial
    print(f"fuzz-smoke: {len(SMOKE_SEEDS)} seeds,"
          f" {failures} violation(s), {partial} partial")
    if failures:
        return 1
    return 2 if partial else 0


def _replay(path):
    manifest = load_manifest(path)
    baseline_keys = set(manifest["baseline"])
    mismatches = novel = 0
    for spec, expected_key, _profile in manifest_entries(manifest):
        result = run_scenario(spec, tracing=True)
        key = coverage_key(run_profile(result))
        ok = key == expected_key
        mismatches += not ok
        novel += expected_key not in baseline_keys
        print(f"seed {spec.seed}: key {key}"
              f" {'==' if ok else '!='} manifest {expected_key}")
    print(f"replayed {len(manifest['entries'])} entries,"
          f" {novel} novel vs baseline, {mismatches} mismatch(es)")
    return 1 if mismatches else 0


def main():
    parser = argparse.ArgumentParser(
        description="Coverage-guided config/topology fuzzing (DESIGN.md §13)"
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (spec seeds derive from it)")
    parser.add_argument("--iterations", type=int, default=10)
    parser.add_argument("--smoke", action="store_true",
                        help="bounded 3-seed gate for make verify")
    parser.add_argument("--write-manifest", default=None, metavar="PATH",
                        help="persist campaign + chaos baseline as the"
                             " regression manifest")
    parser.add_argument("--replay", default=None, metavar="PATH",
                        help="re-run a manifest and verify coverage keys")
    parser.add_argument("--no-tracing", action="store_true",
                        help="drop the phase-shape coverage axis (faster)")
    parser.add_argument("--out", default=".", help="repro script directory")
    args = parser.parse_args()

    if args.smoke:
        return _smoke(args.out)
    if args.replay:
        return _replay(args.replay)

    baseline = {}
    if args.write_manifest:
        print("computing chaos-corpus coverage baseline"
              f" (seeds {CORPUS_SEEDS + TRACED_CORPUS_SEEDS + DB_FAILOVER_CORPUS_SEEDS})...")
        baseline = chaos_baseline_profiles(
            plain=CORPUS_SEEDS,
            traced=TRACED_CORPUS_SEEDS,
            db_failover=DB_FAILOVER_CORPUS_SEEDS,
        )
        print(f"baseline: {len(baseline)} distinct coverage key(s)")

    report = fuzz_loop(
        seed=args.seed,
        iterations=args.iterations,
        baseline_keys=set(baseline),
        tracing=not args.no_tracing,
        out_dir=args.out,
    )
    novel = report.novel_keys(set(baseline))
    print(
        f"campaign seed {args.seed}: {report.runs} runs,"
        f" {len(report.corpus)} corpus entries"
        + (f", {len(novel)} novel vs chaos baseline" if baseline else "")
        + f", {len(report.violations)} violation(s)"
    )
    if args.write_manifest:
        save_manifest(args.write_manifest, report, baseline)
        print(f"manifest written to {args.write_manifest}"
              f" ({len(novel)} novel keys)")
    if report.violations:
        return 1
    return 2 if report.partial else 0


if __name__ == "__main__":
    sys.exit(main())
