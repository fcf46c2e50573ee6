#!/usr/bin/env python
"""Benchmark regression gate (``make bench-gate``).

Runs every registered benchmark suite into a temporary directory
(``--out``; the committed ``BENCH_*.json`` files are never touched),
then compares each ``results.*.ops_per_sec`` figure (higher is better)
and each ``results.*.per_route`` figure (a cost per route, lower is
better) against the committed baseline: any metric more than the
suite's threshold worse fails with a non-zero exit.  Only rows both
files have are compared; a row one side lacks (a metric renamed or
redefined) is printed, not failed, and gates again once a re-baselined
file is committed.  Better-than-baseline results are reported but never
fail — re-run a bench with ``--write`` and commit the file to ratchet
its baseline.  Suites may also register a validator for non-throughput
invariants (the parallel suite checks determinism and the measured
speedup floor).

Usage:
    python benchmarks/check_bench_regression.py [--suite NAME]
        [--baseline PATH] [--skip-run]

``--skip-run`` compares the working-tree ``BENCH_*.json`` (say, one a
``--write`` run just produced) instead of re-running the benchmarks.
``--baseline`` overrides the committed baseline (single suite only).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Fuzzer/chaos repro scripts are working-tree artifacts (gitignored),
# not benchmark inputs: the gate must never collect or gate on them,
# wherever a campaign's --out dropped them.
ARTIFACT_GLOBS = ("fuzz_repro_*.py", "chaos_repro_*.py", "panel_repro_*.py")


def ignored_artifacts():
    found = []
    for directory in (REPO_ROOT, REPO_ROOT / "benchmarks"):
        for pattern in ARTIFACT_GLOBS:
            found.extend(sorted(directory.glob(pattern)))
    return found


def _validate_parallel(fresh, baseline):
    """Parallel-suite invariants beyond raw throughput.

    Determinism must hold outright.  On any host with at least 2 cores
    the *measured* wall ratio workers=1 / workers=4 (each the best of
    three runs, see bench_parallel_fleet.py) must stay >= 1.1x; the
    critical-path projection is printed as a diagnostic, never gated.
    ``cpu_count`` in the JSON records which host produced a committed
    baseline — a single-core baseline cannot speak for a multi-core
    host's measured numbers, so that mismatch is an explicit failure
    with a re-baseline instruction, not a silent apples-to-oranges
    comparison.
    """
    failures = []
    if not fresh.get("determinism_ok", False):
        failures.append("determinism_ok is false: workers=1 vs workers=N "
                        "shard results diverged")
    cores = os.cpu_count() or 1
    baseline_cores = (baseline or {}).get("cpu_count")
    if cores >= 2 and baseline_cores is not None and baseline_cores < 2:
        failures.append(
            f"baseline BENCH_parallel.json was generated on a "
            f"{baseline_cores}-core host but this host has {cores} cores: "
            f"measured speedups are not comparable — re-run "
            f"`make bench-parallel` on this host and commit the "
            f"regenerated BENCH_parallel.json to re-baseline"
        )
    projected = fresh.get("projected_speedup_4w")
    if projected is not None:
        print(f"  projected speedup (not gated): {projected:.2f}x")
    speedup = fresh.get("measured_speedup_4w", 0.0)
    if cores < 2:
        print(f"  measured speedup: {speedup:.2f}x (not gated: host has "
              f"{cores} core)")
    elif speedup < 1.1:
        failures.append(
            f"parallel speedup floor: {speedup:.2f}x measured < 1.1x "
            f"(host has {cores} cores)"
        )
    else:
        print(f"  measured speedup floor: {speedup:.2f}x >= 1.1x  ok")
    quiet = fresh.get("window_stats", {}).get("quiet_window_reduction")
    if quiet is None:
        failures.append("window_stats.quiet_window_reduction missing from "
                        "BENCH_parallel.json (re-run make bench-parallel)")
    elif quiet < 10.0:
        failures.append(
            f"adaptive windows: quiet-phase reduction {quiet:.1f}x < 10x "
            f"vs the fixed-lookahead protocol"
        )
    else:
        print(f"  quiet-window reduction: {quiet:.1f}x  ok")
    # pickling and dispatch must stay a sliver of the workers=4 wall:
    # barrier traffic is cheap, or the transport needs another look.
    # Absolute floors keep the ratio meaningful on fast hosts
    # where both sides of it are noise-sized.
    wall = fresh.get("wall", {}).get("workers_4", 0.0)
    split = fresh.get("time_split", {}).get("workers_4", {})
    serialize = split.get("serialize_s")
    dispatch = split.get("barrier_send_s")
    if serialize is None or dispatch is None:
        failures.append("time_split.workers_4 serialize_s/barrier_send_s "
                        "missing from BENCH_parallel.json")
    else:
        serialize_cap = max(0.10 * wall, 0.05)
        dispatch_cap = max(0.05 * wall, 0.02)
        if serialize > serialize_cap:
            failures.append(
                f"serialize_s {serialize:.3f}s exceeds "
                f"{serialize_cap:.3f}s (10% of workers=4 wall)"
            )
        if dispatch > dispatch_cap:
            failures.append(
                f"barrier_send_s {dispatch:.3f}s exceeds "
                f"{dispatch_cap:.3f}s (5% of workers=4 wall)"
            )
        if serialize <= serialize_cap and dispatch <= dispatch_cap:
            print(f"  barrier overhead: serialize={serialize:.3f}s "
                  f"dispatch={dispatch:.3f}s within caps  ok")
    return failures


def _validate_failover(fresh, baseline):
    """Failover-suite invariants beyond the throughput ratchet.

    The drain budget is absolute: whatever the baseline says, a recovery
    that leaves ACKs held past the chaos liveness oracle's 6 s streak
    limit is broken, not merely slow.
    """
    failures = []
    budget = fresh.get("workload", {}).get("drain_budget_s", 6.0)
    drain = fresh.get("ack_drain_s")
    if drain is None:
        failures.append("ack_drain_s missing from BENCH_failover.json")
    elif drain >= budget:
        failures.append(
            f"ack drain {drain:.2f}s exceeds the {budget:.0f}s budget"
        )
    else:
        print(f"  ack drain: {drain:.2f}s < {budget:.0f}s budget  ok")
    return failures


def _validate_fulltable(fresh, baseline):
    """Full-table invariants beyond the throughput ratchet (§14).

    Absolute floors, independent of the baseline: incremental reselect
    must stay sub-linear in table size, snapshot aggregation must keep
    earning its >= 20% reduction on the aggregatable workload, and an
    incremental compaction may only rewrite chunks proportional to the
    touched working set.
    """
    failures = []
    ratio = fresh.get("reselect_ratio")
    if ratio is None:
        failures.append("reselect_ratio missing from BENCH_fulltable.json")
    elif ratio < 0.4:
        failures.append(
            f"sub-linear reselect floor: {ratio:.2f}x throughput at 10x "
            f"table size < 0.4x")
    else:
        print(f"  sub-linear reselect: {ratio:.2f}x at 10x size  ok")
    reduction = fresh.get("aggregation_reduction", 0.0)
    if reduction < 0.20:
        failures.append(
            f"snapshot aggregation reduced entries by only "
            f"{reduction:.0%} (< 20% floor)")
    else:
        print(f"  snapshot aggregation: -{reduction:.0%} entries  ok")
    large = fresh.get("large", {})
    full_chunks = large.get("full_chunks", 0)
    incr_chunks = large.get("incremental_chunks", 0)
    if not full_chunks:
        failures.append("large.full_chunks missing from "
                        "BENCH_fulltable.json")
    elif incr_chunks > full_chunks * 0.25:
        failures.append(
            f"incremental compaction rewrote {incr_chunks}/{full_chunks} "
            f"chunks (> 25%): not proportional to the working set")
    else:
        print(f"  incremental compaction: {incr_chunks}/{full_chunks} "
              f"chunks  ok")
    return failures


def _validate_hotpath(fresh, baseline):
    """The compaction storm must not come back silently (DESIGN.md §8).

    Absolute, independent of the baseline: on the small-UPDATE receive
    row a compaction is due once per 1,024 deltas, so more than one per
    1,000 UPDATEs means the trigger fires on something other than the
    started watermark; and every superseded delta is purged exactly
    once, so more purge deletes than deltas recorded means overlapping
    compactions purged from a stale floor again.
    """
    failures = []
    row = fresh.get("small_update_receive")
    if not row:
        return ["small_update_receive missing from BENCH_hotpath.json"]
    per_1k = row["compactions"] * 1000.0 / row["updates"]
    if per_1k > 1.0:
        failures.append(
            f"compaction storm: {row['compactions']} compactions for "
            f"{row['updates']} UPDATEs ({per_1k:.1f} per 1k > 1.0)")
    else:
        print(f"  compactions per 1k UPDATEs: {per_1k:.2f}  ok")
    if row["purge_deletes"] > row["deltas_recorded"]:
        failures.append(
            f"purge deletes {row['purge_deletes']} exceed deltas recorded "
            f"{row['deltas_recorded']}: a delta was purged more than once")
    else:
        print(f"  purge deletes: {row['purge_deletes']} <= "
              f"{row['deltas_recorded']} deltas  ok")
    # One delta record per applied UPDATE, whatever it carried: a
    # per-route or per-run record would multiply KV sets and move every
    # virtual clock behind the packed receive.
    packed = fresh.get("packed_update_receive")
    if not packed:
        failures.append("packed_update_receive missing from "
                        "BENCH_hotpath.json")
    elif packed["deltas_recorded"] != packed["updates"]:
        failures.append(
            f"packed receive: {packed['deltas_recorded']} delta records for "
            f"{packed['updates']} UPDATEs (must be one to one)")
    else:
        print(f"  packed receive: {packed['updates']} UPDATEs, one delta "
              f"record each  ok")
    return failures


SUITES = {
    "failover": {
        "json": "BENCH_failover.json",
        "run": [sys.executable,
                str(REPO_ROOT / "benchmarks" / "bench_failover.py")],
        # virtual-clock measurement: deterministic, so only a real
        # behavior change (slower detection/drain) can move it
        "threshold": 0.10,
        "validate": _validate_failover,
    },
    "hotpath": {
        "json": "BENCH_hotpath.json",
        "run": [sys.executable, "-m", "pytest",
                str(REPO_ROOT / "benchmarks" / "bench_hotpath.py"),
                "-q", "--benchmark-disable-gc"]
               + [f"--ignore-glob={g}" for g in ARTIFACT_GLOBS],
        "threshold": 0.20,
        "validate": _validate_hotpath,
    },
    "parallel": {
        "json": "BENCH_parallel.json",
        "run": [sys.executable,
                str(REPO_ROOT / "benchmarks" / "bench_parallel_fleet.py")],
        "threshold": 0.30,  # wall-clock of a 13s run is noisier than µ-benches
        "validate": _validate_parallel,
    },
    "fulltable": {
        "json": "BENCH_fulltable.json",
        "run": [sys.executable,
                str(REPO_ROOT / "benchmarks" / "bench_fulltable.py")],
        # multi-second wall-clock stages; host noise dominates more than
        # in the µ-benches
        "threshold": 0.30,
        "validate": _validate_fulltable,
    },
}


def run_suite(suite, out):
    """Run ``suite`` with its results written to ``out``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(suite["run"] + ["--out", str(out)],
                               cwd=REPO_ROOT, env=env)
    if completed.returncode != 0:
        sys.exit("bench-gate: benchmark run failed")


def compare(baseline, fresh, threshold):
    failures = []
    for name in sorted(set(fresh["results"]) - set(baseline["results"])):
        print(f"  {name:34s} not in the baseline: not compared")
    for name, entry in sorted(baseline["results"].items()):
        fresh_entry = fresh["results"].get(name)
        if fresh_entry is None:
            print(f"  {name:34s} not in the fresh results: not compared")
            continue
        # ratio is "how good against the baseline" for either kind of
        # row: rate over rate, or baseline cost over fresh cost
        if "per_route" in entry:
            base, value = entry["per_route"], fresh_entry["per_route"]
            unit = "/route"
            ratio = base / value if value else float("inf")
        else:
            base, value = entry["ops_per_sec"], fresh_entry["ops_per_sec"]
            unit = "ops/s"
            ratio = value / base if base else float("inf")
        status = "ok"
        if ratio < 1.0 - threshold:
            status = "REGRESSION"
            failures.append(
                f"{name}: {value:,.0f} {unit} vs baseline "
                f"{base:,.0f} ({ratio:.0%})"
            )
        print(f"  {name:34s} {value:>14,.0f} {unit:6s} {ratio:>6.0%}  {status}")
    return failures


def committed_baseline(json_name):
    # The committed copy is the baseline of record, whatever the
    # working tree holds.
    show = subprocess.run(
        ["git", "show", f"HEAD:{json_name}"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    if show.returncode != 0:
        return None
    return json.loads(show.stdout)


def check_suite(name, suite, skip_run, baseline_override, workdir):
    if baseline_override is not None:
        baseline = json.loads(baseline_override.read_text())
    else:
        baseline = committed_baseline(suite["json"])
    if skip_run:
        results_path = REPO_ROOT / suite["json"]
    else:
        results_path = Path(workdir) / suite["json"]
        run_suite(suite, results_path)
    fresh = json.loads(results_path.read_text())

    if baseline is None:
        # A suite gating for the first time has no committed baseline
        # yet: validate its invariants against the fresh run and ask
        # for the JSON to be committed.  Established suites always have
        # a committed baseline, so this never weakens them.
        print(f"bench-gate[{name}]: BOOTSTRAP — no committed "
              f"{suite['json']}; write it with the bench's --write and "
              f"commit it to start the ratchet")
        baseline = fresh

    print(f"bench-gate[{name}]: threshold {suite['threshold']:.0%} against "
          f"{baseline_override or 'committed baseline'}")
    failures = compare(baseline, fresh, suite["threshold"])
    if suite["validate"] is not None:
        failures.extend(suite["validate"](fresh, baseline))
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", choices=sorted(SUITES) + ["all"],
                        default="all", help="which suite(s) to gate")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="baseline JSON override (single suite only)")
    parser.add_argument("--skip-run", action="store_true",
                        help="compare existing JSON without re-running")
    args = parser.parse_args()

    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    if args.baseline is not None and len(names) != 1:
        sys.exit("bench-gate: --baseline requires --suite NAME")

    artifacts = ignored_artifacts()
    if artifacts:
        print(f"bench-gate: ignoring {len(artifacts)} fuzzer repro "
              f"artifact(s): "
              + ", ".join(p.name for p in artifacts))

    failures = []
    with tempfile.TemporaryDirectory(prefix="bench-gate-") as workdir:
        for name in names:
            failures.extend(
                f"[{name}] {line}"
                for line in check_suite(name, SUITES[name], args.skip_run,
                                        args.baseline, workdir)
            )
    if failures:
        print("bench-gate: FAILED")
        for line in failures:
            print(f"  - {line}")
        sys.exit(1)
    print("bench-gate: ok")


if __name__ == "__main__":
    main()
