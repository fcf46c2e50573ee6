#!/usr/bin/env python
"""Parallel fleet benchmark (``make bench-parallel``).

Runs the 8-site / 112-container fleet workload under the conservative
parallel runtime at workers = 1, 2 and 4, verifies that every
configuration produces bit-identical shard results; ``--write``
rewrites ``BENCH_parallel.json`` at the repository root, the regression
gate's baseline, and ``--out PATH`` writes the results elsewhere.
Each configuration's wall is the best of three runs, so one noisy run
cannot move the gate.

Speedup is reported two ways:

- ``measured``: observed wall-clock ratio, workers=1 over workers=4.
  This is the number that is gated (``measured_speedup_4w >= 1.1`` on
  any host with at least 2 cores).
- ``projected``: the critical-path wall from the *measured* per-window,
  per-shard compute times (per window, the slowest worker's summed shard
  busy time; windows add up).  What the same partition would achieve on
  enough cores with free IPC — printed as a diagnostic, never gated.

``cpu_count`` is recorded in the JSON so a baseline moved between hosts
stays interpretable.

The adaptive-lookahead window protocol (DESIGN.md §11) is gated here
too: ``window_stats.quiet_window_reduction`` is the factor by which the
adaptive runtime shrinks the barrier count over the virtual span it
covered with wide windows, versus the fixed-lookahead protocol that
would have diced that same span into ``span / L`` barriers.  The bench
fails if the reduction drops below 10x.  ``time_split`` breaks each
run's wall into compute / barrier-wait / dispatch / pickling, and
``transport`` counts cross-shard frames, batches and pickled bytes.

Two further rows: ``frame_heavy`` (4 sites x 1 pair exchanging a
40,000-route border table across the WAN ring, workers=1/2) is the row
where barrier traffic is heaviest, and ``fleet1k`` runs the
1024-container fleet (16 sites x 32 pairs) sequentially for the scale
ratchet.  The ``before`` block of an existing ``BENCH_parallel.json``
(measurements taken before the barrier transport was reduced to one
pickle per destination shard) is carried over unchanged.

The gated ``results`` rows are wall-based: ``fleet_virtual_seq`` and
``fleet1k_virtual_seq`` are container-virtual-seconds simulated per host
second at workers=1 (containers x virtual duration / wall).  Events per
second is not gated — it *falls* when the fleet gets faster by doing
less — and the event counts stay under ``workload`` and ``fleet1k``.

Usage:
    PYTHONPATH=src python benchmarks/bench_parallel_fleet.py
        [--quick] [--write | --out PATH]
"""

import argparse
import math
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sim.parallel.runtime import ParallelRunner  # noqa: E402
from repro.workloads.fleet import (  # noqa: E402
    FLEET_1K_DURATION,
    fleet_1k_specs,
    fleet_site_specs,
)
from results_file import add_output_options, write_results  # noqa: E402

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

SITES = 8
PAIRS = 7          # 8 sites x 7 pairs x 2 containers = 112 containers
ROUTES = 40
DURATION = 25.0
WORKER_COUNTS = (1, 2, 4)
FRAME_HEAVY_WORKERS = (1, 2)
FRAME_HEAVY_BORDER_ROUTES = 40_000
#: each configuration's wall is the best of this many runs
REPEATS = 3

#: floor on window_stats.quiet_window_reduction enforced below
QUIET_REDUCTION_FLOOR = 10.0
#: floor on measured workers=1 / workers=4 wall, on hosts with >= 2 cores
SPEEDUP_FLOOR = 1.1


def _specs(quick=False):
    if quick:
        return fleet_site_specs(4, pairs=2, routes=20, border_routes=10,
                                churn_ticks=2)
    return fleet_site_specs(SITES, pairs=PAIRS, routes=ROUTES,
                            border_routes=20, churn_ticks=3)


def _frame_heavy_specs(quick=False):
    border_routes = 2_000 if quick else FRAME_HEAVY_BORDER_ROUTES
    return fleet_site_specs(4, pairs=1, routes=ROUTES,
                            border_routes=border_routes, churn_ticks=3)


def _best_of(build, workers, duration=DURATION):
    """Best-wall run of ``REPEATS``, plus whether every repeat produced
    the same shard results and window sequence."""
    runs = [ParallelRunner(build(), workers=workers).run(duration)
            for _ in range(REPEATS)]
    best = min(runs, key=lambda run: run.wall)
    same = all(run.shard_results == best.shard_results
               and run.window_edges == best.window_edges for run in runs)
    return best, same


def _window_stats(result):
    """Adaptive-window effectiveness, from the reference run.

    ``fixed_equiv`` is the barrier count a fixed-lookahead runtime needs
    for the whole duration; ``quiet_fixed_equiv`` is its share for the
    virtual span the adaptive runtime covered with wide windows, and
    ``quiet_window_reduction`` divides that by the wide-window count —
    the factor the adaptive protocol saves during quiet phases.
    """
    wide_count, wide_span = result.wide_windows()
    lookahead = result.lookahead or DURATION
    quiet_fixed_equiv = math.ceil(wide_span / lookahead)
    reduction = quiet_fixed_equiv / wide_count if wide_count else 0.0
    return {
        "windows": result.windows,
        "fixed_equiv": math.ceil(DURATION / lookahead),
        "wide_windows": wide_count,
        "wide_span_s": round(wide_span, 3),
        "quiet_fixed_equiv": quiet_fixed_equiv,
        "quiet_window_reduction": round(reduction, 1),
    }


def _print_run(label, result):
    timing = result.timing
    print(
        f"{label}: wall={result.wall:6.2f}s (best of {REPEATS})"
        f"  windows={result.windows}  events={result.executed}"
    )
    print(
        f"  split: compute={timing['compute_s']:.2f}s"
        f"  barrier_wait={timing['barrier_wait_s']:.2f}s"
        f"  dispatch={timing['barrier_send_s']:.2f}s"
        f"  serialize={timing['serialize_s']:.3f}s"
        f"  | transport: {result.transport['frames']} frames"
        f" / {result.transport['batches']} batches"
        f" / {result.transport['bytes']} bytes"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small 4-site variant for iterating on the bench")
    add_output_options(parser, OUT_PATH)
    args = parser.parse_args(argv)
    if args.quick and args.write:
        parser.error("a --quick run is not a baseline: use --out")

    runs = {}
    determinism_ok = True
    for workers in WORKER_COUNTS:
        result, same = _best_of(lambda: _specs(args.quick), workers)
        runs[workers] = result
        determinism_ok &= same
        _print_run(f"workers={workers}", result)
    reference = runs[1]

    heavy = {}
    for workers in FRAME_HEAVY_WORKERS:
        result, same = _best_of(lambda: _frame_heavy_specs(args.quick),
                                workers)
        heavy[workers] = result
        determinism_ok &= same
        _print_run(f"frame-heavy workers={workers}", result)

    determinism_ok &= all(
        run.shard_results == reference.shard_results
        and run.window_edges == reference.window_edges
        for run in runs.values()
    ) and all(
        run.shard_results == heavy[1].shard_results
        and run.window_edges == heavy[1].window_edges
        for run in heavy.values()
    )
    print(f"determinism: {'ok' if determinism_ok else 'FAILED'}"
          f" (identical shard results and window sequence across worker"
          f" counts and repeats)")

    window_stats = _window_stats(reference)
    print(
        f"windows: {window_stats['windows']} adaptive"
        f" vs {window_stats['fixed_equiv']} fixed-equivalent"
        f"  (quiet-phase reduction"
        f" {window_stats['quiet_window_reduction']:.1f}x over"
        f" {window_stats['wide_span_s']:.1f}s of wide windows)"
    )

    # critical-path projection from the sequential run's measured busy
    # times: same partition, perfect cores, no IPC
    projected = {
        w: reference.projected_wall(w) for w in WORKER_COUNTS
    }
    measured_speedup = runs[1].wall / runs[4].wall
    projected_speedup = projected[1] / projected[4]
    cpu_count = os.cpu_count() or 1
    print(f"measured  speedup @4 workers: {measured_speedup:.2f}x"
          f" (host has {cpu_count} cpu core(s))")
    print(f"projected speedup @4 workers: {projected_speedup:.2f}x"
          f" (diagnostic: critical path of measured per-shard compute)")

    # the scale row: 1024 containers, sequential, for the ops ratchet
    fleet1k = None
    if not args.quick:
        result = ParallelRunner(fleet_1k_specs(), workers=1).run(
            FLEET_1K_DURATION
        )
        containers = sum(
            r["containers"] for r in result.shard_results.values()
        )
        fleet1k = {
            "sites": 16,
            "containers": containers,
            "duration": FLEET_1K_DURATION,
            "windows": result.windows,
            "events": result.executed,
            "wall_s": round(result.wall, 3),
            "projected_speedup_4w": round(
                result.projected_wall(1) / result.projected_wall(4), 2
            ),
        }
        print(
            f"fleet-1k: {containers} containers, {result.executed} events,"
            f" wall={result.wall:.2f}s,"
            f" projected @4 workers {fleet1k['projected_speedup_4w']:.2f}x"
        )

    containers = sum(
        r["containers"] for r in reference.shard_results.values()
    )
    results = {
        "fleet_virtual_seq": {
            "ops_per_sec": round(containers * DURATION / runs[1].wall, 1),
        },
    }
    if fleet1k is not None:
        results["fleet1k_virtual_seq"] = {
            "ops_per_sec": round(
                fleet1k["containers"] * fleet1k["duration"]
                / fleet1k["wall_s"], 1),
        }
    payload = {
        "workload": {
            "sites": SITES if not args.quick else 4,
            "pairs_per_site": PAIRS if not args.quick else 2,
            "containers": containers,
            "duration": DURATION,
            "windows": reference.windows,
            "lookahead": reference.lookahead,
            "events": reference.executed,
        },
        "cpu_count": cpu_count,
        "repeats": REPEATS,
        "results": results,
        "wall": {f"workers_{w}": round(runs[w].wall, 3)
                 for w in WORKER_COUNTS},
        "busy": {f"workers_{w}": round(sum(runs[w].busy.values()), 3)
                 for w in WORKER_COUNTS},
        "projected_wall": {f"workers_{w}": round(projected[w], 3)
                           for w in WORKER_COUNTS},
        "window_stats": window_stats,
        "time_split": {
            f"workers_{w}": {
                key: round(value, 4) for key, value in runs[w].timing.items()
            }
            for w in WORKER_COUNTS
        },
        "transport": {
            f"workers_{w}": dict(runs[w].transport) for w in WORKER_COUNTS
        },
        "frame_heavy": {
            "sites": 4,
            "pairs_per_site": 1,
            "border_routes": (2_000 if args.quick
                              else FRAME_HEAVY_BORDER_ROUTES),
            "duration": DURATION,
            "windows": heavy[1].windows,
            "events": heavy[1].executed,
            "wall": {f"workers_{w}": round(heavy[w].wall, 3)
                     for w in FRAME_HEAVY_WORKERS},
            "serialize_s": {
                f"workers_{w}": round(heavy[w].timing["serialize_s"], 4)
                for w in FRAME_HEAVY_WORKERS
            },
            "frames": heavy[1].transport["frames"],
            "batches": {f"workers_{w}": heavy[w].transport["batches"]
                        for w in FRAME_HEAVY_WORKERS},
            "bytes": {f"workers_{w}": heavy[w].transport["bytes"]
                      for w in FRAME_HEAVY_WORKERS},
        },
        "measured_speedup_4w": round(measured_speedup, 2),
        "projected_speedup_4w": round(projected_speedup, 2),
        "determinism_ok": determinism_ok,
    }
    if fleet1k is not None:
        payload["fleet1k"] = fleet1k
    write_results(payload, OUT_PATH, args.write, args.out)

    if not determinism_ok:
        return 1
    if window_stats["quiet_window_reduction"] < QUIET_REDUCTION_FLOOR:
        print(
            f"quiet-window reduction FAILED:"
            f" {window_stats['quiet_window_reduction']:.1f}x"
            f" < {QUIET_REDUCTION_FLOOR:.0f}x"
        )
        return 1
    if cpu_count >= 2 and measured_speedup < SPEEDUP_FLOOR:
        print(f"measured speedup floor FAILED: {measured_speedup:.2f}x"
              f" < {SPEEDUP_FLOOR}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
