"""Parallel-runtime smoke check (``make parallel-smoke``).

Runs a miniature two-site fleet twice — workers=1 (sequential sharded
reference) and workers=2 (two spawned workers exchanging pickled frame
batches) — and exits non-zero unless both runs are bit-identical and
the cross-site border BGP mesh actually converged.  Fast enough for
``make verify``.

Usage::

    PYTHONPATH=src python -m repro.sim.parallel.smoke
"""

import sys
import time

from repro.sim.parallel.runtime import ParallelRunner
from repro.workloads.fleet import fleet_site_specs

DURATION = 22.0


def _specs():
    return fleet_site_specs(2, pairs=2, routes=20, border_routes=10,
                            churn_ticks=2, churn_interval=2.0)


def main():
    start = time.perf_counter()
    sequential = ParallelRunner(_specs(), workers=1).run(DURATION)
    sharded = ParallelRunner(_specs(), workers=2).run(DURATION)
    elapsed = time.perf_counter() - start

    failures = []
    if sequential.shard_results != sharded.shard_results:
        failures.append("workers=1 and workers=2 results differ")
    if sequential.window_edges != sharded.window_edges:
        failures.append("workers=1 and workers=2 window sequences differ")
    if sharded.transport["in_process"] or not sharded.transport["bytes"]:
        failures.append("workers=2 run pickled no cross-shard frames")
    for sid in sorted(sequential.shard_results):
        result = sequential.shard_results[sid]
        if result["border_established"] < 1:
            failures.append(f"{sid}: border session never established")
        if len(result["border_rib"]) <= 10:
            failures.append(f"{sid}: no cross-site routes learned")
    if sequential.windows < 2:
        failures.append("expected multiple lookahead windows")

    print(
        f"parallel-smoke: 2 sites, {sequential.windows} windows,"
        f" lookahead {sequential.lookahead * 1e3:.0f} ms,"
        f" {sequential.executed} events, {elapsed:.1f}s wall"
    )
    if failures:
        for line in failures:
            print(f"  FAIL: {line}")
        return 1
    print("parallel-smoke: workers=1 == workers=2 (bit-identical); ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
