#!/usr/bin/env python3
"""Failover drill: run every Table 1 failure class and print the phases.

Reproduces the paper's operational failure matrix on a small deployment:
application crash (E1), container death (E2), host machine death (E3),
host NIC failure (E5) — plus the transient-jitter case that must NOT
trigger a migration.

Run:  python examples/failover_drill.py
"""

import random

from repro.baselines import baseline_recovery_row
from repro.config import build_system, lab_spec
from repro.failures import FailureInjector
from repro.metrics import format_table
from repro.workloads.topology import DowntimeObserver
from repro.workloads.updates import RouteGenerator

ROUTES = 500

#: One fixed seed per failure class.
KIND_SEEDS = {"application": 1, "container": 2, "host_machine": 3,
              "host_network": 4}


def build(seed):
    system, pairs, remotes = build_system(lab_spec(seed))
    system.run(10.0)
    pair, remote = pairs["pair0"], remotes["remote0"]
    session = remote.sessions[0]
    generator = RouteGenerator(random.Random(seed), 64512, next_hop="192.0.2.1")
    remote.speaker.originate_many("v0", generator.routes(ROUTES))
    remote.speaker.readvertise(session)
    system.run(5.0)
    observer = DowntimeObserver(system.engine, session,
                                remote.speaker.vrfs["v0"], expect_routes=ROUTES)
    observer.start()
    return system, pair, session, observer


def drill(kind, seed):
    system, pair, session, observer = build(seed)
    injector = FailureInjector(system)
    # the pair's active side: its container, or its machine gw-1
    injector.inject(kind, pair, {})
    system.run(45.0)
    injector.stamp_records()
    observer.stop()
    record = system.controller.completed_records()[0]
    return record, observer.total_downtime, session.established


def main():
    rows = []
    for kind in ("application", "container", "host_machine", "host_network"):
        record, downtime, established = drill(kind, seed=KIND_SEEDS[kind])
        baseline = baseline_recovery_row(kind)
        baseline_total = (
            f"~{baseline['total']:.0f}s offline" if baseline["total"] else "N/A"
        )
        rows.append([
            kind,
            f"{record.detection_time:.2f}",
            f"{record.initiation_time:.2f}",
            f"{record.migration_time:.2f}",
            f"{record.recovery_time:.2f}",
            f"{record.total_time:.2f}",
            f"{downtime:.2f}",
            "yes" if established else "NO",
            baseline_total,
        ])
    print(format_table(
        ["failure", "detect", "initiate", "migrate", "recover", "total",
         "downtime", "session held", "baseline"],
        rows,
        title="Failover drill (all times in seconds of virtual clock)",
    ))

    # Bonus: transient jitter below the 3 s confirmation window -> no action.
    system, pair, session, observer = build(seed=99)
    FailureInjector(system).inject("transient_network", pair,
                                   {"duration": 1.5})
    system.run(20.0)
    observer.stop()
    migrated = bool(system.controller.completed_records())
    print(f"\ntransient 1.5 s network jitter: migrated={migrated} "
          f"(expected False), downtime={observer.total_downtime:.2f}s")
    assert not migrated and observer.total_downtime == 0.0


if __name__ == "__main__":
    main()
