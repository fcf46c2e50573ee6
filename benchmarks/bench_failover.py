#!/usr/bin/env python
"""Database failover drain benchmark (``make kv-failover``).

Kills the KV primary permanently in the middle of an UPDATE burst and
measures, on the virtual clock, how long the system takes to get back to
a clean NSR state with no operator involvement:

- ``detect_promote``: primary kill -> the controller's monitor confirms
  the death and promotes the replica (the ``database-failover`` event);
- ``ack_drain``: primary kill -> the *last* held TCP ACK is released
  (clients repointed, parked batches re-issued, verify reads re-read).

§4.1: "when either the database or the BGP container fails, TENSOR can
be recovered by simply rebooting the failed service and re-synchronizing
all the data" — this benchmark holds the automatic half of that promise
to a number: the drain must complete well inside the chaos liveness
oracle's 6 s held-ACK streak limit.

With ``--write`` it rewrites ``BENCH_failover.json`` at the repo root,
the regression gate's baseline (metrics are inverted to ops/s:
recoveries per second, so *slower* recovery gates as a regression);
``--out PATH`` writes the results elsewhere.  ``--smoke`` runs one
reduced scenario and only asserts the invariants, for ``make verify``.

Usage:
    PYTHONPATH=src python benchmarks/bench_failover.py
        [--smoke | --write | --out PATH]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import build_system, lab_spec  # noqa: E402
from repro.failures import FailureInjector  # noqa: E402
from repro.sim import DeterministicRandom  # noqa: E402
from repro.workloads.updates import RouteGenerator  # noqa: E402
from results_file import add_output_options, write_results  # noqa: E402

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_failover.json"

SEEDS = (21, 22, 23)
ROUTES = 200
BURST = 150
#: The chaos liveness oracle's held-ACK streak limit (oracles.py).
DRAIN_BUDGET = 6.0


def build_lab(seed, routes):
    system, pairs, remotes = build_system(lab_spec(seed))
    system.engine.advance(10.0)
    pair, remote = pairs["pair0"], remotes["remote0"]
    session = remote.sessions[0]
    gen = RouteGenerator(DeterministicRandom(seed).fork("workload"), 64512,
                         next_hop="192.0.2.1")
    remote.speaker.originate_many("v0", gen.routes(routes))
    remote.speaker.readvertise(session)
    system.engine.advance(5.0)
    return system, pair, remote, session


def run_failover_once(seed, routes=ROUTES, burst=BURST):
    system, pair, remote, session = build_lab(seed, routes)
    engine = system.engine

    gen = RouteGenerator(DeterministicRandom(seed).fork("burst"), 64512,
                         next_hop="192.0.2.1")
    remote.speaker.originate_many("v0", gen.routes(burst, base="55.0.0.0"))
    remote.speaker.readvertise(session)
    engine.advance(0.05)  # the burst is in flight when the primary dies

    injector = FailureInjector(system)
    injector.database_failover()
    killed_at = engine.now

    # sample the hold queue on the virtual clock: the drain instant is
    # the last time any ACK was still held after the kill
    last_held = [killed_at]

    def poll():
        speaker = pair.speaker
        if speaker is not None and speaker.tcp_queue.held_count() > 0:
            last_held[0] = engine.now
        if engine.now < killed_at + 20.0:
            engine.schedule(0.02, poll)

    poll()
    engine.advance(25.0)

    failover_times = [
        when for when, kind, _detail in system.controller.events
        if kind == "database-failover"
    ]
    assert len(failover_times) == 1, "expected exactly one failover"
    assert system.db_cluster.failovers == 1
    assert system.db_cluster.epoch == 2
    assert session.established, "session dropped during failover"
    assert pair.speaker.tcp_queue.held_count() == 0, "ACKs still held"

    detect_promote = failover_times[0] - killed_at
    ack_drain = last_held[0] - killed_at
    assert ack_drain < DRAIN_BUDGET, (
        f"drain {ack_drain:.2f}s exceeds the {DRAIN_BUDGET:.0f}s budget"
    )
    return detect_promote, ack_drain


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="one reduced scenario, asserts only (no JSON)")
    add_output_options(parser, OUT_PATH)
    args = parser.parse_args(argv)

    if args.smoke:
        detect, drain = run_failover_once(SEEDS[0], routes=80, burst=50)
        print(f"kv-failover smoke: detect+promote={detect:.2f}s"
              f"  ack-drain={drain:.2f}s  (budget {DRAIN_BUDGET:.0f}s)  ok")
        return 0

    detects, drains = [], []
    for seed in SEEDS:
        detect, drain = run_failover_once(seed)
        detects.append(detect)
        drains.append(drain)
        print(f"seed {seed}: detect+promote={detect:.2f}s"
              f"  ack-drain={drain:.2f}s")

    mean_detect = sum(detects) / len(detects)
    mean_drain = sum(drains) / len(drains)
    print(f"mean: detect+promote={mean_detect:.2f}s"
          f"  ack-drain={mean_drain:.2f}s over {len(SEEDS)} seeds")

    payload = {
        "workload": {
            "seeds": list(SEEDS),
            "routes": ROUTES,
            "burst": BURST,
            "drain_budget_s": DRAIN_BUDGET,
        },
        "detect_promote_s": round(mean_detect, 4),
        "ack_drain_s": round(mean_drain, 4),
        # inverted so the gate's "lower ops/s = regression" convention
        # catches a *slower* recovery
        "results": {
            "failover_detect": {"ops_per_sec": round(1.0 / mean_detect, 4)},
            "failover_drain": {"ops_per_sec": round(1.0 / mean_drain, 4)},
        },
    }
    write_results(payload, OUT_PATH, args.write, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
