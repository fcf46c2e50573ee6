"""Chaos schedule engine: randomized multi-failure NSR testing (DESIGN.md §9).

``python -m repro.failures.chaos`` and the chaos-facing names of the
scenario harness.  The engine searches the NSR claim's input space
automatically:

1. :func:`generate_schedule` derives a :class:`ChaosSchedule` from a
   seed (:mod:`repro.failures.schedule`).
2. :func:`run_schedule` — the harness's
   :func:`~repro.failures.harness.run_scenario` — builds a fresh
   :class:`TensorSystem`, replays the schedule, and checks the
   :class:`~repro.failures.oracles.OracleSuite` after every 50 ms engine
   slice.  Running is a pure function of ``(schedule, hold_acks,
   tracing)``, so every violation replays exactly.
3. On violation, :func:`shrink_schedule`
   (:func:`~repro.failures.shrink.shrink_scenario`) minimizes the
   schedule and :func:`write_repro_script` emits a self-contained
   ``chaos_repro_<seed>.py`` that re-runs the shrunk schedule.
"""

import argparse
import sys

from repro.failures.harness import (  # noqa: F401  (chaos-facing names)
    ScenarioResult,
    _PreparedRun,
    run_scenario as run_schedule,
    scenario_shard_specs,
)
from repro.failures.schedule import (  # noqa: F401
    CONTROLLER_CORPUS_SEEDS,
    CORPUS_SEEDS,
    DB_FAILOVER_CORPUS_SEEDS,
    TRACED_CORPUS_SEEDS,
    ChaosSchedule,
    corpus_flavour,
    generate_schedule,
)
from repro.failures.shrink import (  # noqa: F401
    ShrinkBudget,
    shrink_and_report,
    shrink_scenario as shrink_schedule,
    write_repro_script,
)


def chaos_corpus_specs(seeds=CORPUS_SEEDS, hold_acks=True, tracing=False,
                       db_failover=False, controller_chaos=False):
    """ShardSpecs running one chaos seed per shard (all closed shards)."""
    return scenario_shard_specs(
        [generate_schedule(seed, db_failover=db_failover,
                           controller_chaos=controller_chaos)
         for seed in seeds],
        hold_acks=hold_acks, tracing=tracing,
    )


def chaos_corpus_horizon(seeds=CORPUS_SEEDS, db_failover=False,
                         controller_chaos=False):
    """A run duration covering every seed's deadline under the parallel
    runner's shared clock (schedule generation is pure, so this is
    cheap and exact)."""
    return max(
        generate_schedule(seed, db_failover=db_failover,
                          controller_chaos=controller_chaos).duration
        for seed in seeds
    ) + 1.0


# ----------------------------------------------------------------------
# CLI: python -m repro.failures.chaos
# ----------------------------------------------------------------------

def _run_one(seed, hold_acks=True, out_dir=".", tracing=False,
             db_failover=False, stop_on_violation=True,
             controller_chaos=False):
    """Run one seed; returns ``"ok"``, ``"violation"`` or ``"partial"``.

    A *partial* run — the engine stalled before the deadline without a
    violation halt — has no oracle verdict for the uncovered tail, so
    it must never read as a pass.
    """
    schedule = generate_schedule(seed, db_failover=db_failover,
                                 controller_chaos=controller_chaos)
    result = run_schedule(schedule, hold_acks=hold_acks, tracing=tracing,
                          stop_on_violation=stop_on_violation)
    if result.first_violation is None:
        if result.partial:
            print(
                f"seed {seed}: PARTIAL — engine stalled at"
                f" {result.system.engine.now:.3f}s, before the"
                f" {schedule.duration:.0f}s horizon; the uncovered tail"
                " has no oracle verdict"
            )
            return "partial"
        traced = "traced, " if tracing else ""
        failover = "db-failover, " if db_failover else ""
        panel = (
            f"panel x{schedule.controller_replicas}, "
            if controller_chaos else ""
        )
        print(
            f"seed {seed}: ok ({traced}{failover}{panel}"
            f"{len(schedule.injections)} injections,"
            f" {len(schedule.workload)} bursts, {schedule.neighbors} neighbors,"
            f" {schedule.duration:.0f}s virtual)"
        )
        return "ok"
    prefix = "panel_repro" if controller_chaos else "chaos_repro"
    shrink_and_report(schedule, result, hold_acks, tracing=tracing,
                      out_dir=out_dir, prefix=prefix)
    return "violation"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Randomized multi-failure NSR testing (DESIGN.md §9)"
    )
    parser.add_argument("--seeds", type=int, default=None,
                        help="sweep seeds 0..N-1")
    parser.add_argument("--seed", type=int, default=None,
                        help="run one seed, in the flavour (traced,"
                             " db-failover, controller) the corpus runs it"
                             " in; --controller-corpus forces that flavour")
    parser.add_argument("--corpus", action="store_true",
                        help="run the fixed tier-1 corpus seeds")
    parser.add_argument("--controller-corpus", action="store_true",
                        help="run the controller-plane chaos seeds"
                             " (3-replica panel, DESIGN.md §15)")
    parser.add_argument("--ablation", action="store_true",
                        help="run with delayed ACKs disabled (must trip)")
    parser.add_argument("--keep-going", action="store_true",
                        help="do not halt a run at its first violation"
                             " (collect them all; partial runs exit 2)")
    parser.add_argument("--out", default=".", help="repro script directory")
    args = parser.parse_args(argv)
    stop_on_violation = not args.keep_going

    if args.ablation:
        seed = args.seed if args.seed is not None else 0
        schedule = generate_schedule(seed)
        result = run_schedule(schedule, hold_acks=False)
        if result.first_violation is None:
            print(f"ablation seed {seed}: no oracle tripped (UNEXPECTED)")
            return 1
        shrunk, path = shrink_and_report(
            schedule, result, hold_acks=False, out_dir=args.out
        )
        print(f"ablation tripped as designed; replay: PYTHONPATH=src python {path}")
        return 0

    if args.seed is not None:
        seeds = (args.seed,)
    elif args.controller_corpus:
        seeds = CONTROLLER_CORPUS_SEEDS
    elif args.corpus:
        seeds = CORPUS_SEEDS + TRACED_CORPUS_SEEDS + DB_FAILOVER_CORPUS_SEEDS
    else:
        seeds = range(args.seeds if args.seeds is not None else 10)
    failures = partials = 0
    for seed in seeds:
        if args.controller_corpus:
            tracing, db_failover, controller_chaos = False, False, True
        elif args.seed is not None or args.corpus:
            tracing, db_failover, controller_chaos = corpus_flavour(seed)
        else:  # a sweep runs every seed plain
            tracing = db_failover = controller_chaos = False
        status = _run_one(seed, out_dir=args.out, tracing=tracing,
                          db_failover=db_failover,
                          stop_on_violation=stop_on_violation,
                          controller_chaos=controller_chaos)
        failures += status == "violation"
        partials += status == "partial"
    total = len(seeds)
    tail = f" ({partials} partial)" if partials else ""
    print(f"{total - failures - partials}/{total} seeds passed{tail}")
    if failures:
        return 1
    return 2 if partials else 0


if __name__ == "__main__":
    sys.exit(main())
