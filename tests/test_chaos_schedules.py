"""The chaos schedule engine (DESIGN.md §9).

Tier-1 runs the fixed corpus seeds as a regression net: every seed that
ever exposed a bug (AS-loop seed dependence, the prune/verify-read ACK
leak, the recovered delta-log overwrite, the recovery scan wedge) stays
green forever.  The ablation test checks the engine's teeth: disabling
delayed ACKs must trip ``ack_durability``, shrink to a tiny schedule,
and emit a repro script that replays the violation deterministically.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.failures.chaos import (
    CORPUS_SEEDS,
    DB_FAILOVER_CORPUS_SEEDS,
    TRACED_CORPUS_SEEDS,
    ChaosSchedule,
    ShrinkBudget,
    _PreparedRun,
    generate_schedule,
    run_schedule,
    shrink_schedule,
    write_repro_script,
)

# ----------------------------------------------------------------------
# generation: pure function of the seed
# ----------------------------------------------------------------------


def test_generation_is_deterministic():
    for seed in range(10):
        assert generate_schedule(seed).to_dict() == generate_schedule(seed).to_dict()


def test_schedule_roundtrips_through_dict():
    schedule = generate_schedule(3)
    clone = ChaosSchedule.from_dict(schedule.to_dict())
    assert clone.to_dict() == schedule.to_dict()
    copy = schedule.copy()
    copy.injections.clear()
    assert schedule.injections  # copy is deep enough to mutate freely


def test_generated_schedules_respect_composition_rules():
    """Every generated run must be recoverable by design."""
    for seed in range(40):
        schedule = generate_schedule(seed)
        hard = [e for e in schedule.injections
                if e["scenario"] in ("application", "container",
                                     "container_network", "host_machine",
                                     "host_network")]
        soft = [e for e in schedule.injections if e not in hard]
        assert 2 <= len(schedule.injections) <= 5
        assert 1 <= len(hard) <= 3
        # hard injections spaced wider than a full recovery
        times = sorted(e["at"] for e in hard)
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= 18.0
        # at most one machine-level failure (fencing is permanent)
        machine_level = [e for e in hard
                        if e["scenario"] in ("host_machine", "host_network")]
        assert len(machine_level) <= 1
        last_hard = max(e["at"] for e in hard)
        for event in soft:
            if event["scenario"] == "transient_network":
                # stays under the 3 s confirmation timer
                assert event["duration"] < 3.0
            elif event["scenario"] == "database_blip":
                # stays under the write-retry budget
                assert event["duration"] <= 1.2
            elif event["scenario"] == "agent":
                # agent death only after the last hard failure confirmed
                assert event["at"] >= last_hard + 6.0
        assert schedule.duration > last_hard


# ----------------------------------------------------------------------
# the tier-1 regression corpus
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_corpus_seed_passes_all_oracles(seed):
    schedule = generate_schedule(seed)
    result = run_schedule(schedule)
    assert result.first_violation is None, result.summary()


@pytest.mark.parametrize("seed", TRACED_CORPUS_SEEDS)
def test_traced_corpus_seed_passes_phase_latency_oracle(seed):
    """Seeds 6-9 run under the causal tracer (DESIGN.md §10): every
    standard oracle plus ``phase_latency``, which re-derives the
    delayed-ACK invariant from the recorded spans at each settle
    point, must stay green through multi-failure schedules."""
    schedule = generate_schedule(seed)
    result = run_schedule(schedule, tracing=True)
    assert result.first_violation is None, result.summary()
    store = result.system.trace_store
    assert store is not None and len(store) > 0
    assert store.delayed_ack_violations() == []
    # the schedule's hard failures leave migration spans behind, each
    # linking the failed incarnation to its replacement (same container
    # for in-place app restarts, the standby for backup activations)
    for span in store.spans(name="migration", ended=True):
        if span.attrs["kind"] == "backup_activation":
            assert span.attrs["from_container"] != span.attrs["to_container"]
        else:
            assert span.attrs["from_container"] == span.attrs["to_container"]


@pytest.mark.parametrize("seed", DB_FAILOVER_CORPUS_SEEDS)
def test_db_failover_corpus_seed_passes_all_oracles(seed):
    """Seeds 10-12 permanently kill the KV primary mid-schedule, on top
    of the seed's base injections.  The controller's monitor must fail
    over on its own — nothing in the harness calls promote_replica —
    with every NSR oracle green: no ack-durability violation, held ACKs
    drain inside the liveness streak limit."""
    schedule = generate_schedule(seed, db_failover=True)
    assert any(e["scenario"] == "database_failover"
               for e in schedule.injections)
    result = run_schedule(schedule)
    assert result.first_violation is None, result.summary()
    assert result.system.db_cluster.failovers == 1
    assert result.system.db_cluster.epoch == 2
    assert any(kind == "database-failover"
               for _t, kind, _d in result.system.controller.events)


def test_db_failover_flag_leaves_base_schedule_intact():
    """The failover injection draws from its own named stream: the rest
    of the schedule must be bit-identical with and without the flag, so
    the corpus seeds keep regressing exactly what they always did."""
    for seed in DB_FAILOVER_CORPUS_SEEDS:
        base = generate_schedule(seed).to_dict()
        augmented = generate_schedule(seed, db_failover=True).to_dict()
        stripped = dict(augmented)
        stripped["injections"] = [
            e for e in augmented["injections"]
            if e["scenario"] != "database_failover"
        ]
        assert stripped == base


def test_trace_survives_primary_to_backup_migration():
    """Regression: a container failure under tracing must leave a
    ``migration`` span bridging the two process incarnations, with
    update traces recorded on both sides of the switchover."""
    from repro.failures import FailureInjector
    from repro.workloads.updates import RouteGenerator

    from conftest import build_tensor_fixture

    system, pair, remotes = build_tensor_fixture(
        seed=13, routes=20, tracing=True
    )
    engine = system.engine
    store = system.trace_store
    before = len(store.update_ids(msg="UpdateMessage"))
    assert before > 0
    failed_name = pair.active_container.name

    FailureInjector(system).container_failure(pair=pair)
    engine.advance(30.0)

    (span,) = store.spans(name="migration", ended=True)
    assert span.attrs["kind"] == "backup_activation"
    assert span.attrs["from_container"] == failed_name
    assert span.attrs["to_container"] == pair.active_container.name
    assert span.attrs["to_container"] != failed_name
    assert span.duration > 0.0

    # new traffic after the switchover traces end to end on the new
    # incarnation, with the delayed-ACK invariant intact throughout
    remote, session = remotes[0]
    gen = RouteGenerator(system.rng.fork("post-migration"), 64512,
                         next_hop="192.0.2.1")
    remote.speaker.originate_many(session.config.vrf_name, gen.routes(10))
    remote.speaker.readvertise(session)
    engine.advance(5.0)

    after = len(store.update_ids(msg="UpdateMessage"))
    assert after > before
    assert store.delayed_ack_violations() == []


# ----------------------------------------------------------------------
# replay determinism + the ablation acceptance check
# ----------------------------------------------------------------------


def test_ablation_replays_identically():
    """Two runs of the same (schedule, hold_acks) see the same violation
    at the same virtual instant — the property shrinking relies on.
    (Details are compared modulo the process-global TCP ISS counter,
    which offsets absolute sequence numbers between runs.)"""
    schedule = generate_schedule(0)
    first = run_schedule(schedule, hold_acks=False)
    second = run_schedule(schedule, hold_acks=False)
    assert first.first_violation is not None
    assert first.first_violation.oracle == second.first_violation.oracle
    assert first.first_violation.time == second.first_violation.time


def test_ablation_trips_shrinks_and_replays(tmp_path):
    """hold_acks=False is the designed-in bug: the §3.1.1 invariant must
    trip, the shrinker must reduce the schedule to <= 2 injections, and
    the emitted repro script must replay it from a fresh process."""
    schedule = generate_schedule(0)
    result = run_schedule(schedule, hold_acks=False)
    violation = result.first_violation
    assert violation is not None
    assert violation.oracle == "ack_durability"

    shrunk, final, _runs = shrink_schedule(
        schedule, hold_acks=False, expect_oracle="ack_durability"
    )
    assert final is not None
    assert final.first_violation.oracle == "ack_durability"
    assert len(shrunk.injections) <= 2

    path = str(tmp_path / "chaos_repro_0.py")
    write_repro_script(shrunk, violation, False, path)
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, path],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(root),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "reproduced: ack_durability" in proc.stdout


#: Seeds a phase_latency violation into every traced run (the oracle
#: reads ``TraceStore.delayed_ack_violations`` at each settle point); an
#: untraced run has no trace store and so can never trip it.
SEED_PHASE_VIOLATION = (
    "import repro.trace.store as store;"
    " store.TraceStore.delayed_ack_violations ="
    " lambda self: ['seeded: ack_release began before replicate ended']"
)


def test_traced_violation_shrinks_and_replays_traced(tmp_path, monkeypatch):
    """Regression: the run options travel with the scenario.  The
    shrinker and the repro script used to re-run *untraced*, so a
    ``phase_latency`` violation (traced runs only) shrank to nothing in
    one rerun and its script printed "did NOT reproduce"."""
    from repro.trace.store import TraceStore

    monkeypatch.setattr(
        TraceStore, "delayed_ack_violations",
        lambda self: ["seeded: ack_release began before replicate ended"],
    )
    schedule = generate_schedule(TRACED_CORPUS_SEEDS[0])
    result = run_schedule(schedule, tracing=True)
    violation = result.first_violation
    assert violation is not None and violation.oracle == "phase_latency"
    # the seeded violation needs the tracer, nothing else
    assert run_schedule(schedule).first_violation is None

    shrunk, final, runs = shrink_schedule(
        schedule, tracing=True, expect_oracle="phase_latency", max_runs=16,
    )
    assert final is not None and runs > 1
    assert final.first_violation.oracle == "phase_latency"
    assert not shrunk.injections and not shrunk.workload

    path = str(tmp_path / "chaos_repro_6.py")
    write_repro_script(shrunk, violation, True, path, tracing=True)
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    replay = (f"{SEED_PHASE_VIOLATION}; import runpy;"
              f" runpy.run_path({path!r}, run_name='__main__')")
    proc = subprocess.run(
        [sys.executable, "-c", replay],
        capture_output=True, text=True, env=env, cwd=str(root),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "reproduced: phase_latency" in proc.stdout


# ----------------------------------------------------------------------
# shrink budgets and partial-run detection
# ----------------------------------------------------------------------


def test_shrink_budget_splits_and_reports_exhaustion():
    budget = ShrinkBudget.split(40)
    assert budget.limits["schedule"] + budget.limits["config"] == 40
    assert budget.limits["config"] >= 2  # config pool can never be starved
    assert budget.exhausted() == ()
    while budget.take("config"):
        pass
    assert budget.exhausted() == ("config",)
    assert "exhausted: config" in budget.describe()
    # the schedule pool is untouched by draining config
    assert budget.remaining("schedule") == budget.limits["schedule"]
    assert budget.total_used == budget.limits["config"]


def test_shrink_respects_per_dimension_budget():
    """A starved schedule pool must not consume the config pool: the
    config dimension (dropping the preloaded table) still gets its
    reserved reruns even when schedule shrinking exhausts its own."""
    schedule = generate_schedule(0)
    assert schedule.initial_routes  # seed 0 preloads a table
    budget = ShrinkBudget({"schedule": 3, "config": 2})
    shrunk, final, runs = shrink_schedule(
        schedule, hold_acks=False, expect_oracle="ack_durability",
        budget=budget,
    )
    assert final is not None
    assert runs == budget.total_used
    assert "schedule" in budget.exhausted()
    # the config pool was charged independently of the schedule pool
    assert budget.used["config"] >= 1
    assert budget.used["schedule"] <= 3


def test_prepared_run_reports_partial_when_stopped_early():
    """A run whose engine never reaches the deadline has no oracle
    verdict for the tail: finish() must mark it partial, and the shard
    results must carry the flag."""
    schedule = generate_schedule(0)
    prepared = _PreparedRun(schedule, stop_on_violation=False)
    prepared.step_to(prepared.engine.now + 1.0)  # far short of the deadline
    result = prepared.finish()
    assert result.partial
    assert not result.completed
    assert result.first_violation is None  # "no violations" yet not a pass


def test_full_run_and_violation_halt_both_count_as_completed():
    schedule = generate_schedule(0)
    full = run_schedule(schedule)
    assert full.completed and not full.partial
    # a violation halt did what it set out to do: also completed
    tripped = run_schedule(schedule, hold_acks=False)
    assert tripped.first_violation is not None
    assert tripped.completed


def test_cli_exit_codes_distinguish_partial_runs(monkeypatch, capsys):
    """`--corpus` historically exited 0 whenever no violation was seen,
    even if a run silently stalled mid-schedule under
    stop_on_violation=False.  Partial runs now exit 2."""
    from repro.failures import chaos

    class _FakeSuite:
        violations = ()
        first_violation = None

        def summary(self):
            return "ok"

    class _FakeEngine:
        now = 12.0

    class _FakeSystem:
        engine = _FakeEngine()

    def fake_run(schedule, hold_acks=True, stop_on_violation=True,
                 tracing=False):
        return chaos.ScenarioResult(
            schedule, [_FakeSuite()], _FakeSystem(), 100,
            completed=stop_on_violation,  # partial only when kept going
        )

    monkeypatch.setattr(chaos, "run_schedule", fake_run)
    assert chaos.main(["--seed", "0"]) == 0
    assert chaos.main(["--seed", "0", "--keep-going"]) == 2
    assert chaos.main(["--corpus", "--keep-going"]) == 2
    out = capsys.readouterr().out
    assert "PARTIAL" in out


def test_cli_single_seed_runs_in_its_corpus_flavour(monkeypatch, capsys):
    """`--seed N` used to ignore the flavour flags and run the plain
    schedule, so a failing controller / db-failover / traced corpus seed
    could not be re-run on its own.  It now composes with an explicit
    flag, and without one looks the seed up in the corpus tables."""
    from repro.failures import chaos

    seen = []
    real_run = chaos.run_schedule

    def spy(schedule, **options):
        seen.append((schedule, options))
        schedule = schedule.copy()
        schedule.injections, schedule.workload = [], []
        schedule.initial_routes, schedule.duration = 0, 1.0
        return real_run(schedule, **options)

    monkeypatch.setattr(chaos, "run_schedule", spy)
    assert chaos.main(["--seed", "14", "--controller-corpus"]) == 0
    assert chaos.main(["--seed", "14"]) == 0
    assert chaos.main(["--seed", "20", "--controller-corpus"]) == 0
    for schedule, _options in seen:
        assert schedule.controller_replicas == 3
        assert schedule.to_dict() == generate_schedule(
            schedule.seed, controller_chaos=True).to_dict()
    assert "panel x3" in capsys.readouterr().out

    del seen[:]
    assert chaos.main(["--seed", "6"]) == 0    # a traced corpus seed
    assert chaos.main(["--seed", "10"]) == 0   # a db-failover corpus seed
    assert chaos.main(["--seed", "3"]) == 0    # a plain one
    (traced, t_opts), (failover, f_opts), (plain, p_opts) = seen
    assert t_opts["tracing"] and not f_opts["tracing"] and not p_opts["tracing"]
    assert any(e["scenario"] == "database_failover"
               for e in failover.injections)
    assert plain.to_dict() == generate_schedule(3).to_dict()
    assert plain.controller_replicas == traced.controller_replicas == 1
