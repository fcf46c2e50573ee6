"""Every failure kind alone, judged by the oracle suite.

Each kind a chaos schedule composes (Table 1 plus the soft classes) runs
here as a one-injection :class:`ChaosSchedule` through the scenario
harness, under the same continuous oracles, so a kind that breaks an
NSR invariant is caught with a one-failure trace before any randomized
composition ever hits it.

Also the regression net for :meth:`FailureInjector.stamp_records`: each
controller record must be stamped with the ground truth of the failure
it actually recovered from, even under repeated injections on the same
target and unrelated near-in-time injections.
"""

import ast
from pathlib import Path

import pytest

from repro.failures import (ChaosSchedule, FailureInjector, generate_schedule,
                            injector, run_scenario)
from repro.failures.injector import KINDS
from repro.fuzz.spec import generate_fuzz_spec

from conftest import build_tensor_fixture

#: ``(kind, event keys, hard, controller replicas)``: a hard kind
#: destroys state and must end in one migration; a soft one must be
#: survived in place.  One case per row of the kinds table, in its order.
CASES = [
    ("application", {"target": "active"}, True, 1),
    ("container", {"target": "active"}, True, 1),
    ("container_network", {"target": "active"}, True, 1),
    ("host_machine", {"target": "active"}, True, 1),
    ("host_network", {"target": "active"}, True, 1),
    ("transient_network", {"target": "active", "duration": 1.0}, False, 1),
    ("database_blip", {"duration": 0.8}, False, 1),
    ("database_failover", {}, False, 1),
    ("agent", {}, False, 1),
    ("backup_container", {"target": "standby"}, False, 1),
    ("controller_replica_crash", {"target": 1, "duration": 5.0}, False, 3),
    ("controller_partition",
     {"target": 2, "machine": "gw-1", "duration": 6.0}, False, 3),
    ("lying_monitor",
     {"target": 0, "mode": "accuse_container", "duration": 6.0}, False, 3),
]


@pytest.mark.parametrize("kind,keys,hard,replicas", CASES,
                         ids=[case[0] for case in CASES])
def test_scenario_passes_oracle_suite(kind, keys, hard, replicas):
    schedule = ChaosSchedule(
        500, initial_routes=150, duration=35.0, controller_replicas=replicas,
        injections=[{"at": 2.0, "scenario": kind, "target": None,
                     "duration": None, **keys}],
    )
    result = run_scenario(schedule)
    assert result.completed and result.first_violation is None, \
        result.summary()
    (injected,) = result.suite.injector.injections
    assert injected.kind == kind
    controller = result.system.controller
    if hard:
        (record,) = controller.completed_records()
        assert record.failed_at == pytest.approx(injected.injected_at)
    else:
        assert not controller.records


def test_every_generated_kind_has_one_row_and_one_case():
    """The kinds table is the vocabulary: every kind either generator
    emits has exactly one row, and each row's lever fires in one case
    above."""
    emitted = set()
    for seed in range(40):
        for db_failover, controller_chaos in ((False, False), (True, True)):
            emitted.update(event["scenario"] for event in generate_schedule(
                seed, db_failover, controller_chaos).injections)
        emitted.update(event["scenario"]
                       for event in generate_fuzz_spec(seed).injections)
    rows = [key.value for node in ast.walk(ast.parse(
                Path(injector.__file__).read_text(encoding="utf-8")))
            if isinstance(node, ast.Assign)
            and getattr(node.targets[0], "id", None) == "KINDS"
            for key in node.value.keys]
    assert sorted(rows) == sorted(emitted) == sorted(KINDS)
    assert [case[0] for case in CASES] == list(KINDS)


# ----------------------------------------------------------------------
# stamp_records ground-truth matching
# ----------------------------------------------------------------------


def test_stamp_records_repeated_injections_each_claim_their_own():
    """Two container failures in sequence -> two records, each stamped
    with its *own* injection time (the double-count regression: both
    records used to get the same, latest injection)."""
    system, pair, _remotes = build_tensor_fixture(seed=501, routes=50)
    injector = FailureInjector(system)
    first = injector.inject("container", pair, {})
    system.engine.advance(20.0)
    second = injector.inject("container", pair, {})
    system.engine.advance(20.0)
    injector.stamp_records()
    records = sorted(
        system.controller.completed_records(), key=lambda r: r.detected_at
    )
    assert len(records) == 2
    assert records[0].failed_at == first.injected_at
    assert records[1].failed_at == second.injected_at
    assert records[0].failed_at != records[1].failed_at


def test_stamp_records_ignores_incompatible_injections():
    """An unrelated database blip landing nearer the detection must not
    become a container record's ground truth."""
    system, pair, _remotes = build_tensor_fixture(seed=502, routes=50)
    injector = FailureInjector(system)
    container = injector.inject("container", pair, {})
    system.engine.advance(0.05)
    injector.inject("database_blip", pair, {"duration": 0.3})  # closer to the detection
    system.engine.advance(20.0)
    injector.stamp_records()
    records = system.controller.completed_records()
    assert len(records) == 1
    assert records[0].failure_kind == "container"
    assert records[0].failed_at == container.injected_at


def test_stamp_records_is_idempotent():
    system, pair, _remotes = build_tensor_fixture(seed=503, routes=50)
    injector = FailureInjector(system)
    injection = injector.inject("application", pair, {})
    system.engine.advance(10.0)
    injector.stamp_records()
    injector.stamp_records()
    records = system.controller.completed_records()
    assert len(records) == 1
    assert records[0].failed_at == injection.injected_at
