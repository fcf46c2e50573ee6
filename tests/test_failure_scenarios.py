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

import pytest

from repro.failures import ChaosSchedule, FailureInjector, run_scenario

from conftest import build_tensor_fixture

#: ``(kind, target, duration, hard)``: a hard kind destroys state and
#: must end in one migration; a soft one must be survived in place.
CASES = [
    ("application", "active", None, True),
    ("container", "active", None, True),
    ("host_machine", "active", None, True),
    ("host_network", "active", None, True),
    ("container_network", "active", None, True),
    ("transient_network", "active", 1.0, False),
    ("database_blip", None, 0.8, False),
    ("agent", None, None, False),
]


@pytest.mark.parametrize("kind,target,duration,hard", CASES,
                         ids=[case[0] for case in CASES])
def test_scenario_passes_oracle_suite(kind, target, duration, hard):
    schedule = ChaosSchedule(
        500, initial_routes=150, duration=35.0,
        injections=[{"at": 2.0, "scenario": kind, "target": target,
                     "duration": duration}],
    )
    result = run_scenario(schedule)
    assert result.completed and result.first_violation is None, \
        result.summary()
    (injected,) = result.suite._injected_truth
    assert injected["kind"] == kind
    controller = result.system.controller
    if hard:
        (record,) = controller.completed_records()
        assert record.failed_at == pytest.approx(injected["at"])
    else:
        assert not controller.records


# ----------------------------------------------------------------------
# stamp_records ground-truth matching
# ----------------------------------------------------------------------


def test_stamp_records_repeated_injections_each_claim_their_own():
    """Two container failures in sequence -> two records, each stamped
    with its *own* injection time (the double-count regression: both
    records used to get the same, latest injection)."""
    system, pair, _remotes = build_tensor_fixture(seed=501, routes=50)
    injector = FailureInjector(system)
    first = injector.container_failure(pair)
    system.engine.advance(20.0)
    second = injector.container_failure(pair)
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
    container = injector.container_failure(pair)
    system.engine.advance(0.05)
    injector.transient_database_failure(0.3)  # closer to the detection
    system.engine.advance(20.0)
    injector.stamp_records()
    records = system.controller.completed_records()
    assert len(records) == 1
    assert records[0].failure_kind == "container"
    assert records[0].failed_at == container.injected_at


def test_stamp_records_is_idempotent():
    system, pair, _remotes = build_tensor_fixture(seed=503, routes=50)
    injector = FailureInjector(system)
    injection = injector.application_failure(pair)
    system.engine.advance(10.0)
    injector.stamp_records()
    injector.stamp_records()
    records = system.controller.completed_records()
    assert len(records) == 1
    assert records[0].failed_at == injection.injected_at
