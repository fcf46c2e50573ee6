"""One description of a deployment (DESIGN.md §3, §9).

Every scenario, fixture, bench and example describes its system as a
:mod:`repro.config` spec, and :func:`repro.config.build_system` is the
only code that wires one.  The spec is plain data: a scenario's
deployment passed through JSON runs bit-identically to the original.
"""

import json
from pathlib import Path

from repro.failures.harness import run_scenario
from repro.failures.schedule import ChaosSchedule, generate_schedule
from repro.fuzz.spec import FuzzSpec, generate_fuzz_spec

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The files that may construct a system: the config loader, and the
#: benchmark harness that is frozen with its workloads.
WIRING = {"src/repro/config/loader.py", "benchmarks/nsrbench/workloads.py"}


def _through_json(scenario):
    """A copy of ``scenario`` whose deployment went through JSON."""
    spec = scenario.deployment()
    assert json.loads(json.dumps(spec)) == spec, "a spec must be plain data"
    clone = scenario.copy()
    replayed = json.loads(json.dumps(spec))
    clone.deployment = lambda hold_acks=True, tracing=False: replayed
    return clone


def _assert_same_run(scenario):
    original = run_scenario(scenario)
    replayed = run_scenario(_through_json(scenario))
    assert replayed.events_executed == original.events_executed
    assert replayed.system.rib_digest() == original.system.rib_digest()
    assert replayed.verdict_bitmap() == original.verdict_bitmap()
    assert replayed.summary() == original.summary()


def test_chaos_deployment_replays_through_json():
    _assert_same_run(generate_schedule(2))


def test_multi_pair_fuzz_deployment_replays_through_json():
    # seed 9: two split pairs, import and export policies, BFD timer
    # overrides, a 180 s hold time and snapshot aggregation
    spec = generate_fuzz_spec(9)
    assert spec.pair_count() == 2
    assert any(n["import_policy"] for n in spec.neighbors)
    assert any(n["export_policy"] for n in spec.neighbors)
    deployment = spec.deployment()
    assert all(pair["aggregate_snapshots"] for pair in deployment["pairs"])
    _assert_same_run(spec)


def test_only_the_config_loader_wires_a_system():
    needle = "TensorSystem" + "("
    hits = {
        path.relative_to(REPO_ROOT).as_posix()
        for top in ("src", "tests", "benchmarks", "examples")
        for path in (REPO_ROOT / top).rglob("*.py")
        if needle in path.read_text(encoding="utf-8")
    }
    assert "src/repro/config/loader.py" in hits
    assert hits <= WIRING, sorted(hits - WIRING)
    # scenarios describe their deployment; the harness builds it
    for scenario in (ChaosSchedule, FuzzSpec):
        assert not hasattr(scenario, "build"), scenario
