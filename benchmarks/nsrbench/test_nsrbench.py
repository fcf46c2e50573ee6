"""Self-test of the benchmark: ``pytest benchmarks/nsrbench -q``.

Not part of tier-1 (``testpaths`` stays ``tests``).  Covers what a later
change to the benchmark could silently break: the tracer's self-time
rule, patch and restore, the metric names BENCHMARK.json promises, that
a broken check is counted as a failed operation, and that no process
outlives a run.
"""

import json
import subprocess
import sys

import pytest

from nsrbench import cli, tracing
from nsrbench.tracing import GC, UNTRACED, LayerTracer


def scripted_clock(*ticks):
    ticks = iter(ticks)
    return lambda: next(ticks)


def test_self_time_is_duration_minus_nested_spans():
    #   root      0 ............................................ 12
    #   outer (A)    1 ................................. 10
    #   first (B)       2 ........... 5    second (B) 6 .. 8
    #   inner (A)          3 ... 4
    tracer = LayerTracer(clock=scripted_clock(0, 1, 2, 3, 4, 5, 6, 8, 10, 12))
    a = tracer.layer_index["bgp.rib"]
    b = tracer.layer_index["kvstore"]
    outer, inner = tracer.name_of("outer", a), tracer.name_of("inner", a)
    first, second = tracer.name_of("first", b), tracer.name_of("second", b)

    def run_outer():
        tracer.span(first, None, tracer.span, (inner, None, int, (), {}), {})
        tracer.span(second, None, int, (), {})

    tracer.start()
    tracer.span(outer, None, run_outer, (), {})
    tracer.stop()

    report = tracer.report()
    assert report["wall_s"] == 12
    assert report["layers"]["bgp.rib"] == {"calls": 2, "self_s": 4 + 1}
    assert report["layers"]["kvstore"] == {"calls": 2, "self_s": 2 + 2}
    assert report["untraced_s"] == 12 - 9
    total = report["untraced_s"] + sum(
        layer["self_s"] for layer in report["layers"].values())
    assert total == report["wall_s"]
    records = list(tracer.span_records())
    assert [(r[3], r[1]) for r in sorted(records)] == [
        ("outer", -1), ("first", 0), ("inner", 1), ("second", 0)]


def test_spans_past_the_cap_are_counted_but_not_kept():
    tracer = LayerTracer(span_cap=2)
    name = tracer.name_of("tick", tracer.layer_index["bfd"])
    tracer.start()
    for _ in range(5):
        tracer.span(name, None, int, (), {})
    tracer.stop()
    assert tracer.report()["layers"]["bfd"]["calls"] == 5
    assert len(list(tracer.span_records())) == 2


def _patched_attributes():
    import importlib

    from repro.sim import engine

    yield engine.Engine, "schedule"
    yield engine.Event, "cancel"
    for module_name, classes in tracing.BOUNDARIES.items():
        module = importlib.import_module("repro." + module_name)
        for cls_name, methods in classes.items():
            for method in methods:
                yield getattr(module, cls_name), method


def test_install_then_uninstall_restores_every_symbol():
    before = {(owner, name): owner.__dict__[name]
              for owner, name in _patched_attributes()}
    tracer = LayerTracer().install()
    try:
        assert tracer.missing == []
        changed = [key for key, original in before.items()
                   if key[0].__dict__[key[1]] is not original]
        assert len(changed) == len(before)
    finally:
        tracer.uninstall()
    for (owner, name), original in before.items():
        assert owner.__dict__[name] is original, (owner, name)


def test_a_missing_boundary_is_reported_not_fatal(monkeypatch):
    monkeypatch.setitem(tracing.BOUNDARIES, "bgp.rib",
                        {"LocRib": ("offer", "renamed_away"),
                         "GoneClass": ("method",)})
    tracer = LayerTracer().install()
    tracer.uninstall()
    assert tracer.missing == ["repro.bgp.rib:LocRib.renamed_away",
                              "repro.bgp.rib:GoneClass.method"]


def test_scheduled_callbacks_are_charged_to_their_own_layer():
    from repro.bgp.rib import LocRib
    from repro.sim.engine import Engine
    from repro.sim.process import Process, Timer

    tracer = LayerTracer().install()
    try:
        engine = Engine()
        rib = LocRib()
        # a timer armed before the traced region, firing inside it
        Timer(engine, rib.best_routes).start(1.0)
        tracer.start()
        Process(engine, "p").after(2.0, rib.prefixes)
        cancelled = engine.schedule(3.0, rib.prefixes)
        cancelled.cancel()
        fired = engine.run(until=5.0)
        tracer.stop()
    finally:
        tracer.uninstall()
    assert fired == 2
    names = {row[3]: row[2] for row in tracer.span_records()}
    assert names["LocRib.best_routes"] == "bgp.rib"
    assert names["LocRib.prefixes"] == "bgp.rib"
    assert names["Timer._fire"] == "sim.engine"
    assert names["Engine.run"] == "sim.engine"
    assert tracer.tallies["scheduled"] == 2
    assert tracer.tallies["cancelled"] == 1
    report = tracer.report()
    assert GC in report["layers"] and UNTRACED not in report["layers"]


def run_nsrbench(*args):
    done = subprocess.run(
        [sys.executable, str(cli.PACKAGE), *args],
        stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_promised_metric_is_emitted(trace, section):
    spec = cli.load_spec()
    result = run_nsrbench("--workload", "fulltable_rib", "--smoke",
                          "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    promised = {m["name"]: m["unit"] for m in spec[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == promised
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_lists_the_per_layer_metrics_the_code_emits():
    spec = cli.load_spec()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better)
        for name, (unit, better) in cli.per_layer_metrics().items()]
    from nsrbench.workloads import WORKLOADS

    assert cli.workload_names(spec) == list(WORKLOADS)
    assert spec["paths"] == ["benchmarks/nsrbench"]


def test_a_broken_check_counts_as_failed_operations():
    from repro.bgp.prefixes import Prefix
    from nsrbench.workloads import UpdateRecvPacked

    workload = UpdateRecvPacked(seed=3, smoke=True)
    workload.run()
    good = workload.check()
    assert good.failures == [] and good.attempted > len(workload.tables[0])
    # expect two routes the remote never advertised
    attrs = workload.tables[0][0][1]
    workload.tables[0] += [(Prefix.parse("203.0.113.0/24"), attrs),
                           (Prefix.parse("198.51.100.0/24"), attrs)]
    broken = workload.check()
    assert len(broken.failures) == 2
    assert broken.attempted == good.attempted + 2


def test_a_crashed_or_dirty_run_is_a_failed_operation():
    tally = cli.Tally()
    assert not tally.add_run({"error": "exited with code 1"})
    clean = {"attempted": 10, "failed": 0, "failures": [], "hygiene": []}
    assert tally.add_run(clean)
    assert tally.add_run(dict(clean, hygiene=["child process 7 was left behind"]))
    assert (tally.attempted, tally.failed) == (1 + 10 + 10 + 1, 2)
    tally.require_same({"virtual_s": 1.0}, {"virtual_s": 1.5}, ("virtual_s",),
                       "traced against untraced")
    assert tally.failed == 3


def test_a_process_left_behind_is_noticed():
    shm = cli._shm_entries()
    assert cli.process_is_clean(shm) == []
    stray = subprocess.Popen([sys.executable, "-c", "pass"])
    try:
        problems = cli.process_is_clean(shm)  # reaps it, and says so
    finally:
        stray.wait()
    assert len(problems) == 1 and "child process" in problems[0]
    assert cli.process_is_clean(shm) == []


def test_a_hung_child_is_killed_reaped_and_counted(monkeypatch):
    monkeypatch.setattr(cli, "CHILD_TIMEOUT_S", 0.05)
    run = cli.spawn("fulltable_rib", seed=0, trace=False, smoke=True)
    assert "timed out" in run["error"]
    assert cli.process_is_clean(cli._shm_entries()) == []
