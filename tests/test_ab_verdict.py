"""The paired A/B script's regression verdict (``benchmarks/ab.py``),
on synthetic runs: no checkout, no subprocess."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
BASE = {"work_per_s": 1000.0, "setup_s": 2.0, "peak_rss_mb": 100.0,
        "virtual_s": 5.0}


def _runs(**scale):
    """Five pairs around ``BASE``, the change side scaled per metric; the
    last pair is an outlier the median must ignore."""
    base, change = [], []
    for pair, jitter in enumerate((1.0, 1.01, 0.99, 1.02, 0.98)):
        base.append({name: value * jitter for name, value in BASE.items()})
        change.append({name: value * jitter * scale.get(name, 1.0)
                       * (0.5 if pair == 4 and name == "work_per_s" else 1.0)
                       for name, value in BASE.items()})
    return base, change


def _names(**scale):
    return [name for name, _median, _bound
            in ab.regressions(METRICS, *_runs(**scale))]


def test_every_declared_metric_has_a_bound_and_a_direction():
    assert {metric["name"] for metric in METRICS} == set(BASE)
    assert all(metric["bound"] > 0 and metric["better"] in ("higher", "lower")
               for metric in METRICS)


def test_a_run_within_every_bound_passes():
    assert _names() == []
    assert _names(work_per_s=0.8, setup_s=1.2, peak_rss_mb=1.04,
                  virtual_s=1.005) == []
    assert _names(work_per_s=3.0, setup_s=0.1, peak_rss_mb=0.5,
                  virtual_s=0.5) == []


def test_each_metric_past_its_bound_is_named():
    assert _names(work_per_s=0.7) == ["work_per_s"]
    assert _names(setup_s=1.3) == ["setup_s"]
    assert _names(peak_rss_mb=1.06) == ["peak_rss_mb"]
    assert _names(virtual_s=1.02) == ["virtual_s"]
    assert _names(work_per_s=0.7, virtual_s=1.02) == ["work_per_s", "virtual_s"]
    [(name, median, bound)] = ab.regressions(METRICS, *_runs(peak_rss_mb=1.06))
    assert (name, round(median, 6), bound) == ("peak_rss_mb", 1.06, 0.05)


def test_a_zero_base_regresses_only_when_the_change_is_not_zero():
    base, change = _runs()
    for run in base + change:
        run["virtual_s"] = 0.0
    assert ab.regressions(METRICS, base, change) == []
    for run in change:
        run["virtual_s"] = 0.1
    assert [name for name, *_ in ab.regressions(METRICS, base, change)] == [
        "virtual_s"]
