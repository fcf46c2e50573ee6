"""The fuzz engine: runs, coverage keys, two-budget shrinking, repros.

The ablation (``hold_acks=False``) is the designed-in bug the chaos
engine also pins: here it doubles as the fuzzer's violation-path
regression — found, shrunk across schedule *and* config/topology
dimensions, written out as a replayable ``fuzz_repro_<seed>.py``.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.failures.harness import _PreparedRun
from repro.failures.schedule import generate_schedule
from repro.failures.shrink import (
    ShrinkBudget,
    shrink_scenario,
    write_repro_script,
)
from repro.fuzz import (
    FuzzSpec,
    coverage_key,
    generate_fuzz_spec,
    run_fuzz_spec,
    run_profile,
)
from repro.fuzz.loop import fuzz_loop


def test_run_is_deterministic_and_covered():
    spec = generate_fuzz_spec(1)
    first = run_fuzz_spec(spec, tracing=True)
    second = run_fuzz_spec(spec, tracing=True)
    assert first.first_violation is None, first.summary()
    assert first.completed
    assert first.system.rib_digest() == second.system.rib_digest()
    assert first.events_executed == second.events_executed
    profile = run_profile(first)
    assert profile == run_profile(second)
    assert coverage_key(profile) == coverage_key(run_profile(second))
    # the verdict bitmap shows real oracle engagement, not just absence
    exercised = dict(profile["oracles"])
    assert exercised.get("convergence") is False  # exercised, green
    assert exercised.get("session_continuity") is False
    assert profile["phases"], "traced run must contribute a phase shape"


def test_policy_censored_convergence_stays_green():
    """An import policy that denies a burst block must not trip the
    convergence oracle: the oracle model filters expected sets through
    the same policy."""
    spec = generate_fuzz_spec(1)
    target = spec.workload[0]
    remote = target["remote"]
    octet = int(target["base"].split(".")[1])
    spec.neighbors[remote]["import_policy"] = {
        "name": "censor",
        "default_permit": True,
        "entries": [{
            "permit": False,
            "match_prefixes": [f"{10 + remote}.{(octet // 8) * 8}.0.0/13"],
        }],
    }
    result = run_fuzz_spec(spec)
    assert result.first_violation is None, result.summary()
    # the censored block really was kept out of the gateway Loc-RIB
    suite = next(
        s for s in result.suites
        for r, _sess in s.remotes
        if r.name == f"remote{remote}"
    )
    local = [i for i, (r, _s) in enumerate(suite.remotes)
             if r.name == f"remote{remote}"][0]
    assert suite._accepted(local) != set(suite.live[local])


def test_ablation_trips_shrinks_on_both_budgets_and_replays(tmp_path):
    spec = generate_fuzz_spec(1)
    result = run_fuzz_spec(spec, hold_acks=False)
    violation = result.first_violation
    assert violation is not None
    assert violation.oracle == "ack_durability"

    budget = ShrinkBudget.split(40, config_share=0.4)
    shrunk, final, runs = shrink_scenario(
        spec, hold_acks=False, expect_oracle="ack_durability", budget=budget,
    )
    assert final is not None
    assert final.first_violation.oracle == "ack_durability"
    # config/topology dimensions actually shrank: seed 1 generates a
    # 4-neighbor 2-pair grouped layout; the minimized repro is 1/1
    assert len(shrunk.neighbors) < len(spec.neighbors)
    assert shrunk.pair_count() == 1
    assert budget.used["config"] >= 1
    assert budget.used["schedule"] >= 1
    assert runs == budget.total_used

    path = str(tmp_path / "fuzz_repro_1.py")
    write_repro_script(shrunk, violation, False, path)
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, path],
        capture_output=True, text=True, env=env, cwd=str(root),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "reproduced: ack_durability" in proc.stdout


def test_partial_fuzz_run_is_not_a_pass():
    spec = generate_fuzz_spec(1)
    prepared = _PreparedRun(spec, stop_on_violation=False)
    prepared.step_to(prepared.engine.now + 1.0)
    result = prepared.finish()
    assert result.partial
    assert result.first_violation is None


def test_fuzz_loop_is_seed_deterministic(tmp_path, capsys):
    first = fuzz_loop(seed=5, iterations=3, tracing=False,
                      out_dir=str(tmp_path))
    logs = capsys.readouterr().out.splitlines()
    second = fuzz_loop(seed=5, iterations=3, tracing=False,
                       out_dir=str(tmp_path))
    assert [e["key"] for e in first.corpus] == [e["key"] for e in second.corpus]
    assert first.runs == second.runs == 3
    assert len(logs) == 3


def _equivalent_spec(schedule):
    """The single-pair FuzzSpec that expresses ``schedule``'s topology
    (possible when all its neighbors share one VRF: the split planner
    gives each VRF its own pair, the chaos builder never splits)."""
    assert schedule.neighbors == 1 or schedule.shared_vrf
    return FuzzSpec(
        schedule.seed,
        neighbors=[
            {"remote_as": 64512 + index, "vrf": "v0", "hold_time": 90,
             "keepalive_interval": 30, "mrai": None,
             "bfd_tx_interval": None, "bfd_detect_mult": None,
             "import_policy": None, "export_policy": None}
            for index in range(schedule.neighbors)
        ],
        vrf_layout="shared",
        max_peers_per_container=schedule.neighbors,
        initial_routes=schedule.initial_routes,
        injections=schedule.injections,
        workload=schedule.workload,
        duration=schedule.duration,
    )


@pytest.mark.parametrize("seed", (2, 4))
def test_chaos_schedule_and_equivalent_fuzz_spec_run_identically(seed):
    """One harness: the chaos corpus is the fixed-topology special case
    of a fuzz spec: the two scenario kinds describe the same deployment
    and run identically on it."""
    schedule = generate_schedule(seed)
    assert _equivalent_spec(schedule).deployment() == schedule.deployment()
    chaos = run_fuzz_spec(schedule)
    fuzz = run_fuzz_spec(_equivalent_spec(schedule))
    assert fuzz.summary() == chaos.summary() == "all oracles passed"
    assert fuzz.verdict_bitmap() == chaos.verdict_bitmap()
    assert fuzz.system.rib_digest() == chaos.system.rib_digest()
    assert fuzz.system.engine.now == chaos.system.engine.now
    assert fuzz.events_executed == chaos.events_executed
    assert run_profile(fuzz) == run_profile(chaos)
