"""Fleet and chaos determinism across hash seeds (ROADMAP 5(b), third slice).

The packet path looks flows up in dicts keyed by ``Host`` identity (whose
default hash is the object's address) and by address strings (whose hash
moves with ``PYTHONHASHSEED``).  Neither dict is ever iterated, and this
pins that it stays so: a fresh interpreter per hash seed runs a 2-site x
2-pair fleet through the parallel runtime and corpus seed 14 under
controller chaos — the schedule with an application failure, a migration
and a lying monitor — and must print the same bytes every time: the
shard-result digest, the verdict bitmap, the migration rows, the
``rib_digest`` and the number of events the engine executed.  The
failover drill example, which seeds each failure class from a table
rather than from ``hash(kind)``, must print the same report too.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import hashlib
from repro.failures.chaos import generate_schedule, run_schedule
from repro.sim.parallel import ParallelRunner
from repro.workloads.fleet import fleet_site_specs

def sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()

# the site schedule compressed so that origination, the WAN border and a
# churn tick all fall inside five virtual seconds
specs = fleet_site_specs(2, pairs=2, routes=20, border_routes=10,
                         churn_ticks=1, seed=3, routes_at=3.0, border_at=3.5,
                         churn_at=4.5)
fleet = ParallelRunner(specs, workers=1).run(5.0)
shards = sorted(fleet.shard_results.items())
print("fleet shards", sha(shards))
print("fleet wan", [(shard["border_established"], len(shard["border_rib"]))
                    for _name, shard in shards])
print("fleet events", fleet.executed, fleet.windows)

chaos = run_schedule(generate_schedule(14, controller_chaos=True))
print("chaos verdicts", chaos.suite.verdict_bitmap())
for record in chaos.system.controller.records:
    print("chaos migration", record.as_row())
print("chaos rib_digest", sha(chaos.system.rib_digest()))
print("chaos events", chaos.events_executed, chaos.completed)
"""


def _probe(hash_seed, *args):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)])
    done = subprocess.run([sys.executable, *(args or ("-c", PROBE))],
                          cwd=REPO_ROOT, env=env, capture_output=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_fleet_and_chaos_identical_under_hash_seeds():
    outputs = {seed: _probe(seed) for seed in ("0", "1", "4242")}
    reference = outputs["0"]
    assert b"fleet wan [(1, 20), (1, 20)]" in reference, reference
    assert reference.count(b"chaos migration") >= 2, reference
    assert b"chaos events" in reference
    for seed, output in outputs.items():
        assert output == reference, f"PYTHONHASHSEED={seed} diverged"


def test_failover_drill_identical_under_hash_seeds():
    outputs = [_probe(seed, "examples/failover_drill.py")
               for seed in ("1", "2")]
    assert b"transient 1.5 s network jitter" in outputs[0], outputs[0]
    assert outputs[0] == outputs[1]
