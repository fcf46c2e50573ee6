"""Loc-RIB determinism across interpreters and hash seeds (ROADMAP 5(b)).

``Prefix`` caches an int-tuple hash on the argument that int hashes are
process-independent, while peer ids are strings, whose hashes are not;
the Loc-RIB keys its table by the one and its contested records by the
other.  Nothing that reaches a digest, a snapshot or a return value may
depend on either: a fresh interpreter per ``PYTHONHASHSEED`` value runs
a 2,000-route pair replay (``rib_digest`` is ``export_entries()`` of
every Loc-RIB, attributes in wire form), the contested-prefix
differential, and a snapshot compaction — whose chunk membership lives
in sets of ``Prefix`` and whose merge groups are keyed by tuples holding
peer-id strings — and must print the same bytes every time.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import hashlib
from repro.bgp.rib import Route
from repro.core.replication import ReplicationPipeline
from repro.workloads.fulltable import FullTableWorkload, replay_through_pair
from tests.rib_reference import MemoryKv, contested_churn

def sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()

stats = replay_through_pair(size=2000, churn_ops=250, seed=11)
digest = stats.pop("digest")
print("pair stats", sorted(stats.items()))
for key in sorted(digest):
    print("rib_digest", key, len(digest[key]), sha(digest[key]))
for seed in range(3):
    for index_at in (None, 100):
        trace = contested_churn(seed, index_at=index_at)
        print("contested", seed, index_at, len(trace), sha(trace))


# A table slice with every seventh prefix contested, compacted in full
# and then incrementally, with snapshot aggregation on and off.
for aggregate in (True, False):
    workload = FullTableWorkload(seed=11, size=2000)
    rib, kv = workload.build(), MemoryKv()
    for index in range(0, workload.total, 7):
        rib.offer(Route(workload.prefix_at(index), workload.attrs_at(index + 16),
                        f"edge{1 + index % 3}", "ebgp"))
    pipeline = ReplicationPipeline("pair", kv, kv, aggregate_snapshots=aggregate)
    pipeline.compact("v", rib)
    workload.churn(rib, 150, seed=3)
    for index in range(0, workload.total, 21):
        rib.retract(workload.prefix_at(index), "edge0")
    pipeline.compact("v", rib)
    assert pipeline.incremental_compactions == 1
    print("store", aggregate, len(kv.store), pipeline.snapshot_chunks_written,
          sha(sorted(kv.store.items())))
"""


def _probe(hash_seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)])
    done = subprocess.run([sys.executable, "-c", PROBE], cwd=REPO_ROOT,
                          env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_rib_digest_and_contested_trace_identical_under_hash_seeds():
    outputs = {seed: _probe(seed) for seed in ("0", "1", "4242")}
    reference = outputs["0"]
    assert reference.count(b"\n") == 10, reference
    for seed, output in outputs.items():
        assert output == reference, f"PYTHONHASHSEED={seed} diverged"
