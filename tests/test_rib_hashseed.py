"""Loc-RIB determinism across interpreters and hash seeds (ROADMAP 5(b)).

A prefix is a packed int, whose hash is process-independent, while peer
ids are strings, whose hashes are not; the Loc-RIB keys its table by the
one and its contested records by the other.  Nothing that reaches a digest, a snapshot or a return value may
depend on either: a fresh interpreter per ``PYTHONHASHSEED`` value runs
a 2,000-route pair replay (``rib_digest`` is a row per candidate path
of every Loc-RIB, attributes in wire form), the contested-prefix
differential, a snapshot compaction — whose chunk membership lives
in sets of prefix keys and whose merge groups are keyed by tuples holding
peer-id strings — and a packed receive through a prefix-matching import
policy whose stored RIB delta records (runs of NLRI bytes, re-joined
where the policy split a block) are hashed as they sit in the store,
and must print the same bytes every time.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import hashlib
from repro.bgp.rib import Path
from repro.core.replication import ReplicationPipeline
from repro.workloads.fulltable import FullTableWorkload, replay_through_pair
from tests.conftest import build_tensor_fixture
from tests.rib_reference import MemoryKv, contested_churn

def sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()

stats = replay_through_pair(size=2000, churn_ops=250, seed=11)
digest = stats.pop("digest")
print("pair stats", sorted(stats.items()))
for key in sorted(digest):
    print("rib_digest", key, len(digest[key]), sha(digest[key]))
for seed in range(3):
    for lookup_at in (None, 100):
        trace = contested_churn(seed, lookup_at=lookup_at)
        print("contested", seed, lookup_at, len(trace), sha(trace))


# A table slice with every seventh prefix contested, compacted in full
# and then incrementally, with snapshot aggregation on and off.
for aggregate in (True, False):
    workload = FullTableWorkload(seed=11, size=2000)
    rib, kv = workload.build(), MemoryKv()
    for index in range(0, workload.total, 7):
        rib.offer(workload.prefix_at(index), Path(workload.attrs_at(index + 16),
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


# The delta records of a packed receive, as stored: 600 routes in full
# UPDATEs, every fifth /24 of 10.0/16 denied on import and 10.1/16
# re-preferred, so the log holds blocks cut into runs and re-joined.
from repro.bgp import Prefix
from repro.bgp.policy import PolicyAction, PrefixList, RouteMap, RouteMapEntry
from repro.workloads.updates import RouteGenerator
from repro.sim import DeterministicRandom

system, pair, remotes = build_tensor_fixture(seed=11, routes=0)
gateway_session = next(iter(pair.speaker.sessions.values()))
gateway_session.config.import_policy = RouteMap("split", [
    RouteMapEntry(permit=False, match_prefix_list=PrefixList(
        "fifth", [Prefix.parse(f"10.0.{i}.0/24") for i in range(0, 256, 5)])),
    RouteMapEntry(action=PolicyAction(set_local_pref=200),
                  match_prefix_list=PrefixList(
                      "ten-one", [Prefix.parse("10.1.0.0/16")])),
], default_permit=True)
remote, session = remotes[0]
remote.speaker.originate_many("v0", RouteGenerator(
    DeterministicRandom(11), 64512, next_hop="192.0.2.1").routes(600))
remote.speaker.readvertise(session)
system.run(5.0)
deltas = system.db.store.scan("tensor:pair0:rib:v0:d:")
runs = [run for _key, delta in deltas for run in delta["announce"]]
assert len(pair.speaker.vrfs["v0"].loc_rib) == 600 - 52 and len(runs) > len(deltas)
print("deltas", len(deltas), len(runs), sha(deltas))
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
    assert reference.count(b"\n") == 11, reference
    for seed, output in outputs.items():
        assert output == reference, f"PYTHONHASHSEED={seed} diverged"
