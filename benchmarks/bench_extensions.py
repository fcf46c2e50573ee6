"""Extension benchmarks: eBPF vs Netfilter, and remote replication.

Both are §5 discussion items the paper leaves open:

- "an alternative is to rely on eBPF which has demonstrated better
  performance over Netfilter ... We leave further implementation and
  comparison as future work" — here, implemented and compared;
- "Remote replication for disaster recovery ... the delay for backing up
  data at another city ... is most likely to exceed the milliseconds-
  level threshold.  An alternative is to back up data in an asynchronous
  manner."
"""

import random

from conftest import run_once
from repro.config import build_system, lab_spec
from repro.metrics import format_table
from repro.workloads.updates import RouteGenerator

ROUTES = 20_000


def _transfer_fully_acked(**options):
    """Seconds for a 20K-update table transfer to be fully acknowledged
    in the standard lab with system ``options``."""
    system, pairs, remotes = build_system({**lab_spec(900), **options})
    system.engine.advance(10.0)
    pair, remote = pairs["pair0"], remotes["remote0"]
    session = remote.sessions[0]
    gen = RouteGenerator(random.Random(4), 64512, next_hop="192.0.2.1")
    remote.speaker.originate_many("v0", gen.routes(ROUTES))
    start = system.engine.now
    remote.speaker.readvertise(session)
    while (
        remote.speaker.total_updates_sent < ROUTES
        or session.conn.bytes_in_flight > 0
        or session.conn.bytes_unsent > 0
    ):
        system.engine.advance(0.05)
        if system.engine.now - start > 300:
            raise TimeoutError("transfer never fully acked")
    acked = system.engine.now - start
    applied = (pair.speaker.last_apply_time or start) - start
    return acked, applied


def run_experiment():
    return {
        "netfilter": _transfer_fully_acked(hook_technology="netfilter"),
        "ebpf": _transfer_fully_acked(hook_technology="ebpf"),
        "remote-sync-5ms": _transfer_fully_acked(
            remote_db={"latency": 0.005, "mode": "sync"}),
        "remote-async-5ms": _transfer_fully_acked(
            remote_db={"latency": 0.005, "mode": "async"}),
    }


def test_extensions(benchmark):
    results = run_once(benchmark, run_experiment)
    print()
    print(format_table(
        ["configuration", "transfer fully ACKed (s)", "table applied (s)"],
        [[name, f"{acked:.3f}", f"{applied:.3f}"]
         for name, (acked, applied) in results.items()],
        title=f"Extensions: {ROUTES:,}-update transfer under interception/"
              "replication variants",
    ))
    nf_acked, _ = results["netfilter"]
    ebpf_acked, _ = results["ebpf"]
    sync_acked, _ = results["remote-sync-5ms"]
    async_acked, _ = results["remote-async-5ms"]
    assert ebpf_acked <= nf_acked  # eBPF's cheaper interception path
    assert sync_acked > nf_acked * 1.5  # WAN sync gates ACK release hard
    assert async_acked < nf_acked * 1.2  # async hides the WAN entirely
