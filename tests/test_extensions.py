"""Extensions the paper discusses as alternatives/future work (§5):
the eBPF interception backend and remote replication for disaster
recovery.
"""


import pytest

from repro.config import build_system, lab_spec
from repro.failures import FailureInjector
from repro.workloads.updates import RouteGenerator
from repro.sim.rand import DeterministicRandom


def _lab(seed, **options):
    """The standard lab with system ``options``, converged:
    ``(system, pair, remote, session)``."""
    system, pairs, remotes = build_system({**lab_spec(seed), **options})
    system.engine.advance(10.0)
    remote = remotes["remote0"]
    return system, pairs["pair0"], remote, remote.sessions[0]


def _system(routes=500, **kwargs):
    system, pair, remote, session = _lab(400, **kwargs)
    if routes:
        gen = RouteGenerator(DeterministicRandom(4), 64512, next_hop="192.0.2.1")
        remote.speaker.originate_many("v0", gen.routes(routes))
        start = system.engine.now
        remote.speaker.readvertise(session)
        system.engine.advance(10.0)
        receive_time = (pair.speaker.last_apply_time or start) - start
    else:
        receive_time = None
    return system, pair, remote, session, receive_time


# -- eBPF backend -----------------------------------------------------------------


def test_ebpf_system_works_end_to_end():
    system, pair, _remote, session, _t = _system(routes=300,
                                                 hook_technology="ebpf")
    assert session.established
    assert len(pair.speaker.vrfs["v0"].loc_rib) == 300
    assert pair.stack.nfqueue.technology == "ebpf"
    # NSR still works on the eBPF path
    FailureInjector(system).inject("container", pair, {})
    system.engine.advance(30.0)
    assert session.established
    assert len(pair.speaker.vrfs["v0"].loc_rib) == 300


def test_ebpf_ack_release_latency_lower():
    """The held-ACK release path is cheaper with eBPF: the remote's send
    progress (per-message stall) is shorter."""
    def held_latency(tech):
        system, pair, _remote, session, receive_time = _system(
            routes=2000, hook_technology=tech)
        return receive_time

    netfilter_time = held_latency("netfilter")
    ebpf_time = held_latency("ebpf")
    # receive path is CPU-dominated, so the gain is small but real
    assert ebpf_time <= netfilter_time


# -- remote replication --------------------------------------------------------------


def _fully_acked_time(routes=20_000, **kwargs):
    """Time until the remote sender's table transfer is fully ACKed.

    ACK release waits for replication commits, so this is the metric the
    WAN round trips of synchronous remote replication actually slow down
    (the §5 trade-off; apply time is CPU-bound and hides the effect).
    """
    system, pair, remote, session = _lab(401, **kwargs)
    gen = RouteGenerator(DeterministicRandom(4), 64512, next_hop="192.0.2.1")
    remote.speaker.originate_many("v0", gen.routes(routes))
    start = system.engine.now
    remote.speaker.readvertise(session)
    deadline = start + 120.0
    while (
        remote.speaker.total_updates_sent < routes
        or session.conn.bytes_in_flight > 0
        or session.conn.bytes_unsent > 0
    ):
        system.engine.advance(0.05)
        assert system.engine.now < deadline, "transfer never fully acked"
    return system.engine.now - start


def test_remote_sync_replication_slows_ack_release():
    local_time = _fully_acked_time()
    remote_time = _fully_acked_time(remote_db={"latency": 0.005, "mode": "sync"})
    assert remote_time > local_time * 1.5  # WAN round trips gate the ACKs


def test_remote_async_replication_keeps_performance():
    local_time = _fully_acked_time()
    async_time = _fully_acked_time(remote_db={"latency": 0.005, "mode": "async"})
    assert async_time < local_time * 1.2


def test_remote_store_receives_copies():
    system, pair, remote, session, _t = _system(
        routes=200, remote_db={"latency": 0.005, "mode": "sync"})
    system.engine.advance(2.0)
    # the remote store saw message records too (they are pruned only on
    # the local store; the DR copy retains history until its own GC)
    remote_records = system.remote_db.store.scan("tensor:pair0:msg:")
    assert remote_records  # copies landed across the WAN


def test_remote_mode_validated():
    with pytest.raises(ValueError):
        from repro.core.replication import ReplicationPipeline
        ReplicationPipeline("x", None, None, remote_client=object(),
                            remote_mode="bogus")


def test_nsr_still_zero_loss_with_remote_sync():
    system, pair, remote, session, _t = _system(
        routes=300, remote_db={"latency": 0.005, "mode": "sync"})
    FailureInjector(system).inject("container", pair, {})
    system.engine.advance(40.0)
    assert session.established
    assert len(pair.speaker.vrfs["v0"].loc_rib) == 300
