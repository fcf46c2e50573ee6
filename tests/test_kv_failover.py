"""Automatic database failover: epoch fencing, client repoint, and the
controller-side health monitor (DESIGN.md §12).

These pin the bugfixes this subsystem shipped with:

- promote_replica used to leave the old primary's replication channel
  and epoch untouched, so a client that never repointed kept writing
  into the cluster (split brain);
- the coalescer's fire-and-forget delete pruning used to drop exhausted
  batches on the floor, leaking snapshot-store records forever.
"""

import pytest

from conftest import build_tensor_fixture
from repro.control.db_monitor import CONFIRM_WINDOW, DbFailoverMonitor
from repro.core.replication import WriteCoalescer
from repro.failures.injector import FailureInjector
from repro.kvstore import KvClient, KvServer, ReplicatedKvCluster
from repro.kvstore.client import CAUSE_FENCED, CAUSE_REFUSED
from repro.sim import DeterministicRandom, Network
from repro.sim.rpc import RefusalResponder
from repro.workloads.updates import RouteGenerator


@pytest.fixture
def cluster(engine):
    network = Network(engine)
    network.enable_fabric()
    client_host = network.add_host("c", "1.1.1.1")
    primary_host = network.add_host("p", "1.1.1.2")
    replica_host = network.add_host("r", "1.1.1.3")
    cluster = ReplicatedKvCluster(engine, primary_host, replica_host)
    client = KvClient(engine, client_host, cluster.primary_addr,
                      epoch=cluster.epoch)
    return engine, cluster, client


# -- satellite 1: split-brain fencing -----------------------------------------


def test_stale_client_fenced_after_failover(cluster):
    """A client that never learns about the failover keeps writing to the
    old primary; the recovered old primary must reject those writes."""
    engine, cluster, stale = cluster
    stale.set("before", 1, on_done=lambda: None)
    engine.run_until_idle()
    cluster.fail_primary()
    old_primary = cluster.primary
    cluster.promote_replica()
    old_primary.recover()  # comes back with RAM intact — and the fence
    outcomes = []
    stale.mset([("split", "brain")], on_done=lambda: outcomes.append("ok"),
               on_error=lambda _m, cause: outcomes.append(cause))
    engine.run_until_idle()
    assert outcomes == [CAUSE_FENCED]
    assert old_primary.fenced_writes == 1
    assert old_primary.store.get("split") is None
    # and nothing leaked into the new primary through a stale
    # replication channel (the detach half of the fence)
    assert cluster.primary.store.get("split") is None


def test_fence_applies_on_new_primary_too(cluster):
    """An old-epoch write reaching the *new* primary is also rejected —
    the fence is an epoch floor, not a per-node special case."""
    engine, cluster, _client = cluster
    cluster.fail_primary()
    new_addr = cluster.promote_replica()
    any_host = cluster.primary.host
    stale = KvClient(engine, any_host, new_addr, epoch=1)
    outcomes = []
    stale.mset([("k", 1)], on_done=lambda: outcomes.append("ok"),
               on_error=lambda _m, cause: outcomes.append(cause))
    engine.run_until_idle()
    assert outcomes == [CAUSE_FENCED]


def test_unstamped_writes_pass_the_fence(cluster):
    """Raw clients (epoch=None) predate cluster management; their writes
    carry no epoch and must keep working after a promotion."""
    engine, cluster, _client = cluster
    cluster.fail_primary()
    new_addr = cluster.promote_replica()
    raw = KvClient(engine, cluster.replica.host, new_addr)
    done = []
    raw.set("k", "v", on_done=lambda: done.append(True))
    engine.run_until_idle()
    assert done and cluster.primary.store.get("k") == "v"


# -- satellite 2: exhausted delete batches re-queue ---------------------------


def test_exhausted_delete_batch_requeues_not_drops(engine):
    """Prune deletes are fire-and-forget; before the fix an exhausted
    batch vanished and the snapshot-store records leaked forever."""
    network = Network(engine)
    network.enable_fabric()
    client_host = network.add_host("c", "1.1.1.1")
    server_host = network.add_host("s", "1.1.1.2")
    server = KvServer(engine, server_host)
    client = KvClient(engine, client_host, "1.1.1.2")
    unavailable = []
    coalescer = WriteCoalescer(client, on_unavailable=unavailable.append)
    coalescer.set("k", "v")
    engine.run_until_idle()

    server.fail()
    coalescer.delete("k")
    engine.run_until_idle()  # retries exhaust; timers are finite
    assert coalescer.requeued_deletes == 1
    assert unavailable == []  # deletes are not the fail-safe channel
    assert server.store.get("k") == "v"  # not pruned yet, not lost

    server.recover()
    coalescer.kick()
    engine.run_until_idle()
    assert server.store.get("k") is None  # prune finally landed


# -- error causes and repoint -------------------------------------------------


def test_closed_port_refuses_fast(engine):
    """A truly closed KV port answers with a reset, not silence: the
    client sees CAUSE_REFUSED well before its timeout would fire."""
    network = Network(engine)
    network.enable_fabric()
    client_host = network.add_host("c", "1.1.1.1")
    server_host = network.add_host("s", "1.1.1.2")
    server = KvServer(engine, server_host)
    refuser = RefusalResponder(engine, server_host)
    client = KvClient(engine, client_host, "1.1.1.2")
    server.close()
    outcomes = []
    start = engine.now
    client.mset([("k", 1)], on_done=lambda: outcomes.append("ok"),
                on_error=lambda _m, cause: outcomes.append(
                    (cause, engine.now - start)))
    engine.run_until_idle()
    cause, elapsed = outcomes[0]
    assert cause == CAUSE_REFUSED
    assert elapsed < 0.05
    assert refuser.refusals == 1


def test_repoint_reissues_in_flight_batch(cluster):
    """A batch stuck retrying against a dead primary must commit on the
    new primary once the repoint lands — with a fresh retry budget."""
    engine, cluster, client = cluster
    unavailable = []
    coalescer = WriteCoalescer(client, on_unavailable=unavailable.append)
    coalescer.set("a", 1)
    engine.run_until_idle()

    cluster.fail_primary()
    coalescer.set("b", 2)
    engine.advance(0.3)  # in flight against the dead primary
    new_addr = cluster.promote_replica()
    client.repoint(new_addr, epoch=cluster.epoch)
    engine.run_until_idle()

    assert cluster.primary.store.get("b") == 2
    assert unavailable == []
    assert client.endpoint_generation == 1


# -- the controller-side monitor ----------------------------------------------


def _monitored_cluster(engine, seed=8):
    network = Network(engine)
    network.enable_fabric()
    monitor_host = network.add_host("ctl", "1.1.1.9")
    primary_host = network.add_host("p", "1.1.1.2")
    replica_host = network.add_host("r", "1.1.1.3")
    client_host = network.add_host("c", "1.1.1.1")
    cluster = ReplicatedKvCluster(engine, primary_host, replica_host)
    events = []
    monitor = DbFailoverMonitor(
        engine, monitor_host, cluster,
        propose=lambda monitor: events.append(
            (engine.now, monitor.execute_promotion(), cluster.epoch)),
    )
    client = KvClient(engine, client_host, cluster.primary_addr,
                      epoch=cluster.epoch)
    return cluster, monitor, client, events


def test_monitor_promotes_within_window(engine):
    cluster, monitor, client, events = _monitored_cluster(engine)
    client.set("k", 1, on_done=lambda: None)
    engine.advance(2.0)
    killed_at = engine.now
    cluster.fail_primary(permanent=True)
    engine.advance(10.0)
    assert cluster.failovers == 1 and cluster.epoch == 2
    (when, addr, epoch), = events
    assert addr == "1.1.1.3" and epoch == 2
    # first missed probe + confirmation window + one probe period of slack
    assert when - killed_at < CONFIRM_WINDOW + 2.0
    assert cluster.primary.store.get("k") == 1  # sync replica had the data
    monitor.stop()


def test_monitor_ignores_short_blip(engine):
    """An outage shorter than the confirmation window recovers in place:
    no promotion, no epoch bump (§3.3.3 discipline applied to the DB)."""
    cluster, monitor, _client, events = _monitored_cluster(engine)
    engine.advance(2.0)
    cluster.primary.fail()
    engine.schedule(1.5, cluster.primary.recover)
    engine.advance(15.0)
    assert cluster.failovers == 0 and cluster.epoch == 1
    assert events == []
    monitor.stop()


def test_monitor_does_not_pingpong_onto_dead_node(engine):
    """After one failover the replica slot holds the dead old primary; a
    second confirmed death must wait, not promote a corpse."""
    cluster, monitor, _client, events = _monitored_cluster(engine)
    engine.advance(2.0)
    cluster.fail_primary(permanent=True)
    engine.advance(10.0)
    assert cluster.failovers == 1
    cluster.fail_primary(permanent=True)  # the promoted node dies too
    engine.advance(15.0)
    assert cluster.failovers == 1 and cluster.epoch == 2
    monitor.stop()


# -- end to end on a full TensorSystem ----------------------------------------


def test_automatic_failover_drains_held_acks_mid_burst():
    """Kill the KV primary in the middle of an UPDATE burst: the
    controller must detect, promote and repoint on its own, and every
    ACK held against the dead primary must drain."""
    system, pair, remotes = build_tensor_fixture(seed=505, routes=300)
    engine = system.engine
    remote, session = remotes[0]

    gen = RouteGenerator(DeterministicRandom(909).fork("burst"), 64512,
                         next_hop="192.0.2.1")
    remote.speaker.originate_many(session.config.vrf_name,
                                  gen.routes(200, base="55.0.0.0"))
    remote.speaker.readvertise(session)
    engine.advance(0.05)  # the burst is in flight

    injector = FailureInjector(system)
    injector.inject("database_failover", pair, {})
    killed_at = engine.now
    engine.advance(20.0)

    assert system.db_cluster.failovers == 1
    assert system.db_cluster.epoch == 2
    failover_events = [
        (when, detail) for when, kind, detail in system.controller.events
        if kind == "database-failover"
    ]
    assert len(failover_events) == 1
    when, (new_addr, epoch) = failover_events[0]
    assert epoch == 2 and when - killed_at < CONFIRM_WINDOW + 2.0
    assert system.db.host.address == new_addr

    # held ACKs drained and the session never dropped
    assert pair.speaker.tcp_queue.held_count() == 0
    assert session.established

    # the old primary, restarted by an operator with RAM intact, is
    # fenced against never-repointed writers
    old_primary = system.db_cluster.replica
    assert old_primary.failed
    old_primary.failed = False
    stale = KvClient(engine, pair.active_container.endpoint,
                     old_primary.host.address, epoch=1)
    outcomes = []
    stale.mset([("tensor:stale", 1)], on_done=lambda: outcomes.append("ok"),
               on_error=lambda _m, c: outcomes.append(c))
    engine.advance(2.0)
    assert outcomes == [CAUSE_FENCED]
    assert old_primary.store.get("tensor:stale") is None


def test_database_blip_does_not_fail_over_system():
    system, pair, remotes = build_tensor_fixture(seed=506, routes=100)
    injector = FailureInjector(system)
    injector.inject("database_blip", pair, {"duration": 1.2})
    system.engine.advance(20.0)
    assert system.db_cluster.failovers == 0
    assert system.db_cluster.epoch == 1
    assert not any(kind == "database-failover"
                   for _t, kind, _d in system.controller.events)
    assert pair.speaker.tcp_queue.held_count() == 0
