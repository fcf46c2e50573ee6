"""Primary-replica KV cluster assembly.

§4.1 note: "our Redis server will not store data on disk but only in RAM
... TENSOR targets providing BGP NSR with respect to single-point
failures.  When either the database or the BGP container fails, TENSOR
can be recovered by simply rebooting the failed service and
re-synchronizing all the data."

The cluster wires a primary :class:`~repro.kvstore.server.KvServer` to a
synchronous replica on a different host and provides the failover levers
a single-point database failure needs: promote the replica under a new
**cluster epoch**, fence the old primary, repoint clients, and later
re-synchronize the rebooted node back in as the new replica without
losing writes acknowledged mid-copy (DESIGN.md §12).
"""

from repro.kvstore.server import KV_PORT, KvServer
from repro.kvstore.store import operation_cost
from repro.sim.rpc import RefusalResponder


class ReplicatedKvCluster:
    """A primary KV server plus one synchronous replica.

    ``epoch`` starts at 1 and increments on every promotion; both
    servers are stamped with the epoch of the last cluster transition
    they took part in, so a write carrying an older epoch is fenced.
    """

    def __init__(self, engine, primary_host, replica_host, port=KV_PORT):
        self.engine = engine
        self.port = port
        self.primary = KvServer(engine, primary_host, port)
        self.replica = KvServer(engine, replica_host, port)
        self.primary.attach_replica(replica_host.address, port)
        self.failovers = 0
        self.epoch = 1
        #: optional controller-leadership fence (distinct from the KV
        #: epoch above): promotions stamped with a stale leadership
        #: epoch are rejected (set by the system when a panel runs)
        self.epoch_gate = None
        self.primary.epoch = self.epoch
        self.replica.epoch = self.epoch
        # Closed-port reset semantics on both hosts: a request to a dead
        # server process fails fast as "refused" rather than timing out,
        # which is what lets client retry loops spin cheaply during the
        # detection window.
        self._refusers = (
            RefusalResponder(engine, primary_host),
            RefusalResponder(engine, replica_host),
        )
        self.resyncs = 0
        self._resync_inflight = False

    @property
    def primary_addr(self):
        return self.primary.host.address

    def fail_primary(self, permanent=False):
        """Kill the primary (a database single-point failure)."""
        self.primary.fail(permanent=permanent)

    def promote_replica(self, controller_epoch=None):
        """Promote the replica to primary after a primary failure.

        Returns the new primary's address; clients must repoint (the
        controller's failover monitor pushes this).  The data is already
        present on the replica because replication is synchronous for
        every acknowledged write.

        The transition bumps the cluster epoch and fences the old
        primary two ways: its replica attachment is detached (it must
        not keep a replication channel into its successor), and its
        epoch floor is raised so that — even across a reboot — writes
        from clients that never repointed are rejected instead of
        applied (split-brain prevention).

        When a controller panel runs, ``controller_epoch`` carries the
        requesting leader's epoch; a stale stamp is rejected (returns
        None) so a deposed ex-leader cannot flip the primary.
        """
        if (self.epoch_gate is not None
                and not self.epoch_gate.accepts(controller_epoch)):
            self.epoch_gate.reject(("promote_replica", self.primary_addr),
                                   controller_epoch)
            return None
        self.failovers += 1
        self.epoch += 1
        old_primary = self.primary
        self.primary, self.replica = self.replica, self.primary
        old_primary.detach_replica()
        old_primary.epoch = self.epoch
        self.primary.epoch = self.epoch
        self.primary.detach_replica()  # old peer is dead; no sync channel
        return self.primary.host.address

    def resync_replica(self, on_done=None):
        """Copy primary data to the (rebooted) replica and re-attach.

        The copy takes simulated time proportional to the record count
        (one bulk read plus one bulk write).  Writes acknowledged on the
        primary *during* the copy land in a resync journal and are
        replayed onto the replica before it re-attaches, closing the
        snapshot->load lost-write window.
        """
        if self._resync_inflight:
            raise RuntimeError("resync already in progress")
        self._resync_inflight = True
        self.replica.reboot()
        snapshot = self.primary.store.snapshot()
        self.primary.begin_resync_journal()
        records = len(snapshot)
        copy_time = operation_cost("mget", records) + operation_cost(
            "mset", records
        )
        self.engine.schedule(copy_time, self._finish_resync, snapshot, on_done)

    def _finish_resync(self, snapshot, on_done):
        self.replica.store.load(snapshot)
        for method, body in self.primary.end_resync_journal():
            self.replica._apply(method, body)
        self.replica.epoch = self.epoch
        self.primary.attach_replica(self.replica.host.address, self.port)
        self.resyncs += 1
        self._resync_inflight = False
        if on_done is not None:
            on_done()
