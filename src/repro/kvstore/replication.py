"""Primary-replica KV cluster assembly.

§4.1 note: "our Redis server will not store data on disk but only in RAM
... TENSOR targets providing BGP NSR with respect to single-point
failures.  When either the database or the BGP container fails, TENSOR
can be recovered by simply rebooting the failed service and
re-synchronizing all the data."

The cluster wires a primary :class:`~repro.kvstore.server.KvServer` to a
synchronous replica on a different host and provides the failover levers
a single-point database failure needs: promote the replica under a new
**cluster epoch**, fence the old primary and repoint clients (DESIGN.md
§12).  A failed-over primary stays out: nothing re-synchronizes it.
"""

from repro.kvstore.server import KV_PORT, KvServer
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
        for host in (primary_host, replica_host):
            RefusalResponder(engine, host)

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
