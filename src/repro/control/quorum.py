"""Quorum voting, leadership leases and epoch fencing for the panel.

The replicated controller (DESIGN.md §15) splits the single controller's
*trust* three ways, borrowing P4BFT's comparator idea: each replica is an
independent witness (its own gRPC heartbeats, IP SLA feeds and database
probes), and a recovery action fires only when a **quorum** of replicas
independently confirmed the same failure.  A single crashed, partitioned
or *lying* replica can therefore neither trigger a wrong failover nor
suppress a right one.

Actions are additionally **epoch-fenced**: the panel elects a sticky
leader, every leadership change bumps a monotonic epoch, and receivers
(pairs, the fencing registry, the KV cluster) reject actions stamped
with an epoch below the announced floor — a partitioned ex-leader's
in-flight decisions die at the receiver instead of migrating a healthy
pair.  This reuses the discipline of the KV cluster's own failover
epochs (PR 5); the two epoch spaces are independent.
"""


class HealthVerdict:
    """One replica's confirmed opinion about one target."""

    __slots__ = ("replica_id", "kind", "target_name", "confirmed_at",
                 "incarnation", "detail")

    def __init__(self, replica_id, kind, target_name, confirmed_at,
                 incarnation, detail=None):
        self.replica_id = replica_id
        self.kind = kind
        self.target_name = target_name
        self.confirmed_at = confirmed_at
        #: the reporting detector's epoch: bumps every replica reboot, so
        #: a verdict can be traced to the detector incarnation that saw it
        self.incarnation = incarnation
        self.detail = detail

    def __repr__(self):
        return (
            f"<HealthVerdict r{self.replica_id}#{self.incarnation}"
            f" {self.kind} {self.target_name} @{self.confirmed_at:.3f}>"
        )


class QuorumTracker:
    """Counts distinct-replica votes per incident; fires each once.

    An *incident* is any hashable key (the panel uses
    ``("health", kind, target)`` and ``("db", cluster_epoch)``).  A vote
    is one replica's verdict; :meth:`submit` returns True exactly once —
    on the vote that first reaches quorum — and False for every earlier,
    later or repeated vote.  :meth:`reset_target` clears incidents
    naming a target once its recovery completed, so a *recurring* real
    failure can form a fresh quorum.
    """

    def __init__(self, size):
        self.size = size
        self.quorum = size // 2 + 1
        self._votes = {}  # incident key -> set of replica ids
        self._acted = set()

    def submit(self, key, replica_id):
        votes = self._votes.setdefault(key, set())
        votes.add(replica_id)
        if key in self._acted:
            return False
        if len(votes) >= self.quorum:
            self._acted.add(key)
            return True
        return False

    def acted(self, key):
        return key in self._acted

    def reset_target(self, target_name):
        """Forget every incident that names ``target_name``."""
        for key in [k for k in self._votes if target_name in k]:
            self._votes.pop(key, None)
            self._acted.discard(key)

    def __repr__(self):
        return (
            f"<QuorumTracker {self.quorum}/{self.size},"
            f" {len(self._votes)} incident(s), {len(self._acted)} acted>"
        )


class LeaderLease:
    """Sticky leadership over an ordered replica list.

    The leader keeps the lease while it is alive; when it dies, the
    lowest-indexed live replica takes over and the epoch increments.
    (Deliberately *not* a consensus protocol: the panel replicas share
    the simulated management fabric, so a deterministic lowest-index
    rule is enough — the safety burden is carried by the epoch fence,
    not by the election.)
    """

    def __init__(self, replicas):
        self.replicas = list(replicas)
        self.leader_index = 0
        self.epoch = 1
        self.transitions = []  # (epoch, leader_index) history

    def leader(self):
        return self.replicas[self.leader_index]

    def ensure(self):
        """Re-elect if the current leader is dead.  Returns True when
        leadership changed (callers then announce the new epoch)."""
        if self.replicas[self.leader_index].alive:
            return False
        for index, replica in enumerate(self.replicas):
            if replica.alive:
                self.leader_index = index
                self.epoch += 1
                self.transitions.append((self.epoch, index))
                return True
        # every replica is dead: the panel is down; keep the stale
        # leader so a later reboot resumes deterministically
        return False

    def __repr__(self):
        return f"<LeaderLease leader=r{self.leader_index} epoch={self.epoch}>"


class EpochGate:
    """The receiver-side fence: reject actions below the epoch floor.

    ``announce(epoch)`` raises the floor (monotonic); ``accepts(stamp)``
    is the check every receiver runs before executing a recovery action.
    A ``None`` stamp always passes — it marks an action the controller
    did not issue (an operator or a test driving a pair directly).
    """

    def __init__(self):
        self.floor = 1
        self.rejections = []  # (action, stamped_epoch, floor_at_rejection)

    def announce(self, epoch):
        if epoch > self.floor:
            self.floor = epoch

    def accepts(self, stamp):
        return stamp is None or stamp >= self.floor

    def reject(self, action, stamp):
        self.rejections.append((action, stamp, self.floor))

    def __repr__(self):
        return f"<EpochGate floor={self.floor} rejected={len(self.rejections)}>"
