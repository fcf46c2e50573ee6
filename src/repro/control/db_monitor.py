"""Controller-side database health monitor and automatic failover.

Reuses the §3.3 detection discipline (periodic probes, a miss window,
then a verdict) against the KV cluster's primary: the controller pings
the primary's KV port, and when misses accumulate past a confirmation
window it promotes the replica under the next cluster epoch and pushes
repoints to every registered client so held ACKs drain automatically.

Timing: probes every ``PING_INTERVAL`` with a ``PING_TIMEOUT`` budget,
promotion after ``CONFIRM_WINDOW`` of continuous silence.  The window is
deliberately wider than any transient database blip the chaos engine
injects (0.4–1.2 s, and the 2.0 s ablation outage in the NSR invariant
tests) so a recoverable hiccup never triggers a spurious failover, yet
narrow enough that detection + promotion + client drain completes well
inside the liveness oracle's 6 s held-ACK streak limit.

Both the pong and the miss path check the *endpoint generation* the ping
was issued against: after a repoint (or stop) a straggler reply from the
old — possibly fenced — primary must neither clear ``_first_miss`` and
mask a real outage, nor count as a miss against the new primary.

Each replica of the controller panel (DESIGN.md §15) runs its own
monitor as a *witness*: it does not promote directly but hands a
verdict to the panel via ``propose``, and the quorum leader calls
:meth:`execute_promotion` with its leadership epoch.  The losing
replicas are then told about the outcome via :meth:`note_promoted` so
their probes chase the new primary.
"""

from repro.kvstore.client import KvClient

PING_INTERVAL = 0.5
PING_TIMEOUT = 0.5
CONFIRM_WINDOW = 2.5


class DbFailoverMonitor:
    """Pings the KV primary; promotes the replica on confirmed death."""

    def __init__(self, engine, host, cluster, propose):
        self.engine = engine
        self.host = host
        self.cluster = cluster
        #: called with (monitor) on a confirmed death: the panel decides
        #: and its leader calls :meth:`execute_promotion`
        self.propose = propose
        self.client = KvClient(engine, host, cluster.primary_addr,
                               cluster.port)
        self._first_miss = None
        self._stopped = False
        self.failovers = 0
        self.engine.schedule(PING_INTERVAL, self._tick)

    def _tick(self):
        if self._stopped:
            return
        generation = self.client.endpoint_generation
        self.client.ping(
            on_done=lambda: self._on_pong(generation),
            on_error=lambda method, cause: self._on_miss(method, cause,
                                                         generation),
            timeout=PING_TIMEOUT,
        )
        self.engine.schedule(PING_INTERVAL, self._tick)

    def _on_pong(self, generation):
        if self._stopped or generation != self.client.endpoint_generation:
            return
        self._first_miss = None

    def _on_miss(self, _method, _cause, generation=None):
        if self._stopped:
            return
        if (generation is not None
                and generation != self.client.endpoint_generation):
            return
        now = self.engine.now
        if self._first_miss is None:
            self._first_miss = now
            return
        if now - self._first_miss < CONFIRM_WINDOW:
            return
        self._promote()

    def promotion_viable(self):
        # Only promote when there is a live replica to promote onto;
        # after one failover the "replica" slot holds the dead old
        # primary, so a second confirmed death (both nodes gone) waits
        # here rather than ping-ponging the primary role.
        cluster = self.cluster
        return cluster.replica is not None and not cluster.replica.failed

    def _promote(self):
        if self.promotion_viable():
            self.propose(self)

    def execute_promotion(self, controller_epoch=None):
        """Promote the replica; the quorum leader's entry point.

        Returns the new primary address, or None when the promotion was
        not viable or the cluster's epoch gate rejected a stale leader.
        """
        if not self.promotion_viable():
            return None
        new_addr = self.cluster.promote_replica(
            controller_epoch=controller_epoch)
        if new_addr is None:
            return None
        self.failovers += 1
        self._first_miss = None
        self.client.repoint(new_addr, epoch=self.cluster.epoch)
        return new_addr

    def note_promoted(self, new_addr, epoch):
        """A *different* replica's promotion won: follow the new primary."""
        self._first_miss = None
        self.client.repoint(new_addr, epoch=epoch)

    def stop(self):
        self._stopped = True
        self.client.close()
