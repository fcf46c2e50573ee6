"""The failure injector: the one owner of the failure-kind vocabulary.

:data:`KINDS` has one row per kind a schedule's ``"scenario"`` can name;
:meth:`FailureInjector.inject` is the only dispatch from a kind to its
lever, and :attr:`FailureInjector.injections` is the one ground-truth
ledger the oracles, the record stamping (Table 1's detection latency,
detected_at - failed_at) and the benchmarks judge against.
"""

from collections import namedtuple

from repro.sim.calibration import HOST_FAILURE_CONFIRM_TIMER

#: One kind's row in :data:`KINDS`:
#:
#: - ``lever(injector, pair, machine, event)`` pulls the failure;
#: - ``pair_scoped``: the blast radius is one pair, so only that pair's
#:   oracle suite hears of it;
#: - ``records``: the controller-record ``failure_kind`` values it can be
#:   the ground truth of.  Database blips and agent death never produce
#:   records; transient network jitter produces a (machine) record only
#:   when it outlives the confirmation timer;
#: - ``justifies``: the accepted verdicts it can explain (``"machine"``
#:   for a machine-unreachable verdict, ``"container"`` for a container
#:   verdict on its pair) and ``"promotion"``, a database promotion;
#: - ``fence_after``: the failure licenses fencing its machine once it
#:   lasts this long (None: never);
#: - ``hard``: it destroys state, so it needs a full recovery and the
#:   generators space it from the next hard kind;
#: - ``kills_relay``: the remote BFD relay dies with it.
Kind = namedtuple("Kind", "lever pair_scoped records justifies fence_after"
                          " hard kills_relay")

_CONTAINER = ("container",)
_MACHINE = ("machine", "container")


def _transient_network(injector, pair, machine, event):
    """Network jitter: NIC down for the event's duration then back
    (§3.3.3: must NOT trigger migration when shorter than the 3 s
    timer)."""
    machine.fail_network()
    injector.engine.schedule(event["duration"], machine.recover_network)


def _database_blip(injector, pair, machine, event):
    """The KV store is unavailable for the event's duration.

    While it is down, held ACKs stay held (the fail-safe direction) and
    write batches retry; a blip shorter than the retry budget
    (``WRITE_RETRIES`` x the client RPC timeout) commits everything once
    the store returns, so NSR state is never lost.

    The blip is deliberately shorter than the failover monitor's
    confirmation window, so it recovers in place.  The server object is
    captured now: were the recovery scheduled against ``system.db`` (a
    property), a failover landing mid-blip would aim it at the
    *promoted* primary instead of the blipped one.
    """
    server = injector.system.db
    server.fail()
    injector.engine.schedule(event["duration"], server.recover)


def _database_failover(injector, pair, machine, event):
    """Permanently kill the KV primary (§4.1 single-point database
    failure).  No scheduled recovery and no test-side promotion: the
    controller's monitor must detect the death, promote the replica
    under the next epoch and repoint every client — ``permanent=True``
    keeps an overlapping blip's recovery from resurrecting it."""
    injector.system.db_cluster.fail_primary(permanent=True)


def _controller_replica_crash(injector, pair, machine, event):
    """Crash one controller-panel replica; reboot it after the event's
    duration, if it has one."""
    panel = injector.system.controller
    panel.crash_replica(event["target"])
    if event["duration"] is not None:
        injector.engine.schedule(event["duration"], panel.reboot_replica,
                                 event["target"])


def _controller_partition(injector, pair, machine, event):
    """Partition one panel replica from one machine (both the real gRPC
    path and the modeled direct feeds), healed after the event's
    duration if it has one."""
    _set_partition(injector.system, event["target"], event["machine"], True)
    if event["duration"] is not None:
        injector.engine.schedule(event["duration"], _set_partition,
                                 injector.system, event["target"],
                                 event["machine"], False)


def _set_partition(system, index, machine_name, partitioned):
    panel = system.controller
    replica_host = panel.replicas[index].host
    machine_host = system.machines[machine_name].host
    if partitioned:
        system.network.partition(replica_host, machine_host)
    else:
        system.network.heal_partition(replica_host, machine_host)
    panel.set_partitioned(index, machine_name, partitioned)


def _lying_monitor(injector, pair, machine, event):
    """Byzantine replica: fabricates verdicts against healthy targets
    (and suppresses its honest pipeline) until the event's duration, if
    it has one, expires."""
    panel = injector.system.controller
    panel.set_corruption(event["target"], event["mode"])
    if event["duration"] is not None:
        injector.engine.schedule(event["duration"], panel.set_corruption,
                                 event["target"], None)


#: Every failure kind, keyed by the schedule's ``"scenario"`` string.
#: The first five are the paper's Table 1 classes E1-E5; the controller
#: plane's are DESIGN.md §15's.  Each row is
#: ``Kind(lever, pair_scoped, records, justifies, fence_after, hard,
#: kills_relay)``.
KINDS = {
    # E1 (3% frequency): the BGP process dies
    "application": Kind(
        lambda injector, pair, machine, event: pair.inject_application_failure(),
        True, ("application",), _CONTAINER, None, True, False),
    # E2 (13%): the container dies
    "container": Kind(
        lambda injector, pair, machine, event: pair.inject_container_failure(),
        True, ("container",), _CONTAINER, None, True, False),
    # E4: the container's virtual network dies; processes live on
    "container_network": Kind(
        lambda injector, pair, machine, event:
            pair.inject_container_network_failure(),
        True, ("container_network",), _CONTAINER, None, True, False),
    # E3 (19%): the host machine dies
    "host_machine": Kind(
        lambda injector, pair, machine, event: machine.fail(),
        False, ("machine",), _MACHINE, 0.0, True, False),
    # E5 (65%): the host machine's NIC dies; the machine keeps running
    "host_network": Kind(
        lambda injector, pair, machine, event: machine.fail_network(),
        False, ("machine",), _MACHINE, 0.0, True, False),
    "transient_network": Kind(
        _transient_network,
        False, ("machine",), _MACHINE, HOST_FAILURE_CONFIRM_TIMER, False,
        False),
    "database_blip": Kind(_database_blip, False, (), (), None, False, False),
    "database_failover": Kind(
        _database_failover, False, (), ("promotion",), None, False, False),
    # must not affect normal operation (§3.3.2)
    "agent": Kind(
        lambda injector, pair, machine, event: injector.system.agent.fail(),
        False, (), (), None, False, True),
    # the *standby* container dies: the pair loses its insurance, and the
    # controller must notice (backup-degraded) and re-provision it
    "backup_container": Kind(
        lambda injector, pair, machine, event: pair.standby_container.fail(),
        True, (), _CONTAINER, None, False, False),
    "controller_replica_crash": Kind(
        _controller_replica_crash, False, (), (), None, False, False),
    "controller_partition": Kind(
        _controller_partition, False, (), (), None, False, False),
    "lying_monitor": Kind(_lying_monitor, False, (), (), None, False, False),
}


class Injection:
    """One injected failure: the ground truth.

    ``kind`` is the schedule's ``"scenario"`` string, ``duration`` 0.0
    for a failure without one.  ``pair``, ``machine`` and ``container``
    name the targets resolved when it fired (the event's side of the
    pair; a controller partition's machine is its own); ``replica`` is
    the controller replica a controller-plane kind aims at, else None.
    """

    __slots__ = ("kind", "injected_at", "duration", "pair", "machine",
                 "container", "replica")

    def __init__(self, kind, injected_at, duration, pair, machine, container,
                 replica):
        self.kind = kind
        self.injected_at = injected_at
        self.duration = duration
        self.pair = pair
        self.machine = machine
        self.container = container
        self.replica = replica

    def reaches(self, pair):
        """Whether ``pair``'s oracle suite hears of this failure."""
        return not KINDS[self.kind].pair_scoped or self.pair == pair.name

    def licenses_fence(self):
        """Whether fencing :attr:`machine` is a correct response."""
        fence_after = KINDS[self.kind].fence_after
        return fence_after is not None and self.duration >= fence_after

    def __repr__(self):
        target = (f"replica{self.replica}" if self.replica is not None
                  else f"{self.machine}/{self.container}")
        return f"<Injection {self.kind} {target} @{self.injected_at:.3f}>"


class FailureInjector:
    """Injects the paper's failure classes into a running system."""

    def __init__(self, system):
        self.system = system
        self.engine = system.engine
        self.injections = []

    def inject(self, kind, pair, event):
        """Fire one failure of ``kind`` now and record its ground truth.

        ``event`` is a schedule event (``"target"``, ``"duration"`` and,
        for the controller-plane kinds, ``"machine"`` / ``"mode"``);
        absent keys read as None.  The machine is the one hosting the
        event's side of ``pair`` *now* (roles swap across migrations):
        the standby's for ``"target": "standby"``, else the active's.
        """
        row = KINDS.get(kind)
        if row is None:
            raise ValueError(f"unknown injection scenario {kind!r}")
        event = {"target": None, "duration": None, **event}
        target = event["target"]
        standby = target == "standby"
        machine = pair.standby_machine if standby else pair.active_machine
        container = pair.standby_container if standby else pair.active_container
        injection = Injection(
            kind, self.engine.now, event["duration"] or 0.0, pair.name,
            event.get("machine", machine.name), container.name,
            target if isinstance(target, int) else None,
        )
        self.injections.append(injection)
        row.lever(self, pair, machine, event)
        return injection

    def stamp_records(self):
        """Fill ground-truth ``failed_at`` into the controller's records.

        Call after the simulation settles so Table 1 detection latencies
        are measured from the true failure instant.  Matching is by the
        kinds' ``records`` column, and each injection is claimed by at
        most one record: under overlapping chaos schedules a container
        record must not be stamped with the time of an unrelated
        transient-network blip that happened to land closer to the
        detection, and two records from repeated injections on the same
        target each get their own injection rather than both getting the
        latest one.
        """
        claimed = set()
        for record in sorted(
            self.records_pending_stamp(), key=lambda r: r.detected_at
        ):
            candidates = [
                injection
                for injection in self.injections
                if record.failure_kind in KINDS[injection.kind].records
                and injection.injected_at <= record.detected_at
            ]
            if not candidates:
                continue
            unclaimed = [c for c in candidates if id(c) not in claimed]
            # Earliest unclaimed compatible injection: the record's ground
            # truth is when the failure it recovered from began.  When
            # every compatible injection is already claimed (a re-detected
            # failure), fall back to the latest one rather than nothing.
            chosen = unclaimed[0] if unclaimed else candidates[-1]
            claimed.add(id(chosen))
            record.failed_at = chosen.injected_at

    def records_pending_stamp(self):
        return [
            record
            for record in self.system.controller.records
            if record.failed_at is None and record.detected_at is not None
        ]
