"""Chaos schedules: seed-deterministic multi-failure scenarios.

:func:`generate_schedule` derives a :class:`ChaosSchedule` from a seed:
2–5 overlapping injections of the failure kinds the harness fires
(:func:`repro.failures.harness._fire_injection`) at randomized instants, under a randomized advertise/withdraw workload across 1–3
neighbors.  Generation is a pure function of the seed.  A schedule is
one of the two scenario kinds the harness
(:mod:`repro.failures.harness`) runs; the other is the fuzzer's
:class:`~repro.fuzz.spec.FuzzSpec`, which widens the topology.

Schedule composition rules keep every generated run *recoverable by
design* (violations then always indicate real bugs, not impossible
topologies): hard injections are spaced wider than a full recovery, at
most one machine-level failure fires per schedule (fencing removes the
machine until a manual reset), transient network blips stay under the
3 s confirmation timer, and database blips stay under the write-retry
budget.  Soft injections may land anywhere — including deliberately
inside the recovery window of a hard one.
"""

from repro.config.loader import SYSTEM_DEFAULTS, lab_spec, non_default
from repro.sim.rand import DeterministicRandom

#: Hard injections are spaced at least this far apart so each recovery
#: (detection + migration + TCP repair + route resync) completes.
HARD_SPACING = (18.0, 25.0)

#: Settle tail appended after the last scheduled event.
SETTLE_TAIL = 30.0

#: Seeds run by tier-1 (`make test`) as the fixed regression corpus.
CORPUS_SEEDS = (0, 1, 2, 3, 4, 5)

#: Seeds run with the causal tracer enabled (DESIGN.md §10).  These
#: exercise the phase-latency oracle: at every settle point the suite
#: checks that no delayed ACK escaped before its replication span
#: closed, straight from the trace store.
TRACED_CORPUS_SEEDS = (6, 7, 8, 9)

#: Seeds run with a permanent KV-primary kill spliced in (DESIGN.md
#: §12): the controller's failover monitor must promote the replica and
#: drain held ACKs with no test-side intervention.
DB_FAILOVER_CORPUS_SEEDS = (10, 11, 12)

#: Seeds run with controller-plane chaos spliced in (DESIGN.md §15):
#: the 3-replica controller panel takes replica crashes, controller<->
#: machine partitions and lying monitors while the data-plane schedule
#: runs, and the ``wrong_failover`` oracle asserts no fence/promote
#: ever targeted a healthy node.  The seeds are picked so the corpus
#: covers every controller-plane event kind and both lying modes.
CONTROLLER_CORPUS_SEEDS = (13, 14, 15, 16, 17, 43)


def corpus_flavour(seed):
    """How the corpus runs ``seed``: ``(tracing, db_failover,
    controller_chaos)``, all False for a seed outside the flavoured
    tables."""
    return (
        seed in TRACED_CORPUS_SEEDS,
        seed in DB_FAILOVER_CORPUS_SEEDS,
        seed in CONTROLLER_CORPUS_SEEDS,
    )


def zero_initial_routes(scenario):
    """Config shrink pass both scenario kinds share: drop the preload."""
    if not scenario.initial_routes:
        return False
    scenario.initial_routes = 0


class ChaosSchedule:
    """One self-contained chaos run: topology knobs + timed events.

    All event times are relative to the oracle arming instant (the end
    of initial convergence).  ``injections`` entries::

        {"at": 12.5, "scenario": "container", "target": "active"|"standby"|None,
         "duration": 1.2 | None}

    ``workload`` entries::

        {"at": 3.0, "remote": 0, "action": "advertise"|"withdraw",
         "base": "10.0.0.0", "length": 24, "count": 120}
    """

    #: names the scenario kind in shard ids and repro scripts
    kind = "chaos"
    #: bursts draw per-route attributes from the generator pool
    uniform_attributes = False

    def __init__(self, seed, neighbors=1, shared_vrf=False, initial_routes=100,
                 injections=(), workload=(), duration=60.0,
                 controller_replicas=1):
        self.seed = seed
        self.neighbors = neighbors
        self.shared_vrf = shared_vrf
        self.initial_routes = initial_routes
        self.injections = [dict(event) for event in injections]
        self.workload = [dict(event) for event in workload]
        self.duration = duration
        self.controller_replicas = controller_replicas

    def to_dict(self):
        return {
            "seed": self.seed,
            "neighbors": self.neighbors,
            "shared_vrf": self.shared_vrf,
            "initial_routes": self.initial_routes,
            "injections": [dict(event) for event in self.injections],
            "workload": [dict(event) for event in self.workload],
            "duration": self.duration,
            "controller_replicas": self.controller_replicas,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            data["seed"],
            neighbors=data["neighbors"],
            shared_vrf=data["shared_vrf"],
            initial_routes=data["initial_routes"],
            injections=data["injections"],
            workload=data["workload"],
            duration=data["duration"],
            controller_replicas=data.get("controller_replicas", 1),
        )

    def copy(self):
        return ChaosSchedule.from_dict(self.to_dict())

    # -- what the harness asks of a scenario -----------------------------

    def validate(self):
        """Every schedule is runnable; the composition rules are the
        generator's, and the shrinker only ever removes from it."""
        return self

    def deployment(self, hold_acks=True, tracing=False):
        """The standard lab for the schedule's topology knobs: one pair
        at ``10.10.0.1`` carrying every neighbor, however many VRFs (the
        fuzzer's split planner would give each VRF its own pair)."""
        return {
            **lab_spec(self.seed, self.neighbors, self.shared_vrf),
            **non_default(SYSTEM_DEFAULTS, hold_acks=hold_acks,
                          tracing=tracing,
                          controller_replicas=self.controller_replicas),
        }

    def config_shrink_passes(self):
        """The config/topology mutators the shrinker may try, in order."""
        return [zero_initial_routes]

    def profile_shape(self):
        """The configured half of the coverage profile: always one
        pair, no policies, speaker-level MRAI, /24 bursts with pooled
        attributes and plain snapshots — the fuzz-spec defaults."""
        return {
            "topology": {
                "pairs": 1,
                "neighbors": self.neighbors,
                "vrf_groups": ([self.neighbors] if self.shared_vrf
                               else [1] * self.neighbors),
                "mrai_mode": "per_speaker",
                "policies": [0, 0],
            },
            "workload": {"density": "standard", "aggregation": "scattered"},
        }

    def describe(self):
        return (f"{len(self.injections)} injection(s),"
                f" {len(self.workload)} workload burst(s)")

    def __repr__(self):
        return (
            f"<ChaosSchedule seed={self.seed} neighbors={self.neighbors}"
            f" injections={len(self.injections)} bursts={len(self.workload)}"
            f" duration={self.duration:.1f}s>"
        )


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------

def generate_schedule(seed, db_failover=False, controller_chaos=False):
    """Derive a schedule from ``seed`` (pure function, no simulation).

    ``db_failover`` splices one permanent KV-primary kill into the
    schedule, drawn from a *separate* named stream so the base schedule
    for the seed is unchanged — seed N with and without the flag differ
    only by the added injection.

    ``controller_chaos`` sizes the controller panel to 3 replicas and
    splices 1–2 controller-plane events (replica crash+reboot,
    controller<->machine partition, lying monitor, standby-container
    kill) from another separate stream.  Events are sequential and
    non-overlapping: each fault heals before the next fires, so a
    3-replica panel always retains an honest quorum — any wrong
    failover is then a real bug, not an impossible fault load.
    """
    r = DeterministicRandom(seed).stream("schedule")
    neighbors = r.choice((1, 2, 2, 3))
    shared_vrf = neighbors > 1 and r.random() < 0.6
    initial_routes = r.choice((0, 100, 250))

    # -- hard injections: spaced so each recovery completes ---------------
    count = r.randint(2, 5)
    hard_count = max(1, min(r.randint(1, 3), count))
    soft_count = count - hard_count
    include_machine = r.random() < 0.5
    hard_kinds = [
        r.choice(("application", "container", "container_network"))
        for _ in range(hard_count)
    ]
    if include_machine:
        # At most one machine-level failure, and always the final hard
        # one: fencing leaves only one usable machine afterwards.
        hard_kinds[-1] = r.choice(("host_machine", "host_network"))
    injections = []
    at = r.uniform(3.0, 10.0)
    for kind in hard_kinds:
        injections.append({
            "at": round(at, 3),
            "scenario": kind,
            "target": "active",
            "duration": None,
        })
        at += r.uniform(*HARD_SPACING)
    last_hard = injections[-1]["at"]

    # -- soft injections: overlap anything, including recovery windows ----
    agent_used = False
    for _ in range(soft_count):
        kind = r.choice(("transient_network", "database_blip", "agent"))
        if kind == "agent" and agent_used:
            kind = "database_blip"
        agent_used = agent_used or kind == "agent"
        # The agent is the detection witness: a hard failure with the
        # agent already dead is undetectable (machine confirmation needs
        # the agent's IP SLA signal), which is a double fault outside the
        # paper's fault model.  Agent death therefore only lands once the
        # last hard injection has fired AND its 3-second confirmation
        # window has safely passed.
        earliest = last_hard + 6.0 if kind == "agent" else 1.0
        event = {
            "at": round(r.uniform(earliest, last_hard + 12.0), 3),
            "scenario": kind,
            "target": None,
            "duration": None,
        }
        if kind == "transient_network":
            event["target"] = r.choice(("active", "standby"))
            event["duration"] = round(r.uniform(0.3, 2.0), 3)
        elif kind == "database_blip":
            event["duration"] = round(r.uniform(0.4, 1.2), 3)
        injections.append(event)
    if db_failover:
        dbr = DeterministicRandom(seed).stream("db-failover")
        injections.append({
            "at": round(dbr.uniform(2.0, last_hard + 6.0), 3),
            "scenario": "database_failover",
            "target": None,
            "duration": None,
        })
    controller_replicas = 1
    if controller_chaos:
        controller_replicas = 3
        cr = DeterministicRandom(seed).stream("controller-chaos")
        at = cr.uniform(2.0, 8.0)
        for _ in range(cr.randint(1, 2)):
            kind = cr.choice((
                "controller_replica_crash", "controller_partition",
                "lying_monitor", "backup_container",
            ))
            event = {
                "at": round(at, 3), "scenario": kind,
                "target": None, "duration": None,
            }
            hold = 0.0
            if kind == "controller_replica_crash":
                event["target"] = cr.randrange(controller_replicas)
                event["duration"] = round(cr.uniform(4.0, 9.0), 3)
                hold = event["duration"]
            elif kind == "controller_partition":
                event["target"] = cr.randrange(controller_replicas)
                event["machine"] = cr.choice(("gw-1", "gw-2"))
                event["duration"] = round(cr.uniform(4.0, 9.0), 3)
                hold = event["duration"]
            elif kind == "lying_monitor":
                event["target"] = cr.randrange(controller_replicas)
                event["mode"] = cr.choice(("accuse_machine", "accuse_container"))
                event["duration"] = round(cr.uniform(5.0, 10.0), 3)
                hold = event["duration"]
            else:  # backup_container: kill the standby, panel must refresh
                event["target"] = "standby"
            injections.append(event)
            at += hold + cr.uniform(3.0, 6.0)
    injections.sort(key=lambda event: event["at"])

    # -- workload bursts ---------------------------------------------------
    burst_times = sorted(
        round(r.uniform(1.0, last_hard + 8.0), 3)
        for _ in range(r.randint(2, 5))
    )
    workload = []
    advertised = [[] for _ in range(neighbors)]  # live blocks per remote
    for at in burst_times:
        remote = r.randrange(neighbors)
        if advertised[remote] and r.random() < 0.35:
            block = advertised[remote].pop(r.randrange(len(advertised[remote])))
            workload.append({"at": at, "remote": remote, "action": "withdraw",
                             **block})
        else:
            index = sum(1 for event in workload if event["remote"] == remote)
            block = {
                # disjoint /24 blocks per (remote, burst): remotes get
                # distinct first octets, bursts distinct second octets
                "base": f"{10 + remote}.{(index * 8) % 248}.0.0",
                "length": 24,
                "count": r.choice((50, 120, 200)),
            }
            advertised[remote].append(block)
            workload.append({"at": at, "remote": remote, "action": "advertise",
                             **block})

    horizon = max(
        [event["at"] for event in injections]
        + [event["at"] for event in workload]
    )
    return ChaosSchedule(
        seed,
        neighbors=neighbors,
        shared_vrf=shared_vrf,
        initial_routes=initial_routes,
        injections=injections,
        workload=workload,
        duration=round(horizon + SETTLE_TAIL, 3),
        controller_replicas=controller_replicas,
    )
