"""The scenario harness: spec → system → stepped run under oracles → result.

TENSOR's claim is that a failure at *any* instant — including failures
overlapping an in-flight recovery — loses no routing state and never
flaps the remote session.  Two searches look for a counter-example: the
chaos engine varies the failure schedule over a fixed one-pair topology
(:class:`~repro.failures.schedule.ChaosSchedule`, DESIGN.md §9) and the
fuzzer varies config and topology with it
(:class:`~repro.fuzz.spec.FuzzSpec`, §13).  Both run through this one
harness; a *scenario* is either object, and supplies only what differs:

- ``seed``, ``initial_routes``, ``injections``, ``workload``,
  ``duration`` — the shared event schema (times relative to arming);
- ``deployment(hold_acks, tracing)`` — the :mod:`repro.config` spec of
  the system to run it on, a plain dict the harness builds with
  :func:`~repro.config.build_system` (:func:`build_scenario`);
- ``uniform_attributes`` — whether a burst shares one attribute set;
- ``validate()``, ``to_dict()`` / ``from_dict()``, ``copy()``;
- ``config_shrink_passes()``, ``profile_shape()`` and ``kind`` /
  ``describe()`` for the shrinker, the coverage profile and the names
  and header of shards and repro scripts.

:func:`run_scenario` builds a fresh system, replays the scenario, and
checks one :class:`~repro.failures.oracles.OracleSuite` per pair after
every 50 ms engine slice.  Running is a pure function of ``(scenario,
hold_acks, tracing)``, so every violation replays exactly — which is
what :mod:`repro.failures.shrink` relies on.
"""

import hashlib
import json

from repro.config import build_system
from repro.failures.injector import FailureInjector
from repro.failures.oracles import OracleSuite, Violation
from repro.sim.rand import DeterministicRandom
from repro.workloads.updates import RouteGenerator

#: The oracle-check granularity (virtual seconds).
CHECK_QUANTUM = 0.05

#: Injections whose blast radius is one pair: only the owning pair's
#: oracle model hears of them.  Machine-level, database, agent and
#: controller-plane injections reach every pair (fencing allowances,
#: the BFD relay), so every suite is told.
PAIR_SCOPED = ("application", "container", "container_network",
               "backup_container")


class ScenarioResult:
    """Outcome of one scenario run: per-pair suites, merged verdicts.

    ``completed`` distinguishes a run that covered its whole horizon
    (or halted *on purpose* at a violation) from one whose engine
    stalled early: a partial run has no oracle verdict for the tail it
    never executed, so "no violations" must not read as a pass.
    """

    def __init__(self, scenario, suites, system, events_executed,
                 completed=True):
        self.scenario = scenario
        self.suites = suites
        self.system = system
        self.events_executed = events_executed
        self.completed = completed

    #: the names the two scenario kinds' callers know the scenario by
    schedule = spec = property(lambda self: self.scenario)

    @property
    def suite(self):
        """The first pair's suite — *the* suite of a one-pair run."""
        return self.suites[0]

    @property
    def partial(self):
        return not self.completed

    @property
    def violations(self):
        merged = [v for suite in self.suites for v in suite.violations]
        merged.sort(key=lambda violation: violation.time)
        return merged

    @property
    def first_violation(self):
        violations = self.violations
        return violations[0] if violations else None

    def verdict_bitmap(self):
        """Per-oracle (tripped, exercised) merged across every suite."""
        merged = {}
        for suite in self.suites:
            for name, tripped in suite.verdict_bitmap():
                merged[name] = merged.get(name, False) or tripped
        return tuple(sorted(merged.items()))

    def summary(self):
        violations = self.violations
        if not violations:
            return "all oracles passed"
        head = violations[0]
        return (
            f"{len(violations)} violation(s); first: {head.oracle}"
            f" @{head.time:.3f} — {head.detail}"
        )


def build_scenario(scenario, hold_acks=True, tracing=False):
    """The converged deployment: ``(system, [(pair, remote indices,
    import policies)] in each pair's neighbor order, [(RemotePeerAs,
    session)])``."""
    system, pairs, remotes = build_system(
        scenario.deployment(hold_acks=hold_acks, tracing=tracing))
    system.run(10.0)
    index_of = {remote.host.address: index
                for index, remote in enumerate(remotes.values())}
    placed = [
        (pair,
         [index_of[neighbor.remote_addr] for neighbor in pair.neighbors],
         [neighbor.import_policy for neighbor in pair.neighbors])
        for pair in pairs.values()
    ]
    return system, placed, [(remote, remote.sessions[0])
                            for remote in remotes.values()]


class _WorkloadDriver:
    """Fires advertise/withdraw bursts and keeps the oracle model true.

    The oracle RIB is *intent*: the driver records what each remote was
    asked to originate, never what the system under test ended up with.
    Each burst goes to the suite of the pair its remote peers with.
    """

    def __init__(self, remotes, suite_of_remote, uniform, rand):
        self.remotes = remotes
        self.suite_of_remote = suite_of_remote  # index -> (suite, local index)
        # uniform layouts share one attribute set per burst — the
        # DRAGON-aggregatable shape (DESIGN.md §14)
        self.uniform = uniform
        self.gens = [
            RouteGenerator(
                rand.fork(f"workload:{index}"),
                64512 + index,
                next_hop=f"192.0.2.{index + 1}",
            )
            for index in range(len(remotes))
        ]

    def routes(self, index, count, **block):
        gen = self.gens[index]
        make_routes = gen.uniform_routes if self.uniform else gen.routes
        return make_routes(count, **block)

    def preload(self, index, count):
        """Originate the initial table of remote ``index`` in one shot."""
        remote, session = self.remotes[index]
        routes = self.routes(index, count, base=f"{10 + index}.248.0.0")
        remote.speaker.originate_many(session.config.vrf_name, routes)
        remote.speaker.readvertise(session)
        suite, local = self.suite_of_remote[index]
        suite.note_originate_routes(local, routes)

    def fire(self, event):
        index = event["remote"]
        remote, session = self.remotes[index]
        suite, local = self.suite_of_remote[index]
        vrf_name = session.config.vrf_name
        if event["action"] == "advertise":
            routes = self.routes(
                index, event["count"], base=event["base"],
                length=event["length"],
            )
            for prefix, attributes in routes:
                remote.speaker.originate(vrf_name, prefix, attributes)
            suite.note_originate_routes(local, routes)
        else:
            prefixes = self.gens[index].prefixes(
                event["count"], base=event["base"], length=event["length"]
            )
            live = suite.live[local]
            withdrawn = [p for p in prefixes if p in live]
            for prefix in withdrawn:
                remote.speaker.withdraw_originated(vrf_name, prefix)
            suite.note_withdraw(local, withdrawn)


class _PreparedRun:
    """A built, converged, armed scenario run that has not advanced yet.

    Splits :func:`run_scenario` into *prepare* (build the system, preload
    routes, arm the oracles, schedule every injection and workload burst)
    and *advance* (:meth:`step_to`), so a scenario can be driven either
    in one shot (:func:`run_scenario`) or window-by-window as a closed
    shard under the parallel runtime (:class:`ScenarioShardProgram`) —
    the two drivers execute the identical event sequence.
    """

    def __init__(self, scenario, hold_acks=True, stop_on_violation=True,
                 tracing=False):
        self.scenario = scenario
        rand = DeterministicRandom(scenario.seed)
        self.system, placed, self.remotes = build_scenario(
            scenario, hold_acks=hold_acks, tracing=tracing
        )
        engine = self.system.engine
        self.pairs = [pair for pair, _members, _policies in placed]
        self.suites = []
        suite_of_remote = {}
        for pair, members, policies in placed:
            suite = OracleSuite(
                self.system, pair, [self.remotes[index] for index in members],
                import_policies=policies,
                stop_on_violation=stop_on_violation,
            )
            self.suites.append(suite)
            for local, index in enumerate(members):
                suite_of_remote[index] = (suite, local)
        self.driver = _WorkloadDriver(
            self.remotes, suite_of_remote, scenario.uniform_attributes, rand
        )

        if scenario.initial_routes:
            for index in range(len(self.remotes)):
                self.driver.preload(index, scenario.initial_routes)
            engine.advance(5.0)
        for suite in self.suites:
            suite.arm()

        self.injector = FailureInjector(self.system)
        for event in scenario.injections:
            engine.schedule(event["at"], _fire_injection, self, event)
        for event in scenario.workload:
            engine.schedule(event["at"], self.driver.fire, event)

        self.deadline = engine.now + scenario.duration
        self.executed = 0
        # run() resets the engine's stop flag on entry, so a violation
        # halt must stick across windows here, not in the engine
        self.halted = False
        self._finished = False

    @property
    def engine(self):
        return self.system.engine

    def _check_all(self, now):
        for suite in self.suites:
            suite.check(now)

    def step_to(self, until):
        """Advance to ``min(until, deadline)`` under continuous oracles.

        Returns events executed.  Once an oracle stops the run (or the
        deadline passes) further steps are no-ops.
        """
        engine = self.system.engine
        target = min(until, self.deadline)
        if self.halted or target <= engine.now:
            return 0
        executed = engine.run_stepped(
            target, self._check_all, quantum=CHECK_QUANTUM
        )
        self.executed += executed
        if any(
            suite.stop_on_violation and suite.first_violation is not None
            for suite in self.suites
        ):
            self.halted = True
        return executed

    def finish(self):
        """Post-run bookkeeping; idempotent.  Returns the result."""
        if not self._finished:
            self._finished = True
            _check_record_bookkeeping(self.injector, self.suites[0])
        completed = (
            self.halted
            or self.system.engine.now + 1e-9 >= self.deadline
        )
        return ScenarioResult(
            self.scenario, self.suites, self.system, self.executed,
            completed=completed,
        )


def run_scenario(scenario, hold_acks=True, stop_on_violation=True,
                 tracing=False):
    """Replay ``scenario`` under continuous oracles.

    Pure function of ``(scenario, hold_acks, tracing)``: two calls
    return identical violations at identical virtual instants.  With
    ``tracing`` the system runs under a :class:`repro.trace.Tracer`
    and the suites additionally enforce the phase-latency oracle.
    """
    prepared = _PreparedRun(
        scenario, hold_acks=hold_acks,
        stop_on_violation=stop_on_violation, tracing=tracing,
    )
    prepared.step_to(prepared.deadline)
    return prepared.finish()


def _fire_injection(prepared, event):
    """Resolve the pair and machine *at fire time* (roles swap across
    migrations), tell the oracle models, then pull the lever."""
    kind = event["scenario"]
    duration = event["duration"]
    injector = prepared.injector
    pair = prepared.pairs[event.get("pair", 0)]
    machine = (
        pair.standby_machine if event["target"] == "standby"
        else pair.active_machine
    )
    truth = {"duration": duration or 0.0}
    if kind == "controller_replica_crash":
        truth["target_name"] = f"replica{event['target']}"
    elif kind == "controller_partition":
        truth["target_name"] = f"replica{event['target']}:{event['machine']}"
    elif kind == "lying_monitor":
        truth["target_name"] = f"replica{event['target']}:{event['mode']}"
    else:
        truth["target_name"] = machine.name
        truth["container_name"] = (
            pair.backup_container_name if kind == "backup_container"
            else pair.primary_container_name
        )
        truth["pair_name"] = pair.name
    for suite in prepared.suites:
        if kind not in PAIR_SCOPED or suite.pair is pair:
            suite.note_injection(kind, **truth)
    if kind == "application":
        injector.application_failure(pair)
    elif kind == "container":
        injector.container_failure(pair)
    elif kind == "container_network":
        injector.container_network_failure(pair)
    elif kind == "backup_container":
        injector.backup_container_failure(pair)
    elif kind == "host_machine":
        injector.host_machine_failure(machine)
    elif kind == "host_network":
        injector.host_network_failure(machine)
    elif kind == "transient_network":
        injector.transient_host_network_failure(machine, duration)
    elif kind == "database_blip":
        injector.transient_database_failure(duration)
    elif kind == "database_failover":
        injector.database_failover()
    elif kind == "agent":
        injector.agent_failure()
    elif kind == "controller_replica_crash":
        injector.controller_replica_crash(event["target"],
                                          reboot_after=duration)
    elif kind == "controller_partition":
        injector.controller_partition(event["target"], event["machine"],
                                      duration=duration)
    elif kind == "lying_monitor":
        injector.lying_monitor(event["target"], mode=event["mode"],
                               duration=duration)
    else:
        raise ValueError(f"unknown injection scenario {kind!r}")


def _check_record_bookkeeping(injector, suite):
    """Post-run: stamping must give every completed record a ground
    truth that is not in the future of its detection."""
    injector.stamp_records()
    for record in injector.system.controller.completed_records():
        if record.failed_at is None:
            suite.violations.append(Violation(
                injector.engine.now, "record_bookkeeping",
                f"completed record {record!r} has no ground-truth failed_at",
            ))
        elif record.failed_at > record.detected_at:
            suite.violations.append(Violation(
                injector.engine.now, "record_bookkeeping",
                f"record {record!r} stamped after its own detection",
            ))


# ----------------------------------------------------------------------
# the coverage signal: run behaviour -> stable key (DESIGN.md §13)
# ----------------------------------------------------------------------

def run_profile(result):
    """A canonical, JSON-safe digest of what a run *did* rather than
    what it was configured to do:

    - ``topology`` / ``workload`` — the materialized shape the scenario
      reports (:meth:`profile_shape`): pair and neighbor counts, sorted
      VRF group sizes, MRAI mode, policy counts, burst prefix density
      and attribute/aggregation layout (DESIGN.md §14);
    - ``oracles`` — the merged verdict bitmap: per oracle, whether it
      was exercised and whether it tripped;
    - ``phases`` — the trace store's log2-bucketed span counts per phase
      (:meth:`TraceStore.phase_shape`), empty when untraced;
    - ``injected`` — the set of injection kinds that actually fired;
    - ``executed`` — the log2 bucket of events executed after arming.

    Two runs with the same :func:`coverage_key` behaved the same way at
    this granularity; novelty search keeps one exemplar per key.  The
    profile is a pure function of deterministic run state, so the key is
    identical under ``workers=1`` and ``workers=N`` — that is tested.
    """
    scenario = result.scenario
    store = result.system.trace_store
    profile = scenario.profile_shape()
    profile.update({
        "oracles": [[name, tripped]
                    for name, tripped in result.verdict_bitmap()],
        "phases": [[name, bucket] for name, bucket in
                   (store.phase_shape() if store is not None else ())],
        "injected": sorted({event["scenario"]
                            for event in scenario.injections}),
        "executed": int(result.events_executed).bit_length(),
    })
    return profile


def coverage_key(profile):
    """A short stable hash of a canonicalized profile."""
    canonical = json.dumps(profile, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# scenarios as parallel-runtime shards
# ----------------------------------------------------------------------

class ScenarioShardProgram:
    """One scenario as a *closed* shard (no cross-shard links).

    A closed shard free-runs to the horizon in a single window, so the
    execution is literally the single-process :func:`run_scenario` — the
    parallel runtime only distributes the scenarios across workers.
    """

    def __init__(self, shard_id, params, boundary):
        from repro.sim.parallel.runtime import _resolve_builder

        self.prepared = _PreparedRun(
            _resolve_builder(params["scenario"]).from_dict(params["data"]),
            hold_acks=params.get("hold_acks", True),
            stop_on_violation=params.get("stop_on_violation", True),
            tracing=params.get("tracing", False),
        )
        self.engine = self.prepared.system.engine
        self._result = None

    def run_window(self, until):
        return self.prepared.step_to(until)

    def finalize(self):
        self._result = self.prepared.finish()

    def results(self):
        result = self._result or self.prepared.finish()
        profile = run_profile(result)
        out = {
            "seed": result.scenario.seed,
            "verdict": result.summary(),
            "violations": tuple(
                (v.time, v.oracle, v.detail) for v in result.violations
            ),
            "rib": result.system.rib_digest(),
            "executed": result.events_executed,
            "completed": result.completed,
            "profile": profile,
            "coverage_key": coverage_key(profile),
        }
        store = result.system.trace_store
        if store is not None:
            out["phase_summary"] = store.phase_summary()
        return out


def build_scenario_shard(shard_id, params, boundary):
    """Spawn-safe builder (``repro.failures.harness:build_scenario_shard``)."""
    return ScenarioShardProgram(shard_id, params, boundary)


def scenario_shard_specs(scenarios, hold_acks=True, tracing=False):
    """ShardSpecs running one scenario per shard (all closed shards),
    named ``<kind><seed>``."""
    from repro.sim.parallel.runtime import ShardSpec

    return [
        ShardSpec(
            f"{scenario.kind}{scenario.seed}",
            "repro.failures.harness:build_scenario_shard",
            params={
                "scenario": f"{type(scenario).__module__}"
                            f":{type(scenario).__name__}",
                "data": scenario.to_dict(),
                "hold_acks": hold_acks,
                "tracing": tracing,
            },
        )
        for scenario in scenarios
    ]
