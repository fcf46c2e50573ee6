"""Continuous NSR invariant oracles (DESIGN.md §9).

The existing tests assert TENSOR's claims at hand-picked settle points;
the oracle suite checks them *while the simulation runs* so a violation
is caught at the instant it happens, under any schedule the chaos engine
composes.  The suite is pure observation: it never mutates the system,
so running it cannot change what a seed reproduces.

Oracles (names are stable; repro scripts and docs reference them):

- ``ack_durability`` — no pure TCP ACK leaves the gateway's service
  address acknowledging bytes the database does not yet cover (session
  watermark, stored incoming messages, or the replicated partial tail).
  This is the §3.1.1 invariant; disabling delayed ACKs trips it.
- ``session_continuity`` — once established, a remote session is
  ESTABLISHED at every step.
- ``zero_downtime`` — the cumulative time the continuity predicate is
  false must stay zero (the paper's link-downtime metric).
- ``ack_release_liveness`` — held ACKs must drain: a non-empty hold
  queue persisting beyond the replication+retry budget is a deadlock.
- ``lock_liveness`` — per-connection database locks must drain the same
  way (a stuck lock starves the keepalive thread's writes).
- ``exactly_once_apply`` — the active speaker never applies the same
  stream position twice (``duplicate_applies`` stays zero).
- ``fencing`` — only machines that suffered a machine-level injection
  may be fenced, and fencing must never block recovery silently.
- ``wrong_failover`` — no accepted failure verdict (and no database
  promotion) may target a node that suffered no matching injected
  failure: the controller must never fence, migrate or promote against
  a healthy target, even when a controller replica crashes, partitions
  or lies (DESIGN.md §15).
- ``convergence`` — at settle points, the gateway's per-VRF Loc-RIB
  equals the union of the live originated sets the workload model
  tracks — minus whatever the gateway's import policy towards that
  remote denies — and (shared-VRF topologies) every remote sees every
  other remote's accepted set.
- ``bfd_continuity`` — at settle points every remote BFD session is UP
  (skipped when the schedule kills the agent: the relay dies with it).
- ``storage_bound`` — message records stay within the §3.1.2 64 KB
  per-connection bound at settle points.
- ``phase_latency`` — (traced runs only, DESIGN.md §10) re-derives the
  delayed-ACK invariant from the causal trace at settle points: every
  ``ack_release`` span begins at or after its update's ``replicate``
  span ends, and every held ACK's ``nfq.hold`` span outlives the
  replication write that released it.
"""

from repro.bfd.packet import BfdState
from repro.bgp.prefixes import prefix_text
from repro.core.replication import ConnectionKeys
from repro.failures.injector import KINDS

#: Held ACKs / locks may legitimately persist for a database blip plus
#: the write-retry budget (client timeout x WRITE_RETRIES); anything
#: longer is a liveness failure.
LIVENESS_STREAK_LIMIT = 6.0

#: Per-connection storage bound (§3.1.2).
STORAGE_BOUND_BYTES = 65536

#: Quiet time before the settle-point oracles (convergence, BFD,
#: storage, phase latency) judge the system.
SETTLE_GRACE = 4.0

#: How long after a transient blip *ends* its lingering consequences may
#: still legitimately surface as failure verdicts: the detector's
#: recovery sweep can classify a container whose probes lag the heal
#: (PR 8), and those probes take heartbeats+timeouts to re-converge.
WRONG_FAILOVER_GRACE = 8.0


class Violation:
    """One oracle violation, timestamped with the virtual instant."""

    def __init__(self, time, oracle, detail):
        self.time = time
        self.oracle = oracle
        self.detail = detail

    def __repr__(self):
        return f"<Violation {self.oracle} @{self.time:.3f}: {self.detail}>"


class OracleSuite:
    """Observes one pair + its remotes; call :meth:`check` every step.

    The workload model (which prefixes each remote currently originates)
    is fed by the driver via :meth:`note_originate` / :meth:`note_withdraw`
    — the oracle RIB is *derived from intent*, never read back from the
    system under test.  The ground truth of what failed is ``injector``'s
    ledger (:class:`~repro.failures.injector.FailureInjector`), read
    through the kinds table: the fencing and ``wrong_failover`` oracles
    and the BFD-relay skip judge the injections that reach this pair.

    ``import_policies[i]`` is the gateway's import RouteMap towards
    remote ``i`` (or None).  The expected Loc-RIB is then the live
    originated set *minus* whatever that policy denies — evaluated on
    the recorded origination attributes, so the oracle stays a pure
    model even when a policy censors a block.
    """

    def __init__(self, system, pair, remotes, injector,
                 stop_on_violation=True, import_policies=None):
        self.system = system
        self.pair = pair
        self.remotes = list(remotes)  # [(RemotePeerAs, remote session)]
        self.injector = injector
        self.import_policies = (
            list(import_policies) if import_policies is not None
            else [None] * len(self.remotes)
        )
        # prefix -> PathAttributes per policy-filtered remote, recorded
        # at origination time so policy evaluation replays the intent
        self.attrs = [dict() for _ in self.remotes]
        self.stop_on_violation = stop_on_violation
        self.violations = []
        # Coverage signal (DESIGN.md §13): which oracles actually judged
        # meaningful state this run — not merely "had nothing to observe".
        # An oracle that trips is always exercised; an exercised-but-green
        # oracle is a different behaviour than one that never engaged.
        self.exercised = set()
        self._wf_cursor = 0  # controller events judged so far
        # workload model: per remote, {prefix: True} of live originations
        self.live = [dict() for _ in self.remotes]
        self.vrfs = [session.config.vrf_name for _r, session in self.remotes]
        self._armed_at = None
        self._last_activity = 0.0
        self._last_busy = 0.0
        self._seen_established = [False] * len(self.remotes)
        self._held_since = None
        self._locked_since = None
        self._watched_pipeline = None
        self._last_settle_check = -1e9
        self._tap_installed = False
        # Trace-driven oracle (DESIGN.md §10): present only when the
        # system runs under a Tracer.
        self.trace_store = system.trace_store
        self._reported_phase_violations = 0

    # ------------------------------------------------------------------
    # driver-facing model updates
    # ------------------------------------------------------------------

    def arm(self):
        """Start judging.  Call once the fixture has converged; installs
        the wire tap for the ACK oracle."""
        self._armed_at = self.system.engine.now
        self._last_activity = self._armed_at
        if not self._tap_installed:
            self.system.network.tap(self._on_packet)
            self._tap_installed = True

    def note_originate(self, remote_index, prefixes):
        self.live[remote_index].update(dict.fromkeys(prefixes, True))
        self.note_activity()

    def note_originate_routes(self, remote_index, routes):
        """:meth:`note_originate` from ``(prefix, attributes)`` pairs;
        the attributes are kept where an import policy will judge them."""
        if self.import_policies[remote_index] is not None:
            self.attrs[remote_index].update(routes)
        self.note_originate(remote_index, [p for p, _a in routes])

    def note_withdraw(self, remote_index, prefixes):
        live = self.live[remote_index]
        for prefix in prefixes:
            live.pop(prefix, None)
        self.note_activity()

    def note_activity(self):
        self._last_activity = self.system.engine.now

    def _transport_quiet(self):
        """True when no BGP data is still in flight anywhere.

        Convergence is only judged at quiescence, and "no recent workload
        event" is not quiescence: an UPDATE can sit in a speaker's MRAI
        buffer, and a TCP segment sent into a crashed gateway is
        retransmitted with exponential backoff — legitimately arriving
        tens of seconds after the workload event that produced it.
        """
        speakers = [remote.speaker for remote, _session in self.remotes]
        gateway = self.pair.speaker
        if gateway is not None:
            speakers.append(gateway)
        for speaker in speakers:
            for pending in speaker._pending_adverts.values():
                if pending:
                    return False
            for session in speaker.sessions.values():
                conn = session.conn
                if conn is not None and conn.snd_una < conn.snd_nxt:
                    return False
        return True

    # ------------------------------------------------------------------
    # the wire tap (ack_durability)
    # ------------------------------------------------------------------

    def _on_packet(self, packet, delivered):
        if self._armed_at is None or packet.protocol != "tcp":
            return
        if packet.src != self.pair.service_addr:
            return
        seg = packet.payload
        if seg.payload or seg.syn or seg.rst or seg.fin or not seg.has_ack:
            return
        pair = self.pair
        vrf = next((neighbor.vrf_name for neighbor in pair.neighbors
                    if neighbor.remote_addr == packet.dst), None)
        if vrf is None:
            return
        keys = ConnectionKeys(pair.name, vrf, packet.src, packet.sport,
                              packet.dst, packet.dport)
        store = self.system.db.store
        meta = store.get(keys.session)
        if meta is None:
            return  # pre-session ACKs (handshake) carry no BGP data
        self.exercised.add("ack_durability")
        base = meta["irs"] + 1
        covered = 0
        status = store.get(keys.tcp_status)
        if status is not None:
            covered = status["in_pos"]
        for _key, value in store.scan(keys.inbound_prefix):
            covered = max(covered, value["in_pos"])
        partial = store.get(keys.partial)
        if partial is not None:
            covered = max(covered, partial["upto"])
        if seg.ack > base + covered:
            self._violate(
                "ack_durability",
                f"ACK {seg.ack} escaped on {keys.conn_id} but the database"
                f" only covers {base + covered} (irs+1={base},"
                f" covered={covered})",
            )

    # ------------------------------------------------------------------
    # the per-step check
    # ------------------------------------------------------------------

    def check(self, now):
        """Run every continuous oracle; settle-point oracles fire when the
        system has been quiet for ``SETTLE_GRACE``.  Returns the list of
        all violations so far (the driver stops on the first)."""
        if self._armed_at is None:
            return self.violations
        self._check_continuity(now)
        self._check_liveness(now)
        self._check_exactly_once(now)
        self._check_fencing(now)
        self._check_wrong_failover(now)
        if (
            self.system.controller._recovering
            or self.system.db.failed
            or not self._transport_quiet()
        ):
            self._last_busy = now
        settled_since = max(self._last_activity, self._last_busy)
        if (
            now - settled_since >= SETTLE_GRACE
            and now - self._last_settle_check >= 1.0
        ):
            self._last_settle_check = now
            self._check_convergence(now)
            self._check_bfd(now)
            self._check_storage(now)
            self._check_phase_latency(now)
        return self.violations

    def _check_continuity(self, now):
        for index, (_remote, session) in enumerate(self.remotes):
            if session.established:
                self._seen_established[index] = True
                self.exercised.add("session_continuity")
                continue
            if not self._seen_established[index]:
                continue  # still in initial bring-up
            self._violate(
                "session_continuity",
                f"remote{index} session left ESTABLISHED (no GR hold)",
            )
            self._violate(
                "zero_downtime",
                f"link downtime began at {now:.3f} on remote{index}",
            )

    def _check_liveness(self, now):
        speaker = self.pair.speaker
        held = speaker.tcp_queue.held_count() if speaker is not None else 0
        if held:
            self.exercised.add("ack_release_liveness")
            if self._held_since is None:
                self._held_since = now
            elif now - self._held_since > LIVENESS_STREAK_LIMIT:
                self._violate(
                    "ack_release_liveness",
                    f"{held} ACK(s) held continuously for"
                    f" {now - self._held_since:.2f}s",
                )
        else:
            self._held_since = None
        pipeline = self.pair.pipeline
        if pipeline is not self._watched_pipeline:
            # Migration swapped in a fresh process: the dead process's
            # stuck locks are moot (its records are re-read from the
            # database), so the streak restarts with the new pipeline.
            self._watched_pipeline = pipeline
            self._locked_since = None
        if self.system.controller._recovering:
            self._locked_since = None
            return
        locked = len(pipeline.locks.held_keys()) if pipeline is not None else 0
        if locked:
            self.exercised.add("lock_liveness")
            if self._locked_since is None:
                self._locked_since = now
            elif now - self._locked_since > LIVENESS_STREAK_LIMIT:
                self._violate(
                    "lock_liveness",
                    f"{locked} connection lock(s) held continuously for"
                    f" {now - self._locked_since:.2f}s",
                )
        else:
            self._locked_since = None

    def _check_exactly_once(self, _now):
        speaker = self.pair.speaker
        duplicates = speaker.duplicate_applies if speaker is not None else 0
        if duplicates:
            self._violate(
                "exactly_once_apply",
                f"active speaker applied {duplicates} duplicate position(s)",
            )

    def _heard(self):
        """The injections that reach this suite's pair, in firing order."""
        return [injection for injection in self.injector.injections
                if injection.reaches(self.pair)]

    def _check_fencing(self, _now):
        fenced = set(self.system.fencing.fenced_machines())
        if not fenced:
            return
        self.exercised.add("fencing")
        stale = fenced - {injection.machine for injection in self._heard()
                          if injection.licenses_fence()}
        if stale:
            self._violate(
                "fencing",
                f"machine(s) fenced without a machine-level failure: "
                f"{sorted(stale)}",
            )

    def _justified(self, verdict, t, machine=None):
        """Whether an injection of a kind that justifies ``verdict`` (on
        ``machine``, when given) may still legitimately surface at time
        ``t``: a failure that licenses a fence persists, other transients
        get a grace window past their heal, everything else persists."""
        for injection in self._heard():
            if (verdict not in KINDS[injection.kind].justifies
                    or injection.injected_at > t
                    or machine is not None and injection.machine != machine):
                continue
            if (injection.duration and not injection.licenses_fence()
                    and t > injection.injected_at + injection.duration
                    + WRONG_FAILOVER_GRACE):
                continue
            return True
        return False

    def _check_wrong_failover(self, _now):
        """No accepted verdict / promotion may target a healthy node.

        Judges the controller's event log incrementally: every accepted
        ``failure-report`` and every ``database-failover`` must have a
        matching injected ground truth.  A fabricated verdict that a
        lying, crashed or partitioned controller replica pushed past the
        quorum would show up here as an orphan.
        """
        events = self.system.controller.events
        pair_prefix = f"{self.pair.name}-"
        while self._wf_cursor < len(events):
            t, label, payload = events[self._wf_cursor]
            self._wf_cursor += 1
            if label == "failure-report":
                report = payload
                if report.kind == "machine_unreachable":
                    self.exercised.add("wrong_failover")
                    justified = self._justified(
                        "machine", t, machine=report.target_name)
                else:
                    # container-level verdicts: judge only this suite's
                    # pair (its containers share the pair-name prefix);
                    # other pairs' pair-scoped truths never reach it
                    if not report.target_name.startswith(pair_prefix):
                        continue
                    self.exercised.add("wrong_failover")
                    justified = self._justified("container", t)
                if not justified:
                    self._violate(
                        "wrong_failover",
                        f"accepted {report.kind} verdict on"
                        f" {report.target_name} at {t:.3f} with no matching"
                        " injected failure",
                    )
            elif label == "database-failover":
                self.exercised.add("wrong_failover")
                if not self._justified("promotion", t):
                    self._violate(
                        "wrong_failover",
                        f"database promotion at {t:.3f} with no injected"
                        " database failure",
                    )

    def _accepted(self, remote_index):
        """The live set of ``remote_index`` after the gateway's import
        policy — what the Loc-RIB (and other peers) should see."""
        policy = self.import_policies[remote_index]
        live = self.live[remote_index]
        if policy is None:
            return live.keys()
        recorded = self.attrs[remote_index]
        accepted = set()
        for prefix in live:
            if policy.evaluate(prefix, recorded[prefix]) is not None:
                accepted.add(prefix)
        return accepted

    def _check_convergence(self, _now):
        if any(self.live):
            self.exercised.add("convergence")
        expected_by_vrf = {}
        for index, vrf_name in enumerate(self.vrfs):
            expected_by_vrf.setdefault(vrf_name, set()).update(
                self._accepted(index)
            )
        for vrf_name, expected in expected_by_vrf.items():
            vrf = self.pair.speaker.vrfs.get(vrf_name)
            actual = set() if vrf is None else set(vrf.loc_rib.prefixes())
            if actual != expected:
                missing = sorted(map(prefix_text, expected - actual))[:3]
                extra = sorted(map(prefix_text, actual - expected))[:3]
                self._violate(
                    "convergence",
                    f"gateway Loc-RIB[{vrf_name}] has {len(actual)} prefixes,"
                    f" oracle RIB has {len(expected)}"
                    f" (missing={missing} extra={extra})",
                )
        # Shared-VRF cross-peer visibility: each remote must hold every
        # other remote's accepted set (its own is held locally by
        # construction).
        for index, (remote, session) in enumerate(self.remotes):
            vrf_name = self.vrfs[index]
            others = set()
            for other_index, other_vrf in enumerate(self.vrfs):
                if other_index != index and other_vrf == vrf_name:
                    others.update(self._accepted(other_index))
            if not others:
                continue
            remote_vrf = remote.speaker.vrfs.get(session.config.vrf_name)
            actual = () if remote_vrf is None else remote_vrf.loc_rib.prefixes()
            missing = others.difference(actual)
            if missing:
                self._violate(
                    "convergence",
                    f"remote{index} is missing {len(missing)} cross-peer"
                    f" prefix(es), e.g."
                    f" {sorted(map(prefix_text, missing))[:3]}",
                )

    def _check_bfd(self, _now):
        if any(KINDS[injection.kind].kills_relay
               for injection in self._heard()):
            return
        for index, (remote, _session) in enumerate(self.remotes):
            for bfd_session in remote.bfd.sessions.values():
                self.exercised.add("bfd_continuity")
                if bfd_session.state is not BfdState.UP:
                    self._violate(
                        "bfd_continuity",
                        f"remote{index} BFD settled {bfd_session.state.name},"
                        " not UP",
                    )

    def _check_storage(self, _now):
        speaker = self.pair.speaker
        if speaker is None:
            return
        bound = STORAGE_BOUND_BYTES * max(1, len(self.remotes))
        self.exercised.add("storage_bound")
        footprint = speaker.storage_footprint(self.system.db.store)
        if footprint >= bound:
            self._violate(
                "storage_bound",
                f"{footprint} bytes of message records (bound {bound})",
            )

    def _check_phase_latency(self, _now):
        """Trace-driven §3.1.1 re-check: no ACK-release span may begin
        before its update's replication span closed, and no held ACK may
        escape the netfilter queue before the replication write that
        released it was durable.  Runs at settle points only (it scans
        the whole trace store)."""
        store = self.trace_store
        if store is None:
            return
        self.exercised.add("phase_latency")
        problems = store.delayed_ack_violations()
        for problem in problems[self._reported_phase_violations:]:
            self._violate("phase_latency", problem)
        self._reported_phase_violations = len(problems)

    # ------------------------------------------------------------------

    def _violate(self, oracle, detail):
        self.exercised.add(oracle)
        violation = Violation(self.system.engine.now, oracle, detail)
        self.violations.append(violation)
        if self.stop_on_violation:
            self.system.engine.stop()

    def verdict_bitmap(self):
        """Stable ``(oracle, tripped)`` pairs over every oracle that
        engaged this run — the oracle axis of the fuzzer's coverage key
        (DESIGN.md §13).  Pure function of the run's observations."""
        tripped = {violation.oracle for violation in self.violations}
        names = sorted(tripped | self.exercised)
        return tuple((name, name in tripped) for name in names)

    @property
    def first_violation(self):
        return self.violations[0] if self.violations else None
