"""The BGP speaker: sessions, RIBs, decision process, advertisement.

One speaker is one BGP process.  Baseline daemons (FRR/GoBGP/BIRD
profiles) use it directly; TENSOR subclasses it and interposes
replication on the receive, send and keepalive paths (§3.1).

The speaker carries an explicit CPU cost model (a busy-until queue):
message parsing/applying and update generation charge calibrated
per-update costs, so the absolute durations of Fig. 6 emerge from the
same mechanisms the paper measures rather than from sleeps sprinkled in
benchmarks.
"""

from repro.bgp.capabilities import Capabilities
from repro.bgp.messages import (
    BGP_PORT,
    KeepaliveMessage,
    UpdateMessage,
)
from repro.bgp.attributes import PathAttributes, ipv4_to_int
from repro.bgp.packing import (
    group_paths,
    group_routes,
    pack_group,
    pack_mp_group,
    pack_withdrawals,
)
from repro.bgp.peer import PeerConfig, PeerSession
from repro.bgp.prefixes import AFI_IPV4, AFI_IPV6
from repro.bgp.rib import Path
from repro.bgp.vrf import Vrf
from repro.sim.calibration import (
    PACKED_COPY_COST_PER_UPDATE,
    PER_PEER_SESSION_COST,
    BIRD_PER_PEER_SUPERLINEAR,
    RECEIVE_COST_PER_UPDATE,
    SEND_COST_PER_UPDATE,
)
from repro.sim.process import Process

#: CPU cost of handling a non-UPDATE message (OPEN/KEEPALIVE/...).
CONTROL_MESSAGE_COST = 2e-6
#: Min route advertisement interval — propagation batches flush at this pace.
DEFAULT_MRAI = 0.05


#: How MRAI pacing is applied (DESIGN.md §13):
#: - ``per_speaker`` — one flush timer for the whole process (the
#:   historical behaviour; bit-identical to pre-mode code).
#: - ``per_peer`` — each session flushes on its own timer, using the
#:   session's ``PeerConfig.mrai`` override when set.
#: - ``per_prefix`` — per-peer timers, plus each (peer, prefix) is rate
#:   limited: a prefix advertised at ``t`` is not re-advertised to that
#:   peer before ``t + mrai``; early changes stay queued and flush when
#:   the pacing window opens.
MRAI_MODES = ("per_speaker", "per_peer", "per_prefix")


class SpeakerConfig:
    """Static configuration of one BGP process."""

    def __init__(
        self,
        name,
        local_as,
        router_id,
        profile="frr",
        mrai=DEFAULT_MRAI,
        mrai_mode="per_speaker",
    ):
        self.name = name
        self.local_as = local_as
        self.router_id = router_id  # dotted-quad string
        self.profile = profile
        # GoBGP is the implementation without update packing (§4.2).
        self.update_packing = profile != "gobgp"
        self.mrai = mrai
        if mrai_mode not in MRAI_MODES:
            raise ValueError(f"bad mrai_mode {mrai_mode!r}")
        self.mrai_mode = mrai_mode

    @property
    def router_id_int(self):
        return ipv4_to_int(self.router_id)

    @property
    def receive_cost(self):
        return RECEIVE_COST_PER_UPDATE[self.profile]

    @property
    def send_cost(self):
        return SEND_COST_PER_UPDATE[self.profile]

    @property
    def packed_copy_cost(self):
        """What a copy of an UPDATE generated for another peer costs per
        route: without update packing, a full generation."""
        if not self.update_packing:
            return self.send_cost
        return PACKED_COPY_COST_PER_UPDATE.get(self.profile, self.send_cost)

    @property
    def per_peer_cost(self):
        return PER_PEER_SESSION_COST[self.profile]


class _FanoutPlan:
    """Shared per-export state for one advertisement fan-out.

    Holds one export — the ``(afi, attributes, prefixes)`` groups of
    :meth:`BgpSpeaker._plan` — and memoizes the UPDATE messages built
    from it, so a group of sessions with identical exports exports,
    groups, packs and serializes exactly once; per-peer state
    (Adj-RIB-Out records, CPU charges) stays per session.
    """

    __slots__ = ("groups", "_messages")

    def __init__(self, groups):
        self.groups = groups
        self._messages = None

    def __bool__(self):
        return bool(self.groups)

    def messages(self, next_hop_v6, packing):
        """``(UPDATE, prefixes)`` pairs: the IPv6 groups first, riding
        MP_REACH_NLRI cut to the size limit, then the IPv4 groups,
        packed, or one route per UPDATE without ``packing``."""
        if self._messages is None:
            messages = [
                pair for afi, attributes, prefixes in self.groups
                if afi == AFI_IPV6
                for pair in pack_mp_group(attributes, prefixes, next_hop_v6)
            ]
            for afi, attributes, prefixes in self.groups:
                if afi != AFI_IPV4:
                    continue
                if packing:
                    messages.extend(
                        (message, message.nlri)
                        for message in pack_group(attributes, prefixes))
                else:
                    for prefix in prefixes:
                        message = UpdateMessage(attributes=attributes,
                                                nlri=(prefix,))
                        messages.append((message, message.nlri))
            self._messages = messages
        return self._messages


class BgpSpeaker:
    """One BGP process: VRFs, peers, CPU model, advertisement engine."""

    def __init__(self, engine, stack, config):
        self.engine = engine
        self.stack = stack
        self.config = config
        self.process = Process(engine, f"bgp:{config.name}")
        #: Peer id under which locally-originated routes enter the Loc-RIB.
        self.local_peer_id = f"local:{config.name}"
        self.vrfs = {}
        self.sessions = {}
        self.running = False
        self.on_exit = None  # called when the process dies
        self._listening = False
        self._cpu_busy_until = 0.0
        self._pending_adverts = {}  # session.peer_id -> {prefix: path-or-None}
        self._flush_scheduled = False
        # Per-peer MRAI modes: peers with a scheduled session flush, and
        # (per_prefix mode) the earliest instant each (peer, prefix) may
        # be advertised again.
        self._session_flush_scheduled = set()
        self._prefix_pacing = {}
        # Tracing: trace ids of the received UPDATEs whose changes are
        # queued for the next MRAI flush; the flush's outgoing ``propagate``
        # spans carry them as ``links`` (fan-out breaks single parentage).
        self._pending_advert_links = set()
        self._flushing_links = ()
        self.log_lines = []
        self.last_apply_time = None
        self.total_updates_received = 0
        self.total_updates_sent = 0
        # peers that advertised fan-out work already paid generation for,
        # keyed by packed-attribute identity (cross-peer update packing).
        self._generation_cache = set()

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------

    def add_vrf(self, name):
        vrf = Vrf(name, self.config.local_as, self.config.router_id_int)
        self.vrfs[name] = vrf
        return vrf

    def add_peer(self, peer_config, autostart=True):
        if peer_config.vrf_name not in self.vrfs:
            self.add_vrf(peer_config.vrf_name)
        session = PeerSession(self, peer_config)
        self.sessions[peer_config.peer_id] = session
        self.vrfs[peer_config.vrf_name].attach_peer(peer_config.peer_id)
        if self.running and autostart:
            self._start_session(session)
        return session

    def make_capabilities(self, peer_config):
        return Capabilities(
            four_octet_as=self.config.local_as,
            route_refresh=True,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self):
        self.running = True
        for session in self.sessions.values():
            self._start_session(session)

    def _start_session(self, session):
        if session.config.mode == "passive":
            self._ensure_listening()
        session.start()

    def _ensure_listening(self):
        if not self._listening:
            self.stack.listen(BGP_PORT, self._on_accept)
            self._listening = True

    def _on_accept(self, conn):
        for session in self.sessions.values():
            if (
                session.config.mode == "passive"
                and session.config.remote_addr == conn.remote_addr
                and not session.established
                and session.conn is None
            ):
                session.attach_connection(conn)
                return
        conn.abort()  # no configured neighbour matches: reject

    def crash(self):
        """Abrupt process death: timers stop, no notifications sent."""
        self.running = False
        self.process.kill()
        for session in self.sessions.values():
            session.hold_timer.stop()
            session.keepalive_timer.stop()
            session.retry_timer.stop()
            session.state = type(session.state).IDLE
            session.conn = None
        if self.on_exit is not None:
            self.on_exit()

    # ------------------------------------------------------------------
    # CPU model
    # ------------------------------------------------------------------

    def charge(self, cost, callback, *args):
        """Run ``callback`` after queueing ``cost`` seconds of CPU."""
        now = self.engine.now
        start = max(now, self._cpu_busy_until)
        self._cpu_busy_until = start + cost
        self.engine.schedule(self._cpu_busy_until - now, callback, *args)

    # ------------------------------------------------------------------
    # receive path (hookable)
    # ------------------------------------------------------------------

    def dispatch_received(self, session, message, size):
        """Charge CPU and apply; TENSOR interposes replication here."""
        cost = self._receive_cost_of(message)
        self.charge(cost, self._apply_received, session, message, size)

    def _receive_cost_of(self, message):
        if isinstance(message, UpdateMessage):
            return CONTROL_MESSAGE_COST + self.config.receive_cost * message.route_count()
        return CONTROL_MESSAGE_COST

    def _apply_received(self, session, message, size):
        """Apply one message; returns what an UPDATE did to the table
        (see :meth:`PeerSession.handle_message`), else None."""
        if not self.running:
            return None
        if isinstance(message, UpdateMessage):
            self.total_updates_received += message.route_count()
            self.last_apply_time = self.engine.now
        return session.handle_message(message, size)

    # ------------------------------------------------------------------
    # send path (hookable)
    # ------------------------------------------------------------------

    def dispatch_send(self, session, message, generation_cost=None):
        """Charge generation CPU, then transmit; TENSOR interposes here."""
        if generation_cost is None:
            generation_cost = self._send_cost_of(message)
        wire = message.to_wire()
        self.charge(generation_cost, self._transmit, session, message, wire)

    def _send_cost_of(self, message):
        if isinstance(message, UpdateMessage):
            return CONTROL_MESSAGE_COST + self.config.send_cost * message.route_count()
        return CONTROL_MESSAGE_COST

    def _transmit(self, session, message, wire):
        if not self.running:
            return
        if isinstance(message, UpdateMessage):
            self.total_updates_sent += message.route_count()
        session.transmit_wire(message, wire)

    def keepalive_due(self, session):
        """The keepalive thread's tick; TENSOR replicates before sending."""
        session.send_message(KeepaliveMessage())

    def tcp_established(self, session):
        """Hook: a session's TCP connection just completed its handshake.

        TENSOR installs its Netfilter rules and records session metadata
        here, before any BGP message (or its ACK) flows.
        """

    def stream_progress(self, session):
        """Hook: bytes arrived, possibly leaving a partial message buffered.

        TENSOR replicates the partial tail so the ACK covering it can be
        released even when the message completes much later (a sender with
        a collapsed congestion window would otherwise deadlock against the
        held ACK).
        """

    # ------------------------------------------------------------------
    # advertisement engine
    # ------------------------------------------------------------------

    def originate(self, vrf_name, prefix, attributes):
        """Inject a locally-originated route and propagate it."""
        vrf = self.vrfs[vrf_name]
        old, new = vrf.loc_rib.offer(
            prefix, Path(attributes, self.local_peer_id, "local"))
        self._queue_change(None, vrf, prefix, old, new)

    def originate_many(self, vrf_name, routes):
        """Bulk originate [(prefix, attributes), ...] without propagation
        churn (used to preload tables for benchmarks).  Routes with the
        same attributes object share one path."""
        offer = self.vrfs[vrf_name].loc_rib.offer
        peer_id = self.local_peer_id
        paths = {}  # id(attributes) -> Path, which keeps them alive
        for prefix, attributes in routes:
            path = paths.get(id(attributes))
            if path is None:
                path = paths[id(attributes)] = Path(attributes, peer_id,
                                                    "local")
            offer(prefix, path)

    def withdraw_originated(self, vrf_name, prefix):
        vrf = self.vrfs[vrf_name]
        old, new = vrf.loc_rib.retract(prefix, self.local_peer_id)
        self._queue_change(None, vrf, prefix, old, new)

    def session_established(self, session):
        """Initial table advertisement to a newly-established peer."""
        self.charge(self.config.per_peer_cost, lambda: None)
        self.readvertise(session)

    def readvertise(self, session):
        """Advertise the whole table to ``session``: every best route it
        did not itself supply."""
        self._advertise_plan(session, _FanoutPlan(self._plan(
            session, session.vrf.loc_rib.items(), own=session.peer_id)))

    def resync_session(self, session, dead_prefixes=()):
        """Outbound resync after NSR adoption.

        An UPDATE that was generated but neither committed nor
        transmitted at the crash instant is in no replay path: the
        incoming message that caused it was already pruned, and the
        Adj-RIB-Out that knew it was pending died with the process.
        Re-send withdrawals for ``dead_prefixes`` (recovered from the
        durable RIB delta log) and re-advertise the full table; both
        halves are idempotent at the remote, so over-sending is safe —
        silence is not.
        """
        if dead_prefixes:
            self._send_withdrawals(session, list(dead_prefixes))
        self.readvertise(session)

    def best_paths_changed(self, origin_session, changes):
        """Queue the best-path changes one received UPDATE (or one
        session teardown) made, for propagation to the other peers."""
        self.last_apply_time = self.engine.now
        targets = self._advert_targets(origin_session, origin_session.vrf)
        if targets:
            self._queue_changes(targets, [
                change for change in changes if change[1] is not change[2]
            ])

    def _queue_change(self, origin_session, vrf, prefix, old, new):
        targets = self._advert_targets(origin_session, vrf)
        if targets:
            self._queue_changes(targets, ((prefix, old, new),))

    def _advert_targets(self, origin_session, vrf):
        """Who may hear about a change in ``vrf``: its established
        sessions other than the one the change came from, each as
        ``(session, peer_id, is_ibgp)`` — settled once per batch of
        changes, not once per route."""
        return [
            (session, session.peer_id, session.source_kind == "ibgp")
            for session in self.sessions.values()
            if session.config.vrf_name == vrf.name
            and session is not origin_session
            and session.established
        ]

    def _queue_changes(self, targets, changes):
        """Queue ``[(prefix, old best, new best), ...]`` for ``targets``
        and make sure a flush is coming."""
        hook = self.engine._trace_hook
        ambient = hook.current if hook is not None else None
        per_speaker = self.config.mrai_mode == "per_speaker"
        pending = self._pending_adverts
        for prefix, _old, new in changes:
            # iBGP split horizon: routes learned from iBGP do not propagate
            # to other iBGP peers (the joint-container design of §3.2.4 uses
            # full-mesh iBGP between joint and member containers).
            from_ibgp = new is not None and new.source_kind == "ibgp"
            for session, peer_id, is_ibgp in targets:
                if from_ibgp and is_ibgp:
                    continue
                queued = pending.get(peer_id)
                if queued is None:
                    queued = pending[peer_id] = {}
                queued[prefix] = new
                if ambient is not None:
                    self._pending_advert_links.add(ambient.trace_id)
                if not per_speaker:
                    self._schedule_session_flush(session)
        if per_speaker and pending and not self._flush_scheduled:
            self._flush_scheduled = True
            self.engine.schedule(self.config.mrai, self._flush_adverts)

    # -- per-peer / per-prefix MRAI (DESIGN.md §13) ------------------------

    def _session_mrai(self, session):
        mrai = session.config.mrai
        return self.config.mrai if mrai is None else mrai

    def _schedule_session_flush(self, session, delay=None):
        peer_id = session.peer_id
        if peer_id in self._session_flush_scheduled:
            return
        self._session_flush_scheduled.add(peer_id)
        self.engine.schedule(
            self._session_mrai(session) if delay is None else delay,
            self._flush_session_adverts, peer_id,
        )

    def _flush_session_adverts(self, peer_id):
        self._session_flush_scheduled.discard(peer_id)
        if not self.running:
            return
        changes = self._pending_adverts.pop(peer_id, None)
        if not changes:
            return
        session = self.sessions.get(peer_id)
        if session is None:
            return
        if self.config.mrai_mode == "per_prefix":
            now = self.engine.now
            mrai = self._session_mrai(session)
            ready, deferred = {}, {}
            for prefix, route in changes.items():
                if self._prefix_pacing.get((peer_id, prefix), 0.0) <= now + 1e-12:
                    ready[prefix] = route
                else:
                    deferred[prefix] = route
            if deferred:
                self._pending_adverts[peer_id] = deferred
                earliest = min(
                    self._prefix_pacing[(peer_id, prefix)] for prefix in deferred
                )
                self._schedule_session_flush(session, delay=earliest - now)
            for prefix in ready:
                self._prefix_pacing[(peer_id, prefix)] = now + mrai
            changes = ready
            if not changes:
                return
        self._flushing_links = tuple(sorted(self._pending_advert_links))
        try:
            self._flush_pending({peer_id: changes})
        finally:
            self._flushing_links = ()
            if not self._pending_adverts:
                self._pending_advert_links = set()

    def _flush_adverts(self):
        self._flush_scheduled = False
        links, self._pending_advert_links = self._pending_advert_links, set()
        if not self.running:
            return
        self._flushing_links = tuple(sorted(links))
        try:
            self._flush_adverts_inner()
        finally:
            self._flushing_links = ()

    def _flush_adverts_inner(self):
        pending, self._pending_adverts = self._pending_adverts, {}
        self._flush_pending(pending)

    def _flush_pending(self, pending):
        # Group sessions whose queued change-set is identical (the common
        # fan-out case: one received UPDATE propagating to N-1 peers), so
        # advertise_routes_to_sessions can export and pack once per group
        # instead of once per peer.
        groups = {}  # change signature -> (announcements, [sessions])
        for peer_id, changes in pending.items():
            session = self.sessions.get(peer_id)
            if session is None or not session.established:
                continue
            announcements = []
            withdrawals = []
            for prefix, path in changes.items():
                if path is None:
                    if session.adj_rib_out.advertised(prefix) is not None:
                        withdrawals.append(prefix)
                else:
                    announcements.append((prefix, path))
            if withdrawals:
                self._send_withdrawals(session, withdrawals)
            if announcements:
                signature = tuple(
                    (prefix, id(path)) for prefix, path in announcements
                )
                group = groups.get(signature)
                if group is None:
                    groups[signature] = (announcements, [session])
                else:
                    group[1].append(session)
        for announcements, sessions in groups.values():
            self.advertise_routes_to_sessions(announcements, sessions)

    def _send_withdrawals(self, session, prefixes):
        for prefix in prefixes:
            session.adj_rib_out.record_withdraw(prefix)
        for message in pack_withdrawals(prefixes):
            session.send_message(message)

    def advertise_routes_to_sessions(self, routes, sessions):
        """Fan out ``(prefix, path)`` pairs to ``sessions``.

        With update packing, generation cost is paid once per distinct
        packed attribute set; further peers pay only the copy cost
        (§4.2 "update packing").  Without packing (GoBGP), every peer pays
        full generation for every route, one UPDATE per route.

        Pack-once: sessions sharing an export policy and session kind
        produce identical exports, so the export, its grouping by
        attribute set and the UPDATE messages are computed once per
        distinct (policy, kind) pair and the *same* message objects fan
        out to every matching peer — their memoized ``to_wire``
        serializes once.  ``routes`` is read once per such pair: hand
        over a sequence unless there is a single session.
        """
        shared = {}  # (export_policy id, source_kind) -> _FanoutPlan
        for session in sessions:
            plan_key = (id(session.config.export_policy), session.source_kind)
            plan = shared.get(plan_key)
            if plan is None:
                plan = shared[plan_key] = _FanoutPlan(
                    self._plan(session, routes))
            self._advertise_plan(session, plan)

    def _plan(self, session, routes, own=None):
        """Export ``routes``, ``(prefix, path)`` pairs, for ``session``:
        the survivors grouped by address family and exported attributes,
        ``[(afi, attributes, prefixes), ...]`` in the order of each
        group's first route (:func:`~repro.bgp.packing.group_routes`).
        Routes whose path peer ``own`` supplied are skipped like denied
        ones.  A policy that cannot tell one prefix from another is
        evaluated once per path and address family
        (:func:`~repro.bgp.packing.group_paths`); any other, per route.
        """
        export = self._exporter(session)
        if session.config.export_policy.prefix_independent:
            return group_paths(routes, lambda path: (
                None if path.peer_id == own
                else export(None, path.attributes)))
        exported = ((prefix, export(prefix, path.attributes))
                    for prefix, path in routes if path.peer_id != own)
        return group_routes((prefix, attributes)
                            for prefix, attributes in exported
                            if attributes is not None)

    def _exporter(self, session):
        """``export(prefix, attributes)``: export policy + eBGP attribute
        rules for one peer, None for a denied route.  Rewritten sets are
        memoized by value and interned, so successive fan-out rounds
        reuse one flyweight whose wire encoding is already cached."""
        local_as = self.config.local_as
        is_ebgp = session.source_kind == "ebgp"
        next_hop = self.stack.host.address
        evaluate = session.config.export_policy.evaluate
        rewritten = {}  # post-policy attributes -> rewritten attributes

        def export(prefix, attributes):
            exported = evaluate(prefix, attributes)
            if exported is None or not (is_ebgp or exported.next_hop is None):
                return exported
            cached = rewritten.get(exported)
            if cached is None:
                if is_ebgp:
                    cached = exported.replace(
                        as_path=exported.as_path.prepend(local_as),
                        next_hop=next_hop,
                        local_pref=None,
                    )
                else:
                    cached = exported.replace(next_hop=next_hop)
                cached = rewritten[exported] = PathAttributes.intern(cached)
            return cached

        return export

    def _next_hop_v6(self):
        """v4-mapped next hop of this speaker (a real deployment would
        use the interface's global v6 address)."""
        return (0xFFFF << 32) | ipv4_to_int(self.stack.host.address)

    def _advertise_plan(self, session, plan):
        """Send one session its share of ``plan``, recording each UPDATE
        in its Adj-RIB-Out.  Each UPDATE pays the send cost per route,
        except that an IPv4 one already generated for another peer
        travels again as the same bytes at the copy cost, which without
        update packing (GoBGP) is the send cost."""
        if not plan:
            return
        self.charge(self._per_peer_fanout_cost(), lambda: None)
        record = session.adj_rib_out.record_advertised
        send_cost = self.config.send_cost
        copy_cost = self.config.packed_copy_cost
        generated = self._generation_cache
        for message, prefixes in plan.messages(self._next_hop_v6(),
                                               self.config.update_packing):
            cost = send_cost
            if message.nlri:
                # The two variable blocks are the message's identity.
                key = message.attributes.to_wire(), message.nlri_wire
                if key in generated:
                    cost = copy_cost
                else:
                    generated.add(key)
                    if len(generated) > 4096:
                        generated.clear()
            record(prefixes, message.attributes)
            self.dispatch_send(
                session, message,
                generation_cost=CONTROL_MESSAGE_COST + cost * len(prefixes))

    def _per_peer_fanout_cost(self):
        cost = self.config.per_peer_cost
        if self.config.profile == "bird":
            cost += BIRD_PER_PEER_SUPERLINEAR * len(self.sessions)
        return cost

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def established_sessions(self):
        return [s for s in self.sessions.values() if s.established]

    def route_count(self):
        return sum(len(vrf.loc_rib) for vrf in self.vrfs.values())

    def log(self, line):
        self.log_lines.append((self.engine.now, line))

    def __repr__(self):
        return (
            f"<BgpSpeaker {self.config.name!r} as={self.config.local_as}"
            f" peers={len(self.sessions)} routes={self.route_count()}>"
        )
