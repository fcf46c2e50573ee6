"""Backup-side recovery: rebuild BGP + TCP state from the database.

§3.1.2: the backup router restores the BGP routing tables from the
database snapshot ("the backup BGP router does not need to replay all
previous BGP messages"), recovers the TCP sender buffer from the
replicated outgoing messages, and adopts the connection at the byte
positions implied by the replicated records.  TCP retransmission repairs
both directions: the remote retransmits anything past our recovered
receive position, and we retransmit every outgoing byte the remote has
not provably acknowledged.

Known divergence corner (found by the chaos engine, DESIGN.md §9): an
UPDATE that was generated but crashed *before* its database commit was
never transmitted (delayed sending), so the remote never saw it — and a
change applied just before the crash may never have had its UPDATE
generated at all.  Neither is in any replay path.  Recovery therefore
finishes with an outbound resync
(:meth:`~repro.bgp.speaker.BgpSpeaker.resync_session`): re-send the
withdrawals recorded in the live delta log, re-advertise the table.
"""

from itertools import chain

from repro.bgp.aggregation import expand_snapshot_paths
from repro.bgp.attributes import PathAttributes
from repro.bgp.prefixes import decode_nlri_block
from repro.bgp.rib import LocRib, Path
from repro.core.replication import delta_runs
from repro.sim.calibration import TCP_MSS
from repro.tcpsim.repair import TcpRepairState


class RecoveredState:
    """Everything read back from the database for one pair."""

    def __init__(self, pair_name):
        self.pair_name = pair_name
        self.sessions = {}  # conn_id -> session meta dict
        self.tcp_status = {}  # conn_id -> watermark dict
        self.in_messages = {}  # conn_id -> sorted [(pos, record)]
        self.out_messages = {}  # conn_id -> sorted [(pos, record)]
        self.partials = {}  # conn_id -> {"bytes": ..., "upto": int}
        self.rib_deltas = {}  # vrf -> sorted [(seq, delta)]
        self.rib_snapshots = {}  # vrf -> {chunk_index: entries}
        self.rib_markers = {}  # vrf -> marker dict
        self.records_read = 0

    # ------------------------------------------------------------------

    def vrf_names(self):
        names = set(self.rib_deltas) | set(self.rib_snapshots)
        for meta in self.sessions.values():
            names.add(meta["vrf"])
        return sorted(names)

    def rebuild_loc_rib(self, vrf, local_as=0, router_id=0):
        """Snapshot chunks + ordered deltas -> a fresh Loc-RIB: the
        snapshot's routes share one path per (attributes, peer, source
        kind), a delta run's one per run."""
        rib = LocRib(local_as=local_as, router_id=router_id)
        marker = self.rib_markers.get(vrf, {"chunks": 0, "delta_floor": 0})
        chunks = self.rib_snapshots.get(vrf, {})
        # Snapshot-aggregated chunks (DESIGN.md §14) carry collapsed
        # subtree records; expansion is the identity for plain ones.
        for prefix, path in expand_snapshot_paths(chain.from_iterable(
                chunks.get(index, []) for index in range(marker["chunks"]))):
            rib.offer(prefix, path)
        floor = marker.get("delta_floor", 0)
        for seq, delta in self.rib_deltas.get(vrf, []):
            if seq < floor:
                continue  # superseded by the snapshot
            withdrawn, announced = delta_runs(delta)
            for afi, nlri_wire, peer_id in withdrawn:
                for prefix in decode_nlri_block(nlri_wire, afi):
                    rib.retract(prefix, peer_id)
            for afi, nlri_wire, attrs_wire, peer_id, source_kind in announced:
                path = Path(PathAttributes.from_wire(attrs_wire), peer_id,
                            source_kind)
                for prefix in decode_nlri_block(nlri_wire, afi):
                    rib.offer(prefix, path)
        return rib

    def recent_withdrawn_prefixes(self, vrf):
        """Prefixes withdrawn by any live (uncompacted) delta.

        The outbound resync re-sends withdrawals for these: a withdraw
        applied just before the crash is durable as a delta, but the
        UPDATE advertising it to the *other* peers may never have been
        generated.  Bounded by the compaction threshold.
        """
        marker = self.rib_markers.get(vrf, {"chunks": 0, "delta_floor": 0})
        floor = marker.get("delta_floor", 0)
        withdrawn = set()
        for seq, delta in self.rib_deltas.get(vrf, []):
            if seq < floor:
                continue
            for afi, nlri_wire, _peer_id in delta_runs(delta)[0]:
                withdrawn.update(decode_nlri_block(nlri_wire, afi))
        return withdrawn

    def delta_log_state(self, vrf):
        """``(next_seq, floor, live_count)`` for resuming the delta log.

        The recovered process must append past the highest stored delta —
        restarting from 0 would overwrite records still needed by a later
        recovery (see ReplicationPipeline.resume_delta_log).  ``floor`` is
        the committed marker's, so it seeds the pipeline's durable floor
        (its next purge starts there); ``live_count`` seeds the started
        watermark, so the next compaction falls due when the stored live
        deltas plus the new ones reach the threshold.
        """
        marker = self.rib_markers.get(vrf, {"chunks": 0, "delta_floor": 0})
        floor = marker.get("delta_floor", 0)
        deltas = self.rib_deltas.get(vrf, [])
        next_seq = (deltas[-1][0] + 1) if deltas else floor
        live = sum(1 for seq, _delta in deltas if seq >= floor)
        return next_seq, floor, live

    def recovered_in_position(self, conn_id):
        """Receive-stream position: every replicated whole message counts."""
        watermark = self.tcp_status.get(conn_id, {}).get("in_pos", 0)
        stored = self.in_messages.get(conn_id, ())
        stored_max = stored[-1][0] if stored else 0
        return max(watermark, stored_max)

    def recovered_partial(self, conn_id):
        """The replicated partial-message tail past the complete boundary.

        Returns ``(bytes, upto)`` or ``(b"", complete_pos)`` when the
        stored partial is stale (a later message consumed those bytes).
        """
        complete = self.recovered_in_position(conn_id)
        partial = self.partials.get(conn_id)
        if partial is None or partial["upto"] <= complete:
            return b"", complete
        return partial["bytes"], partial["upto"]

    def recovered_out_state(self, conn_id):
        """(out_pos, unpruned_positions, base) for the send side.

        ``base`` is the stream offset of the first byte of the earliest
        surviving outgoing record — the recovered ``snd_una``.  Pruning
        always keeps the newest record, so the surviving records are a
        contiguous stream suffix and ``out_pos`` (the last record's end)
        is the authoritative next-byte position.
        """
        stored = self.out_messages.get(conn_id, ())
        watermark = self.tcp_status.get(conn_id, {}).get("out_pruned", 0)
        if not stored:
            return watermark, [], watermark
        first_pos, first_record = stored[0]
        base = first_pos - len(first_record["wire"])
        out_pos = stored[-1][0]
        unpruned = [pos for pos, _record in stored]
        return out_pos, unpruned, base

    def unapplied_messages(self, conn_id):
        """Stored incoming messages the primary never applied, in order."""
        watermark = self.tcp_status.get(conn_id, {}).get("in_pos", 0)
        return [rec for pos, rec in self.in_messages.get(conn_id, ()) if pos > watermark]

    def tcp_repair_state(self, conn_id):
        """Build the repair snapshot for one connection."""
        meta = self.sessions[conn_id]
        _out_pos, _unpruned, base = self.recovered_out_state(conn_id)
        send_queue = bytearray()
        for _pos, record in self.out_messages.get(conn_id, ()):
            send_queue.extend(record["wire"])
        _partial_bytes, stream_pos = self.recovered_partial(conn_id)
        return TcpRepairState(
            local_addr=meta["local_addr"],
            local_port=meta["local_port"],
            remote_addr=meta["remote_addr"],
            remote_port=meta["remote_port"],
            iss=meta["iss"],
            irs=meta["irs"],
            snd_una=meta["iss"] + 1 + base,
            rcv_nxt=meta["irs"] + 1 + stream_pos,
            snd_wnd=10 * TCP_MSS,
            mss=TCP_MSS,
            send_queue=bytes(send_queue),
        )


class BackupRecovery:
    """Reads a pair's keyspace and produces a :class:`RecoveredState`."""

    def __init__(self, engine, kv_client, pair_name):
        self.engine = engine
        self.kv = kv_client
        self.pair_name = pair_name

    #: Delay before re-issuing a failed recovery scan.  Recovery cannot
    #: proceed without the replicated state, so it must outlast transient
    #: database unavailability (otherwise a sub-second blip overlapping a
    #: migration wedges the backup forever and the remote's hold timer
    #: eventually kills the session).
    SCAN_RETRY_DELAY = 0.5

    def load(self, on_done, estimated_records=256):
        """Scan the pair's keyspace; ``on_done(RecoveredState)``.

        Retries indefinitely on timeout: the backup has nothing else it
        can do, and giving up silently would strand the adopted peers.
        """
        prefix = f"tensor:{self.pair_name}:"
        self.kv.scan(
            prefix,
            on_done=lambda pairs: on_done(self._parse(pairs)),
            on_error=lambda _method, _cause: self.engine.schedule(
                self.SCAN_RETRY_DELAY, self.load, on_done, estimated_records
            ),
            estimated=estimated_records,
        )

    def _parse(self, pairs):
        state = RecoveredState(self.pair_name)
        state.records_read = len(pairs)
        base_len = len(f"tensor:{self.pair_name}:")
        for key, value in pairs:
            suffix = key[base_len:]
            kind, _sep, rest = suffix.partition(":")
            if kind == "sess":
                state.sessions[rest] = value
            elif kind == "tcp":
                state.tcp_status[rest] = value
            elif kind == "msg":
                conn_id, direction, pos_text = rest.rsplit(":", 2)
                position = int(pos_text)
                bucket = state.in_messages if direction == "i" else state.out_messages
                bucket.setdefault(conn_id, []).append((position, value))
            elif kind == "part":
                state.partials[rest] = value
            elif kind == "rib":
                if rest.endswith(":marker"):
                    state.rib_markers[rest[: -len(":marker")]] = value
                else:
                    vrf, entry_kind, index_text = rest.rsplit(":", 2)
                    if entry_kind == "d":
                        state.rib_deltas.setdefault(vrf, []).append(
                            (int(index_text), value)
                        )
                    elif entry_kind == "s":
                        state.rib_snapshots.setdefault(vrf, {})[int(index_text)] = value
        for bucket in (state.in_messages, state.out_messages):
            for conn_id in bucket:
                bucket[conn_id].sort(key=lambda pair: pair[0])
        for vrf in state.rib_deltas:
            state.rib_deltas[vrf].sort(key=lambda pair: pair[0])
        return state
