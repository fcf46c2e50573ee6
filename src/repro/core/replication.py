"""Replication pipeline: key schema, write coalescing, pruning, deltas.

Key schema (§4.1: "the key consists of a 16B VRF prefix, a 36B four-tuple
identification ... and a 38B identification for the peering AS and the
client", values are whole BGP messages capped at 4 KB):

    tensor:{pair}:sess:{conn}          session metadata (initial SEQ/ACK,
                                       addresses, peer AS) — written once
    tensor:{pair}:tcp:{conn}           watermarks: applied-in position,
                                       pruned-out position (the "TCP status")
    tensor:{pair}:msg:{conn}:i:{pos}   one incoming message; pos = stream
                                       offset after the message
    tensor:{pair}:msg:{conn}:o:{pos}   one outgoing message
    tensor:{pair}:rib:{vrf}:d:{seq}    one routing-table delta (the effect
                                       of one applied UPDATE; layout at
                                       :func:`rib_delta`)
    tensor:{pair}:rib:{vrf}:s:{chunk}  compacted snapshot chunks

Two channels with separate clients keep latency-critical message
replication (which gates ACK release) from queueing behind bulk
routing-table writes:

- **fast**: incoming/outgoing message records, session metadata, the
  verify reads issued by ``tcp_queue``;
- **bulk**: RIB deltas, message deletion after application ("we remove
  the replicated messages that have been applied to routing tables"),
  watermark updates, periodic compaction.

A compaction (:meth:`ReplicationPipeline.compact`) asks the Loc-RIB only
for the prefixes changed since the last one and patches each into its
chunk's kept encoding (:class:`repro.bgp.aggregation.SnapshotChunk`);
a full one encodes every chunk through the one chunk encoder,
:func:`repro.bgp.aggregation.encode_chunk` (DESIGN.md §8).
"""

import zlib
from collections import deque

from repro.bgp.aggregation import SnapshotChunk, aggregate_root, encode_chunk
from repro.bgp.prefixes import prefix_text
from repro.kvstore.client import CAUSE_FENCED
from repro.kvstore.locks import LockManager

#: Compact RIB deltas into snapshot chunks past this many deltas per VRF.
COMPACTION_THRESHOLD = 1024
#: Routes per snapshot chunk record (keeps values at realistic KV sizes).
SNAPSHOT_CHUNK_ROUTES = 500
#: Replication write retries before declaring the database unavailable.
WRITE_RETRIES = 3
#: First retry delay; doubles per attempt (0.2, 0.4, 0.8 for 3 retries).
RETRY_BACKOFF_BASE = 0.2


class ConnectionKeys:
    """Key builder for one BGP connection."""

    def __init__(self, pair_name, vrf, local_addr, local_port, remote_addr, remote_port):
        self.pair_name = pair_name
        self.vrf = vrf
        self.conn_id = f"{vrf}|{local_addr}:{local_port}|{remote_addr}:{remote_port}"
        self._base = f"tensor:{pair_name}"

    @property
    def session(self):
        return f"{self._base}:sess:{self.conn_id}"

    @property
    def tcp_status(self):
        return f"{self._base}:tcp:{self.conn_id}"

    def message(self, direction, position):
        return f"{self._base}:msg:{self.conn_id}:{direction}:{position:016d}"

    def message_prefix(self, direction):
        return f"{self._base}:msg:{self.conn_id}:{direction}:"

    def __repr__(self):
        return f"<ConnectionKeys {self.conn_id}>"


def rib_delta_key(pair_name, vrf, seq):
    return f"tensor:{pair_name}:rib:{vrf}:d:{seq:016d}"

def rib_snapshot_key(pair_name, vrf, chunk):
    return f"tensor:{pair_name}:rib:{vrf}:s:{chunk:08d}"

def pair_prefix(pair_name):
    return f"tensor:{pair_name}:"


#: Version of the RIB delta record written by :func:`rib_delta`.  Layout
#: 1 (no ``layout`` field) held one ``(prefix text, attrs_wire, peer_id,
#: source_kind)`` tuple per route; a reader meeting anything but the
#: current layout refuses it (:func:`delta_runs`).
DELTA_LAYOUT = 2


def rib_delta(in_pos, withdrawn=(), announced=()):
    """The record of what one applied UPDATE did to the table.

    Routes are held by the *run*, not one by one: ``withdrawn`` is a
    list of ``(afi, nlri_wire, peer_id)`` and ``announced`` a list of
    ``(afi, nlri_wire, attrs_wire, peer_id, source_kind)``, where
    ``nlri_wire`` is a block of wire prefixes of family ``afi`` (RFC
    4271 §4.3; :func:`repro.bgp.prefixes.decode_nlri_block` reads it
    back) that all left the peer's Adj-RIB-In, or all entered it with
    the post-import-policy attributes ``attrs_wire``.  A reader applies
    the withdrawn runs first, then the announced ones, as the UPDATE
    itself was applied.  ``in_pos`` is the receive-stream offset after
    the UPDATE.
    """
    return {"layout": DELTA_LAYOUT, "in_pos": in_pos,
            "withdraw": list(withdrawn), "announce": list(announced)}


def delta_runs(delta):
    """``(withdrawn runs, announced runs)`` of a stored delta.

    A record in any other layout is an error, never a guess at what
    its tuples might mean.
    """
    layout = delta.get("layout")
    if layout != DELTA_LAYOUT:
        raise ValueError(
            f"RIB delta in layout {layout!r}, not {DELTA_LAYOUT}: the store"
            f" was written by an incompatible build; refusing to read it")
    return delta["withdraw"], delta["announce"]


class WriteCoalescer:
    """Batches sets/deletes to one KV client, one batch in flight.

    Operations are applied in exact enqueue order: each flush takes the
    longest prefix of same-kind operations (a run of sets becomes one
    ``mset``, a run of deletes one ``delete``), so a set enqueued after a
    delete of the same key can never be eaten by that delete — the
    property test in tests/test_properties_extra.py pinned this down.
    Failed batches are retried; persistent unavailability surfaces
    through ``on_unavailable``, on which the caller keeps ACKs held (the
    fail-safe direction).

    Batch sizing is adaptive: ``batch_limit`` starts at ``max_batch``,
    doubles (up to ``max_batch_cap``) while the backlog outruns it, and
    decays back toward ``max_batch`` once the queue drains — amortizing
    per-operation base cost under load without letting an idle channel
    hold huge batches.

    Failure handling distinguishes causes (DESIGN.md §12):

    - timeouts/refusals back off exponentially between retries; when the
      client's ``endpoint_generation`` changed since the batch was
      issued (a failover repoint landed), the batch restarts against
      the new endpoint with a *fresh* retry budget;
    - a **fenced** write re-queues the batch at the head and waits for
      the controller's repoint (retrying against the demoted primary
      cannot succeed);
    - exhausted **set** batches drop and surface ``on_unavailable``
      (the caller keeps ACKs held — fail-safe); exhausted **delete**
      batches re-queue instead of dropping, because a silently lost
      prune leaks snapshot-store records forever.
    """

    def __init__(self, client, max_batch=512, on_unavailable=None,
                 max_batch_cap=None, name=""):
        self.client = client
        self.name = name  # channel label ("fast"/"bulk"/"remote") for traces
        self.engine = getattr(client, "engine", None)
        self.max_batch = max_batch
        self.max_batch_cap = max_batch_cap if max_batch_cap is not None else max_batch * 8
        self.batch_limit = max_batch
        self.on_unavailable = on_unavailable
        # ("set", key, value, cb) | ("delete", key, None, cb)
        # | ("mdelete", keys_tuple, None, cb)
        self._pending = deque()
        #: Records queued and not yet issued (an mdelete counts its keys).
        self.backlog = 0
        self._in_flight = False
        self.batches_flushed = 0
        self.records_written = 0
        self.records_deleted = 0
        self.failures = 0
        self.fenced = 0
        self.requeued_deletes = 0
        # On a failover repoint, resume flushing anything parked by a
        # fenced write or an exhausted delete batch.
        if hasattr(client, "on_repoint"):
            client.on_repoint = self.kick

    def kick(self):
        """Resume flushing (failover repoint landed, endpoint is live)."""
        self._maybe_flush()

    def _generation(self):
        return getattr(self.client, "endpoint_generation", 0)

    def set(self, key, value, on_done=None):
        self._pending.append(("set", key, value, on_done))
        self.backlog += 1
        self._maybe_flush()

    def delete(self, key, on_done=None):
        self._pending.append(("delete", key, None, on_done))
        self.backlog += 1
        self._maybe_flush()

    def delete_many(self, keys, on_done=None):
        """Enqueue one pre-batched delete of ``keys`` (a ranged purge).

        The whole group travels as a single queue entry — enqueueing N
        keys costs one append instead of N — and flushes inside a normal
        delete run, so ordering against neighbouring sets still holds.
        ``on_done`` fires once for the group.
        """
        keys = tuple(keys)
        if not keys:
            if on_done is not None:
                on_done()
            return
        self._pending.append(("mdelete", keys, None, on_done))
        self.backlog += len(keys)
        self._maybe_flush()

    def _maybe_flush(self):
        if not self._in_flight and self._pending:
            self._in_flight = True
            self._flush_run()

    def _adapt_batch_limit(self):
        backlog = len(self._pending)
        if backlog > self.batch_limit:
            self.batch_limit = min(self.batch_limit * 2, self.max_batch_cap)
        elif backlog <= self.max_batch and self.batch_limit > self.max_batch:
            self.batch_limit = max(self.max_batch, self.batch_limit // 2)

    def _take_run(self):
        """Pop the longest same-kind prefix of the queue (<= batch_limit
        records; single-key deletes and ranged mdeletes share runs)."""
        self._adapt_batch_limit()
        pending = self._pending
        is_set = pending[0][0] == "set"
        limit = self.batch_limit
        count = records = 0
        for op in pending:
            if (op[0] == "set") != is_set or records >= limit:
                break
            count += 1
            records += len(op[1]) if op[0] == "mdelete" else 1
        take = pending.popleft
        run = [take() for _ in range(count)]
        self.backlog -= records
        return ("set" if is_set else "delete"), run

    def _requeue(self, run):
        """Put an unissued run back at the head, in its original order."""
        records = self._record_count(run)
        self._pending.extendleft(reversed(run))
        self.backlog += records
        self._in_flight = False
        return records

    def _flush_run(self):
        if not self._pending:
            self._in_flight = False
            return
        kind, run = self._take_run()
        if kind == "set":
            self._issue_sets(run, retries=WRITE_RETRIES)
        else:
            self._issue_deletes(run, retries=WRITE_RETRIES)

    def _batch_span(self, kind, records):
        tracer = (
            getattr(self.engine, "_trace_hook", None)
            if self.engine is not None else None
        )
        if tracer is None:
            return None
        return tracer.begin(
            "repl.batch", parent=None,
            channel=self.name, kind=kind, records=records,
        )

    def _retry(self, issue, run, retries, cause, generation):
        """Shared failure policy for both batch kinds.

        Returns True when a retry (or requeue) was arranged; False means
        the budget is spent and the caller must give up.
        """
        self.failures += 1
        if cause == CAUSE_FENCED:
            # This endpoint was demoted; only a repoint can help.  Park
            # the batch at the head of the queue and wait for the
            # controller's push (client.on_repoint -> kick).
            self.fenced += 1
            self._requeue(run)
            return True
        if self._generation() != generation:
            # A repoint landed mid-attempt: the old endpoint's failures
            # say nothing about the new one — fresh budget.
            issue(run, WRITE_RETRIES)
            return True
        if retries <= 0:
            return False
        attempt = WRITE_RETRIES - retries
        delay = RETRY_BACKOFF_BASE * (2 ** attempt)
        if self.engine is not None:
            self.engine.schedule(delay, issue, run, retries - 1)
        else:
            issue(run, retries - 1)
        return True

    def _issue_sets(self, run, retries):
        items = [(key, value) for _kind, key, value, _cb in run]
        span = self._batch_span("set", len(run))
        generation = self._generation()

        def on_done():
            if span is not None:
                span.finish(outcome="ok")
            self.batches_flushed += 1
            self.records_written += len(run)
            for _kind, _key, _value, callback in run:
                if callback is not None:
                    callback()
            self._flush_run()

        def on_error(_method, cause=None):
            if span is not None:
                span.finish(outcome="error")
            if not self._retry(self._issue_sets, run, retries, cause, generation):
                self._give_up_sets(run)

        self.client.mset(items, on_done=on_done, on_error=on_error)

    def _issue_deletes(self, run, retries):
        keys = []
        for kind, key, _value, _cb in run:
            if kind == "mdelete":
                keys.extend(key)
            else:
                keys.append(key)
        span = self._batch_span("delete", len(keys))
        generation = self._generation()

        def on_done(_removed):
            if span is not None:
                span.finish(outcome="ok")
            self.batches_flushed += 1
            self.records_deleted += len(keys)
            for _kind, _key, _value, callback in run:
                if callback is not None:
                    callback()
            self._flush_run()

        def on_error(_method, cause=None):
            if span is not None:
                span.finish(outcome="error")
            if not self._retry(self._issue_deletes, run, retries, cause, generation):
                self._give_up_deletes(run)

        self.client.delete(keys, on_done=on_done, on_error=on_error)

    @staticmethod
    def _record_count(run):
        return sum(len(op[1]) if op[0] == "mdelete" else 1 for op in run)

    def _give_up_sets(self, run):
        """Database unavailable: stop retrying, keep the system fail-safe.

        The batch's records are abandoned (their per-op callbacks never
        fire — upstream the matching ACKs stay held) and the in-flight
        flag resets so a later enqueue can resume flushing if the
        database returns.
        """
        self._in_flight = False
        if self.on_unavailable is not None:
            self.on_unavailable(self._record_count(run))

    def _give_up_deletes(self, run):
        """Exhausted prune batch: re-queue rather than leak.

        Unlike a dropped set (whose held ACK keeps the system safe), a
        dropped delete has no upstream guardian — the pruned records
        would simply live in the snapshot store forever.  Nothing was
        lost, so ``on_unavailable`` is not raised; the batch goes back
        to the head of the queue and flushes when the database returns
        (next enqueue or failover kick).
        """
        self.requeued_deletes += self._requeue(run)


class ReplicationPipeline:
    """The TENSOR process's view of the database.

    Owns the fast and bulk coalescers, the per-connection message locks
    (§3.1.2: main and keepalive threads both write; ordering is required
    only *within* a connection), RIB delta sequencing and compaction.
    """

    def __init__(self, pair_name, fast_client, bulk_client, on_unavailable=None,
                 remote_client=None, remote_mode="sync",
                 aggregate_snapshots=False):
        self.pair_name = pair_name
        # DRAGON-style snapshot aggregation (DESIGN.md §14): chunk
        # entries collapse complete uniform subtrees into aggregate
        # records, and prefixes bucket by aggregate root so siblings
        # co-locate.  Lossless — recovery expands to the same table.
        self.aggregate_snapshots = aggregate_snapshots
        self.fast = WriteCoalescer(fast_client, on_unavailable=on_unavailable,
                                   name="fast")

        def bulk_unavailable(records):
            self._snapshots_went_stale()
            if on_unavailable is not None:
                on_unavailable(records)

        self.bulk = WriteCoalescer(bulk_client, on_unavailable=bulk_unavailable,
                                   name="bulk")
        self.fast_client = fast_client
        self.bulk_client = bulk_client
        # §5 "Remote replication for disaster recovery": an optional second
        # store in another facility.  "sync" gates ACK release on the
        # remote commit too (safe, slow — Fig. 5(a) shows why); "async"
        # fires and forgets (fast, loses the most recent messages in a
        # true disaster).
        if remote_mode not in ("sync", "async"):
            raise ValueError(f"unknown remote_mode {remote_mode!r}")
        self.remote = (
            WriteCoalescer(remote_client, on_unavailable=on_unavailable,
                           name="remote")
            if remote_client is not None
            else None
        )
        self.remote_mode = remote_mode
        self.locks = LockManager()
        # Delta log positions, per vrf (DESIGN.md "Incremental snapshot
        # protocol").  ``started`` is what *triggers* a compaction and
        # moves when one starts; ``floor`` is what a commit *purges from*
        # and moves only when a marker is durable.
        self._delta_seq = {}  # vrf -> next delta sequence number
        self._delta_started = {}  # vrf -> seq folded by the newest compaction
        self._delta_floor = {}  # vrf -> first delta not purged (durable floor)
        # Incremental-snapshot bookkeeping, per vrf: each written
        # chunk's kept encoding plus the Loc-RIB change-counter
        # watermark consumed by the last compaction.
        self._snapshot_state = {}  # vrf -> the dict compact() creates
        self.deltas_recorded = 0
        self.deltas_purged = 0  # delete keys issued, one per superseded delta
        self.compactions = 0
        self.incremental_compactions = 0
        self.snapshot_chunks_written = 0
        # Aggregation effectiveness: entry counts before/after collapse
        # across all chunk writes (equal when aggregation is off).
        self.snapshot_entries_raw = 0
        self.snapshot_entries_written = 0

    # ------------------------------------------------------------------
    # message replication (fast channel, per-connection ordering)
    # ------------------------------------------------------------------

    def replicate_message(self, keys, direction, position, record, on_committed):
        """Write one message record; ``on_committed`` fires when durable.

        The per-connection lock serializes enqueueing from the main and
        keepalive threads, preserving intra-connection write order while
        leaving different connections concurrent.
        """
        lock_key = keys.conn_id
        record_key = keys.message(direction, position)

        def enqueue():
            if self.remote is None:
                self.fast.set(
                    record_key, record,
                    on_done=lambda: self._committed(lock_key, on_committed),
                )
                return
            if self.remote_mode == "async":
                self.remote.set(record_key, record)
                self.fast.set(
                    record_key, record,
                    on_done=lambda: self._committed(lock_key, on_committed),
                )
                return
            # sync: both stores must commit before the ACK may be released
            pending = {"count": 2}

            def one_done():
                pending["count"] -= 1
                if pending["count"] == 0:
                    self._committed(lock_key, on_committed)

            self.fast.set(record_key, record, on_done=one_done)
            self.remote.set(record_key, record, on_done=one_done)

        self.locks.acquire(lock_key, owner=(direction, position), granted=enqueue)

    def _committed(self, lock_key, on_committed):
        holder = self.locks.holder(lock_key)
        self.locks.release(lock_key, holder)
        on_committed()

    def write_session_record(self, keys, record, on_done=None):
        self.fast.set(keys.session, record, on_done=on_done)

    def verify_read(self, key, on_value, on_error=None):
        """tcp_queue's confirmation read before releasing an ACK."""
        self.fast_client.get(key, on_done=on_value, on_error=on_error)

    # ------------------------------------------------------------------
    # application-side pruning and RIB deltas (bulk channel)
    # ------------------------------------------------------------------

    def record_rib_delta(self, vrf, delta, on_done=None):
        """Persist the effect of one applied UPDATE message: ``delta``
        is a :func:`rib_delta` record.  One call is one KV set, whatever
        the UPDATE carried.  Returns the delta's sequence number."""
        seq = self._delta_seq.get(vrf, 0)
        self._delta_seq[vrf] = seq + 1
        self.deltas_recorded += 1
        self.bulk.set(rib_delta_key(self.pair_name, vrf, seq), delta, on_done=on_done)
        return seq

    def delete_message(self, keys, direction, position, on_done=None):
        """Prune an applied (or remote-acknowledged) message record."""
        self.bulk.delete(keys.message(direction, position), on_done=on_done)

    def update_tcp_status(self, keys, status, on_done=None):
        self.bulk.set(keys.tcp_status, status, on_done=on_done)

    # ------------------------------------------------------------------
    # compaction (bounds storage and recovery work)
    # ------------------------------------------------------------------

    def resume_delta_log(self, vrf, next_seq, floor, live):
        """Continue a recovered VRF's delta log instead of restarting it.

        A freshly built pipeline sequences deltas from 0; after recovery
        that would overwrite the durable log's oldest records in place,
        silently corrupting what the *next* recovery rebuilds from.
        """
        self._delta_seq[vrf] = next_seq
        self._delta_floor[vrf] = floor
        # ``live`` stored deltas are unfolded: the next compaction is due
        # when that count reaches the threshold, exactly as if this
        # process had recorded them itself.
        self._delta_started[vrf] = next_seq - live

    def needs_compaction(self, vrf, threshold=COMPACTION_THRESHOLD):
        """True once ``threshold`` deltas were recorded since the newest
        compaction *started* — not since one committed: a compaction
        whose marker is still queued has already folded them, and
        starting another would fold, write and purge the same range."""
        return (self._delta_seq.get(vrf, 0)
                - self._delta_started.get(vrf, 0)) >= threshold

    def _snapshots_went_stale(self):
        """A bulk set batch was dropped: some chunk, marker or delta may
        never have landed, so the incremental state (which chunks hold
        what) is ahead of the store.  The next compaction of every VRF
        re-buckets and rewrites the full table; its marker's commit
        purges from the durable floor, covering a dropped marker's range."""
        for state in self._snapshot_state.values():
            state["stale"] = True

    def _chunk_assigner(self, buckets):
        """Stable chunk assignment among ``buckets`` chunks, as a
        function of the prefix good for one compaction.

        Must be deterministic across processes and runs (recovery
        re-reads chunks written by an earlier incarnation), so Python's
        randomized ``hash()`` is out; CRC-32 of the textual prefix is
        stable and cheap.  Under snapshot aggregation the text is the
        aggregate root's (collapse needs siblings together), rendered
        once per root and remembered until the compaction ends.
        """
        crc32 = zlib.crc32
        by_full_prefix = not self.aggregate_snapshots
        by_root = {}

        def assign(prefix):
            root = prefix if by_full_prefix else aggregate_root(prefix)
            if root is prefix:  # its own root: no sibling shares the text
                return crc32(prefix_text(prefix).encode()) % buckets
            bucket = by_root.get(root)
            if bucket is None:
                bucket = by_root[root] = crc32(
                    prefix_text(root).encode()) % buckets
            return bucket

        return assign

    def compact(self, vrf, loc_rib, on_done=None):
        """Replace accumulated deltas with chunked snapshot records.

        Prefixes are assigned to snapshot chunks by a stable hash, and
        each written chunk's encoding is kept: a compaction patches each
        prefix changed since the previous one into its chunk and
        rewrites only those chunks (plus the marker).  The first
        compaction — or one following enough growth/shrinkage to force
        re-bucketing, or a dropped snapshot write — encodes and writes
        the full table.
        """
        self.compactions += 1
        state = self._snapshot_state.get(vrf)
        if state is None:
            state = self._snapshot_state[vrf] = {
                "stale": False,    # a write of it may never have landed
                "export_seq": 0,   # Loc-RIB change watermark consumed
                "chunks": [],      # per chunk written, its SnapshotChunk
            }
        export_seq, dirty = loc_rib.path_counts_since(state["export_seq"])
        state["export_seq"] = export_seq
        chunks = state["chunks"]
        written = len(chunks)
        collapse = self.aggregate_snapshots
        if chunks:
            # Patch first: the chunks' route counts then total the
            # post-change table, which sizes the buckets.
            assign = self._chunk_assigner(written)
            dirty_buckets = set()
            for prefix in dirty:
                bucket = assign(prefix)
                dirty_buckets.add(bucket)
                chunks[bucket].patch(
                    prefix, loc_rib.export_prefix_entries(prefix), collapse)
            total = sum(chunk.routes for chunk in chunks)
        else:
            total = sum(dirty.values())  # a first read lists the table
        grown = total > written * 2 * SNAPSHOT_CHUNK_ROUTES
        shrunk = written > 1 and total < (written // 2) * SNAPSHOT_CHUNK_ROUTES
        if not chunks or state["stale"] or grown or shrunk:
            buckets = max(1, -(-total // SNAPSHOT_CHUNK_ROUTES))
            assign = self._chunk_assigner(buckets)
            members = [set() for _ in range(buckets)]
            for prefix in loc_rib.prefixes():
                members[assign(prefix)].add(prefix)
            state["chunks"] = chunks = []  # let the old encodings go first
            for prefixes in members:
                chunks.append(SnapshotChunk(
                    *encode_chunk(loc_rib, prefixes, collapse)))
            state["stale"] = False
            dirty_buckets = range(buckets)
            # Chunks past the new count are stale; readers ignore them,
            # but delete the ones a larger previous snapshot left behind.
            if written > buckets:
                self.bulk.delete_many(
                    rib_snapshot_key(self.pair_name, vrf, index)
                    for index in range(buckets, written)
                )
        else:
            self.incremental_compactions += 1
        for index in sorted(dirty_buckets):
            chunk = chunks[index]
            if collapse:
                self.snapshot_entries_raw += chunk.routes
                self.snapshot_entries_written += len(chunk.records)
            # A copy: the store keeps what it is handed, and the next
            # patch edits the chunk's own list in place.
            self.bulk.set(rib_snapshot_key(self.pair_name, vrf, index),
                          list(chunk.records))
            self.snapshot_chunks_written += 1
        # Snapshot marker: how many chunks are current (readers ignore
        # stale higher-numbered chunks from earlier, larger snapshots)
        # and the delta floor — the sequence number of the first delta
        # NOT folded into this snapshot, i.e. the first live delta a
        # recovery reader must replay on top of it.
        new_floor = self._delta_seq.get(vrf, 0)
        self._delta_started[vrf] = new_floor
        marker = {"chunks": len(chunks), "delta_floor": new_floor}
        self.bulk.set(
            f"tensor:{self.pair_name}:rib:{vrf}:marker",
            marker,
            on_done=lambda: self._marker_committed(vrf, new_floor, on_done),
        )

    def _marker_committed(self, vrf, ceiling, on_done):
        """Purge the deltas a now-durable marker supersedes.

        The range starts at the durable floor *as of this commit*, not as
        of the compaction's start: markers commit in enqueue order, so an
        earlier compaction that was still in flight when this one began
        has purged its own range by now, and one whose marker was dropped
        never moved the floor — its range is swept here.  Either way each
        delta is deleted exactly once, as ranged key batches.
        """
        floor = self._delta_floor.get(vrf, 0)
        for start in range(floor, ceiling, self.bulk.max_batch):
            end = min(start + self.bulk.max_batch, ceiling)
            self.bulk.delete_many(
                rib_delta_key(self.pair_name, vrf, seq) for seq in range(start, end)
            )
        self._delta_floor[vrf] = ceiling
        self.deltas_purged += ceiling - floor
        if on_done is not None:
            on_done()

    def backlog(self):
        return self.fast.backlog + self.bulk.backlog
