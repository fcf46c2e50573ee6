"""Conservative parallel simulation runtime (Chandy–Misra-style windows).

The runtime executes a set of *shards* — independent simulation
universes declared by :class:`ShardSpec` — either sequentially in the
calling process (``workers=1``) or spread over OS worker processes
(``workers=N``, spawn-safe).  Shards interact only through declared
:class:`~repro.sim.parallel.boundary.BoundaryLink` edges, and execution
proceeds in global *adaptive* lookahead windows.

With ``L = min`` cross-shard link latency, any frame sent at local time
``t`` arrives no earlier than ``t + L``.  The classic fixed protocol
runs every shard in lockstep windows of width ``L``; that is safe but
wasteful when no cross-shard traffic is brewing.  Instead, each shard
reports at every barrier its **earliest next outbound-capable event
time** — the earliest instant at which anything that could cause a
cross-shard send can happen (see ``_ShardHost.next_outbound_time``).
The coordinator computes

    T = min(reported next-outbound times, pending frame arrivals)
    horizon = min(until, T + L)

and runs one window to the horizon.  Every send inside the window
happens at a time >= T, so every exported frame arrives at >= T + L,
i.e. at or after the next barrier — the protocol stays strictly
conservative while issuing windows far wider than ``L`` whenever the
boundary is quiet (during bursts ``T`` hugs the barrier and windows
fall back to width ``L``).  Because the horizon is a pure function of
shard state, ``workers=1`` and ``workers=N`` still execute identical
window sequences and produce bit-identical shard states.  Frames are
merged at barriers in the deterministic order
``(arrival_time, src_shard, seq)`` exactly as before.  A shard with no
links (a *closed* shard) reports no outbound-capable time and
free-runs to the horizon.

Shards are placed on workers once, before the run, by LPT over their
declared weights (:func:`~repro.sim.parallel.partition.assign_shards`).
A window's cross-shard frames are pickled **once** in the sending
worker, one blob per destination shard; the coordinator routes the
blob over the control pipes without opening it, and the receiving
worker unpickles it once.  Each barrier costs exactly one message pair
per worker: frame delivery rides the ``run`` dispatch, and a worker
whose window executed nothing acknowledges with a tiny constant
message.  The in-process executor (``workers=1``) hands frame lists
across by reference and never pickles.

Scenario contract
-----------------
``ShardSpec.builder`` names a spawn-safe factory (top-level function or
``"module:function"`` string)::

    def build(shard_id, params, boundary):
        ... create Engine/Network/topology ...
        boundary.attach(network)      # once local endpoints exist
        return program

The returned *program* must expose ``engine`` and ``results()``
(picklable), and may override ``run_window(until)`` (default: the
engine's) — e.g. to interleave oracle checks — plus an optional
``finalize()`` hook that runs after the horizon.  Builders of shards
*with* cross-shard links must not send cross-shard traffic while
building (do timed setup via scheduled events); closed shards may
advance freely during build (e.g. to converge a topology).

A program may additionally define ``next_outbound_time() -> float|None``
to narrow the adaptive-lookahead bound below "earliest pending event
anywhere" (the sound default).  The contract is strict: *every* event
that can transitively cause a cross-shard send must be at or after the
reported time.  The usual implementation tags the outbound-capable
subsystem with ``Engine.scoped`` and returns
``engine.next_event_time(scope)``; inbound frames must then be injected
under the same scope (``boundary.inject_scope``).  The runtime verifies
the contract at every barrier: a frame arriving inside the window that
produced it fails the run loudly instead of corrupting determinism.
"""

import importlib
import multiprocessing
import pickle
import time
import traceback

from repro.sim.engine import SimulationError
from repro.sim.parallel.boundary import ShardBoundary
from repro.sim.parallel.partition import assign_shards


class ShardSpec:
    """Picklable description of one shard."""

    def __init__(self, shard_id, builder, params=None, links=(), weight=1.0):
        self.shard_id = shard_id
        self.builder = builder
        self.params = dict(params or {})
        self.links = tuple(links)
        self.weight = weight

    def __repr__(self):
        return (
            f"<ShardSpec {self.shard_id!r} links={len(self.links)}"
            f" weight={self.weight}>"
        )


def _resolve_builder(builder):
    if callable(builder):
        return builder
    module_name, _, attr = builder.partition(":")
    if not attr:
        raise SimulationError(
            f"builder {builder!r} must be callable or 'module:function'"
        )
    return getattr(importlib.import_module(module_name), attr)


class _ShardHost:
    """One built shard living inside a worker (or the local process)."""

    def __init__(self, spec):
        self.spec = spec
        self.boundary = ShardBoundary(spec.shard_id, spec.links)
        self.program = _resolve_builder(spec.builder)(
            spec.shard_id, spec.params, self.boundary
        )
        self.engine = self.program.engine
        if self.spec.links and self.boundary.network is None:
            raise SimulationError(
                f"shard {spec.shard_id!r} declares links but its builder"
                " never called boundary.attach(network)"
            )
        self._run_window = getattr(self.program, "run_window", None)
        self._next_outbound = getattr(self.program, "next_outbound_time", None)
        self.busy = 0.0
        self.executed = 0

    def next_outbound_time(self):
        """Earliest instant at which this shard could emit a cross-shard
        frame — ``None`` when it never can (closed shard, or nothing
        queued).  Programs narrow the sound default (earliest pending
        event anywhere) by defining ``next_outbound_time()``."""
        if not self.spec.links:
            return None
        if self._next_outbound is not None:
            return self._next_outbound()
        return self.engine.next_event_time()

    def run_window(self, until, inbound):
        start = time.perf_counter()
        if inbound:
            self.boundary.inject(self.engine, inbound)
        if self._run_window is not None:
            executed = self._run_window(until)
        else:
            executed = self.engine.run_window(until)
        executed = executed or 0
        self.executed += executed
        elapsed = time.perf_counter() - start
        self.busy += elapsed
        return self.boundary.drain(), elapsed, executed

    def finalize(self):
        hook = getattr(self.program, "finalize", None)
        if hook is not None:
            hook()

    def results(self):
        return self.program.results()


def _build_shards(specs):
    return {spec.shard_id: _ShardHost(spec) for spec in specs}


# ----------------------------------------------------------------------
# worker protocol (shared by the in-process and spawned executors)
# ----------------------------------------------------------------------
#
#   -> ("run", w_end[, {shard_id: [blob, ...]}])  blobs optional
#   <- ("idle",)                 nothing ran, nothing changed
#   <- ("quiet", eots)           nothing ran, but injections moved eots
#   <- ("ran", outbound, eots, busy, executed, serialize_s)
#        outbound = {dst_shard: (count, min_arrival, blob)}
#   -> ("finish",)  <- ("results", {shard_id: results})
#   -> ("stop",)
#
# A *blob* is one window's frames for one destination shard, pickled
# once by the sending worker and routed unopened by the coordinator;
# in-process it is the frame list itself.


def _run_all(shards, w_end, inbound):
    """Run one window over every shard; collect outbound per dst shard.

    ``inbound`` maps shard_id to an already-decoded frame list.  Returns
    ``(outbound, eots, busy, executed)`` with ``outbound`` mapping
    dst shard to ``[frames, min_arrival]``.  Verifies the conservative
    invariant: every exported frame must arrive at or after the window
    end, else some shard's ``next_outbound_time()`` under-reported.
    """
    outbound = {}
    eots = {}
    busy = {}
    executed = 0
    for sid in sorted(shards):
        host = shards[sid]
        exports, elapsed, fired = host.run_window(w_end, inbound.get(sid, ()))
        eots[sid] = host.next_outbound_time()
        busy[sid] = elapsed
        executed += fired
        for dst, frames in exports.items():
            arrival = min(frame.arrival_time for frame in frames)
            if arrival < w_end:
                raise SimulationError(
                    f"shard {sid!r} exported a cross-shard frame arriving at"
                    f" {arrival:.6f}, inside its own window ending"
                    f" {w_end:.6f}: the shard's next_outbound_time()"
                    " under-reported the earliest outbound-capable event"
                    " (conservative adaptive lookahead violated)"
                )
            entry = outbound.get(dst)
            if entry is None:
                outbound[dst] = [list(frames), arrival]
            else:
                entry[0].extend(frames)
                if arrival < entry[1]:
                    entry[1] = arrival
    return outbound, eots, busy, executed


def _worker_main(conn, specs):
    """Entry point of a spawned worker: build shards, serve windows."""
    try:
        shards = _build_shards(specs)
        conn.send(("ready", {
            sid: (host.engine.now, host.next_outbound_time())
            for sid, host in shards.items()
        }))
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "run":
                w_end = message[1]
                serialize = 0.0
                inbound = {}
                if len(message) > 2:
                    start = time.perf_counter()
                    inbound = {
                        sid: [frame for blob in blobs
                              for frame in pickle.loads(blob)]
                        for sid, blobs in message[2].items()
                    }
                    serialize = time.perf_counter() - start
                outbound, eots, busy, executed = _run_all(
                    shards, w_end, inbound
                )
                if executed == 0 and not outbound:
                    # empty window: a run of quiet virtual time is
                    # acknowledged with one constant-size message
                    conn.send(("quiet", eots) if inbound else ("idle",))
                    continue
                start = time.perf_counter()
                encoded = {
                    dst: (len(frames), min_arrival,
                          pickle.dumps(frames, pickle.HIGHEST_PROTOCOL))
                    for dst, (frames, min_arrival) in outbound.items()
                }
                serialize += time.perf_counter() - start
                conn.send(("ran", encoded, eots, busy, executed, serialize))
            elif kind == "finish":
                for sid in sorted(shards):
                    shards[sid].finalize()
                conn.send(
                    ("results", {sid: shards[sid].results() for sid in shards})
                )
            elif kind == "stop":
                return
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


class _LocalWorker:
    """The workers=1 executor: same protocol, direct calls, no pickling.

    ``dispatch`` only stages the window; the shards run inside
    ``collect`` so the coordinator's timing split buckets in-process
    compute under barrier-wait, mirroring where the process executor's
    time is spent.  Blobs are the raw frame lists themselves.
    """

    def __init__(self, specs):
        self.shard_ids = sorted(spec.shard_id for spec in specs)
        self.shards = _build_shards(specs)
        self._staged = None

    def ready(self):
        return {
            sid: (host.engine.now, host.next_outbound_time())
            for sid, host in self.shards.items()
        }

    def dispatch(self, w_end, inbound):
        self._staged = (w_end, inbound)

    def collect(self):
        w_end, batches = self._staged
        self._staged = None
        inbound = {
            sid: [frame for batch in shard_batches for frame in batch]
            for sid, shard_batches in batches.items()
        }
        outbound, eots, busy, executed = _run_all(self.shards, w_end, inbound)
        if executed == 0 and not outbound:
            return ("quiet", eots) if inbound else ("idle",)
        encoded = {
            dst: (len(frames), min_arrival, frames)
            for dst, (frames, min_arrival) in outbound.items()
        }
        return ("ran", encoded, eots, busy, executed, 0.0)

    def send_finish(self):
        for sid in sorted(self.shards):
            self.shards[sid].finalize()
        self._staged = {
            sid: self.shards[sid].results() for sid in self.shards
        }

    def recv_finish(self):
        results, self._staged = self._staged, None
        return results

    def close(self):
        pass


class _ProcessWorker:
    """A spawned OS worker owning a subset of the shards."""

    def __init__(self, specs, context, join_timeout=10.0):
        self.shard_ids = sorted(spec.shard_id for spec in specs)
        self.join_timeout = join_timeout
        self.conn, child = multiprocessing.Pipe()
        self.process = context.Process(
            target=_worker_main, args=(child, specs), daemon=True,
        )
        try:
            self.process.start()
        except BaseException:
            self.conn.close()
            raise
        finally:
            child.close()

    def _recv(self, *expected):
        try:
            message = self.conn.recv()
        except (EOFError, ConnectionResetError, OSError):
            self.process.join(timeout=1)
            raise RuntimeError(
                "parallel worker died without reporting a traceback"
                f" (exit code {self.process.exitcode})"
            )
        if message[0] == "error":
            raise RuntimeError(
                f"parallel worker failed:\n{message[1]}"
            )
        if message[0] not in expected:
            raise RuntimeError(
                f"parallel worker protocol error: got {message[0]!r},"
                f" expected one of {expected!r}"
            )
        return message

    def ready(self):
        return self._recv("ready")[1]

    def dispatch(self, w_end, inbound):
        if inbound:
            self.conn.send(("run", w_end, inbound))
        else:
            self.conn.send(("run", w_end))

    def collect(self):
        return self._recv("idle", "quiet", "ran")

    def send_finish(self):
        self.conn.send(("finish",))

    def recv_finish(self):
        return self._recv("results")[1]

    def close(self):
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=self.join_timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=self.join_timeout)
        self.conn.close()


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------

class ParallelResult:
    """Outcome of one parallel (or sequential-sharded) run.

    Per-window bookkeeping is aggregated on the fly: ``busy`` holds
    per-shard compute totals, ``projections`` holds the critical-path
    wall per candidate worker count (accumulated window by window during
    the run), ``window_edges`` records only the barrier instants
    (floats, ``windows + 1`` of them including the start), and
    ``timing`` splits the coordinator's wall into compute, barrier-wait,
    dispatch and pickling seconds so regressions in the window protocol
    are attributable.  ``transport`` says whether frames stayed
    in-process and counts frames, batches and pickled bytes.
    """

    def __init__(self, specs, workers, lookahead, shard_results, windows,
                 window_edges, busy, executed, wall, projections, timing,
                 transport):
        self.specs = specs
        self.workers = workers
        self.lookahead = lookahead
        self.shard_results = shard_results
        self.windows = windows
        self.window_edges = window_edges  # [t0, barrier1, ..., horizon]
        self.busy = busy  # shard_id -> total seconds of compute
        self.executed = executed
        self.wall = wall
        self.projections = projections  # workers -> projected wall seconds
        self.timing = dict(timing)
        self.timing["compute_s"] = sum(busy.values())
        self.timing["wall_s"] = wall
        self.transport = transport

    def window_widths(self):
        """Virtual-time width of every window, in barrier order."""
        edges = self.window_edges
        return [edges[i + 1] - edges[i] for i in range(len(edges) - 1)]

    def wide_windows(self):
        """``(count, virtual_seconds)`` of adaptively widened windows —
        windows meaningfully wider than the static lookahead ``L``
        (busy-phase windows come out at ``L`` plus a serialization
        sliver, so the threshold is ``1.5 L``).  The virtual span they
        cover is the portion of the run the fixed protocol would have
        diced into ``span / L`` barriers."""
        if self.lookahead is None:
            return 0, 0.0
        threshold = self.lookahead * 1.5
        count, span = 0, 0.0
        for width in self.window_widths():
            if width > threshold:
                count += 1
                span += width
        return count, span

    def projected_wall(self, workers):
        """Ideal wall-clock for ``workers`` perfectly parallel workers.

        Per window, a worker's cost is the sum of its shards' measured
        compute; the window costs the slowest worker; barriers sum.
        Ignores IPC and OS scheduling — an upper bound on achievable
        speedup for this partition, computed from *measured* per-shard
        busy time; a diagnostic, never a result.  Accumulated during the
        run for powers of two up to the shard count, plus the shard
        count and the configured worker count.
        """
        try:
            return self.projections[workers]
        except KeyError:
            raise SimulationError(
                f"no projection for workers={workers} (have"
                f" {sorted(self.projections)})"
            ) from None


class ParallelRunner:
    """Partition, synchronize, and execute a set of shards.

    ``workers=1`` runs every shard in the calling process (the reference
    execution); ``workers=N`` spawns ``min(N, len(specs))`` OS processes
    via the spawn-safe multiprocessing context and distributes shards
    with LPT weight balancing.  Either way the windowed barrier protocol
    is identical — the adaptive horizon is a pure function of shard
    state — so per-shard results are bit-identical across worker counts.
    ``worker_join_timeout`` bounds how long ``close()`` waits for a
    worker before terminating it.
    """

    def __init__(self, specs, workers=1, worker_join_timeout=10.0):
        specs = list(specs)
        if not specs:
            raise SimulationError("no shards to run")
        ids = [spec.shard_id for spec in specs]
        if len(set(ids)) != len(ids):
            raise SimulationError(f"duplicate shard ids: {sorted(ids)}")
        known = set(ids)
        latencies = []
        for spec in specs:
            for link in spec.links:
                if link.remote_shard not in known:
                    raise SimulationError(
                        f"shard {spec.shard_id!r} links to unknown shard"
                        f" {link.remote_shard!r}"
                    )
                latencies.append(link.latency)
        self.specs = specs
        self.workers = max(1, int(workers))
        self.lookahead = min(latencies) if latencies else None
        self.worker_join_timeout = worker_join_timeout

    def _horizon(self, now, until, eots, pending_min):
        """The next conservative barrier.

        ``T = min`` over every shard's earliest outbound-capable event
        and every undelivered frame's arrival; nothing anywhere can send
        before ``T``, so nothing can *arrive* before ``T + L`` and every
        shard may safely run to ``min(until, T + L)``.  With no bound at
        all (closed shards, or a fully drained boundary) the horizon is
        the run's end.
        """
        if self.lookahead is None:
            horizon = until
        else:
            t = pending_min
            for eot in eots.values():
                if eot is not None and (t is None or eot < t):
                    t = eot
            if t is None:
                horizon = until
            else:
                if t < now:
                    # linked shards whose builders advanced their clocks
                    # apart violate the scenario contract; clamp so
                    # barriers stay monotonic rather than rewinding a
                    # shard into its past
                    t = now
                horizon = min(until, t + self.lookahead)
        return horizon

    def _projection_groups(self):
        """Shard-id groups per candidate worker count, for
        :meth:`ParallelResult.projected_wall`."""
        shards = len(self.specs)
        counts = {1, 2, 4, 8, 16, 32, self.workers, shards}
        return {
            count: [
                [spec.shard_id for spec in group]
                for group in assign_shards(self.specs, count)
            ]
            for count in sorted(c for c in counts if c <= shards)
        }

    def run(self, duration):
        """Execute all shards for ``duration`` virtual seconds past the
        latest build-time clock, and collect their results."""
        start_wall = time.perf_counter()
        in_process = self.workers == 1
        workers = []
        try:
            if in_process:
                workers.append(_LocalWorker(self.specs))
            else:
                context = multiprocessing.get_context("spawn")
                for group in assign_shards(self.specs, self.workers):
                    workers.append(_ProcessWorker(
                        group, context, self.worker_join_timeout
                    ))
            eots = {}
            t0 = 0.0
            for worker in workers:
                for sid, (clock, eot) in worker.ready().items():
                    eots[sid] = eot
                    t0 = max(t0, clock)
            until = t0 + duration
            now = t0
            pending = {}  # shard_id -> [blob, ...] (opaque, unopened)
            pending_min = None  # min arrival among pending frames
            windows = 0
            window_edges = [t0]
            busy = {}
            executed = 0
            transport = {
                "in_process": in_process,
                "frames": 0, "batches": 0, "bytes": 0,
            }
            timing = {
                "serialize_s": 0.0,
                "barrier_send_s": 0.0,
                "barrier_wait_s": 0.0,
            }
            proj_groups = self._projection_groups()
            projections = {count: 0.0 for count in proj_groups}
            while now < until:
                w_end = self._horizon(now, until, eots, pending_min)
                stamp = time.perf_counter()
                for worker in workers:
                    worker.dispatch(w_end, {
                        sid: pending.pop(sid)
                        for sid in worker.shard_ids if sid in pending
                    })
                timing["barrier_send_s"] += time.perf_counter() - stamp
                pending_min = None
                this_window = None
                stamp = time.perf_counter()
                for worker in workers:
                    reply = worker.collect()
                    kind = reply[0]
                    if kind == "idle":
                        continue
                    if kind == "quiet":
                        eots.update(reply[1])
                        continue
                    _kind, outbound, worker_eots, worker_busy, fired, \
                        serialize = reply
                    eots.update(worker_eots)
                    executed += fired
                    timing["serialize_s"] += serialize
                    for sid, seconds in worker_busy.items():
                        busy[sid] = busy.get(sid, 0.0) + seconds
                    if this_window is None:
                        this_window = dict(worker_busy)
                    else:
                        this_window.update(worker_busy)
                    for dst, (count, min_arrival, blob) in outbound.items():
                        pending.setdefault(dst, []).append(blob)
                        transport["frames"] += count
                        transport["batches"] += 1
                        if not in_process:
                            transport["bytes"] += len(blob)
                        if pending_min is None or min_arrival < pending_min:
                            pending_min = min_arrival
                timing["barrier_wait_s"] += time.perf_counter() - stamp
                if this_window:
                    for count, groups in proj_groups.items():
                        projections[count] += max(
                            sum(this_window.get(sid, 0.0) for sid in group)
                            for group in groups
                        )
                windows += 1
                window_edges.append(w_end)
                now = w_end
            shard_results = {}
            for worker in workers:
                worker.send_finish()
            for worker in workers:
                shard_results.update(worker.recv_finish())
        finally:
            for worker in workers:
                worker.close()
        wall = time.perf_counter() - start_wall
        return ParallelResult(
            self.specs, len(workers), self.lookahead, shard_results,
            windows, window_edges, busy, executed, wall, projections,
            timing, transport,
        )
