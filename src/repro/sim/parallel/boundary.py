"""Shard-boundary link adapters and cross-shard mailboxes.

A shard is an independent simulation universe (its own ``Engine`` and
``Network``).  The only way state crosses between shards is a declared
:class:`BoundaryLink`: a point-to-point edge whose far endpoint lives in
another shard.  Inside the local network the far endpoint is represented
by a *stub host* carrying the remote address; the fabric routes packets
to the stub exactly like any local host (link up/down, bandwidth
serialization and queueing are all computed in the sending shard), but
instead of local delivery the stub's ``boundary_export`` hook captures
``(arrival_time, packet)`` into a per-destination-shard mailbox.

The mailboxes are drained at window barriers by the parallel runtime and
re-injected into the destination shard's engine in the deterministic
merge order ``(arrival_time, src_shard, seq)`` — see
:mod:`repro.sim.parallel.runtime` for the lookahead argument that makes
this conservative (no shard ever receives a frame in its past).

Payloads cross OS process boundaries, so they must be picklable.  All
wire objects in this repository (TCP segments, BFD control packets, RPC
frames, BGP bytes) are plain data and qualify.
"""

from collections import namedtuple

from repro.sim.engine import SimulationError

#: One exported packet.  ``seq`` is the per-source-shard export sequence
#: number; the triple ``(arrival_time, src_shard, seq)`` is the total
#: merge order at the destination.
CrossShardFrame = namedtuple(
    "CrossShardFrame", ("dst_shard", "arrival_time", "src_shard", "seq", "packet")
)

MERGE_KEY = lambda frame: (frame.arrival_time, frame.src_shard, frame.seq)  # noqa: E731

#: The bandwidth of every cross-shard edge (a WAN link, bit/s).
BOUNDARY_BANDWIDTH = 10e9


class BoundaryLink:
    """A declared cross-shard edge (picklable, part of a ShardSpec).

    ``local_addr`` must exist in this shard's network by the time the
    boundary is attached; ``remote_addr`` lives in ``remote_shard``.
    ``latency`` is the physical one-way latency of the edge and is the
    quantity the conservative lookahead is derived from — every frame
    sent at local time ``t`` arrives no earlier than ``t + latency``.
    """

    __slots__ = ("local_addr", "remote_addr", "remote_shard", "latency")

    def __init__(self, local_addr, remote_addr, remote_shard, latency):
        if latency <= 0:
            raise SimulationError(
                f"cross-shard link needs positive latency (got {latency})"
            )
        self.local_addr = local_addr
        self.remote_addr = remote_addr
        self.remote_shard = remote_shard
        self.latency = latency

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)

    def __repr__(self):
        return (
            f"<BoundaryLink {self.local_addr}<->{self.remote_addr}"
            f"@shard:{self.remote_shard} {self.latency * 1e3:.1f}ms>"
        )


class ShardBoundary:
    """The adapter set for one shard: stub hosts, outboxes, injection.

    Built by the runtime from a shard's declared links and handed to the
    scenario builder, which must call :meth:`attach` once its local
    endpoints exist.  The runtime then uses :meth:`drain` after each
    window and :meth:`inject` before the next.
    """

    def __init__(self, shard_id, links=()):
        self.shard_id = shard_id
        self.links = list(links)
        self.network = None
        self._outbox = {}  # dst_shard -> [CrossShardFrame]
        self._seq = 0
        #: Event scope (see ``Engine.scoped``) applied to injected frames.
        #: A program that narrows its ``next_outbound_time()`` to a scope
        #: must set this to the same token, so the causal closure of
        #: inbound cross-shard traffic stays inside the scope and the
        #: adaptive-lookahead safety argument holds (DESIGN.md §11).
        self.inject_scope = None

    # -- scenario-side wiring ------------------------------------------

    def attach(self, network):
        """Materialize stub hosts + physical edges in ``network``.

        Call after the local endpoints named by the links exist.  Safe
        with zero links (closed shard): does nothing.
        """
        self.network = network
        for link in self.links:
            local = network.host_by_address(link.local_addr)
            if local is None:
                raise SimulationError(
                    f"shard {self.shard_id!r}: boundary link's local address"
                    f" {link.local_addr} not found in the shard network"
                )
            stub = network.host_by_address(link.remote_addr)
            if stub is None:
                stub = network.add_host(
                    f"xshard:{link.remote_addr}", link.remote_addr
                )
                stub.boundary_export = self._exporter(link.remote_shard)
            elif stub.boundary_export is None:
                raise SimulationError(
                    f"shard {self.shard_id!r}: {link.remote_addr} exists locally"
                    " and cannot also be a cross-shard stub"
                )
            anchor = local.anchor()
            if network.link_between(anchor, stub) is None:
                network.connect(
                    anchor, stub, latency=link.latency,
                    bandwidth=BOUNDARY_BANDWIDTH,
                )

    def _exporter(self, dst_shard):
        def export(packet, arrival_time):
            self._seq += 1
            self._outbox.setdefault(dst_shard, []).append(
                CrossShardFrame(
                    dst_shard, arrival_time, self.shard_id, self._seq, packet
                )
            )

        return export

    # -- runtime-side barrier protocol ---------------------------------

    def drain(self):
        """Take (and clear) the mailboxes: {dst_shard: [frames]}."""
        out = self._outbox
        self._outbox = {}
        return out

    def inject(self, engine, frames):
        """Merge inbound frames into the engine, deterministically.

        Frames are sorted by ``(arrival_time, src_shard, seq)`` and
        injected in that order, so the engine sequence numbers they get
        — and hence their interleaving with same-instant local events —
        are independent of worker placement and arrival batching.
        """
        if self.inject_scope is not None:
            with engine.scoped(self.inject_scope):
                for frame in sorted(frames, key=MERGE_KEY):
                    engine.inject(frame.arrival_time, self._deliver, frame.packet)
            return
        for frame in sorted(frames, key=MERGE_KEY):
            engine.inject(frame.arrival_time, self._deliver, frame.packet)

    def _deliver(self, packet):
        host = self.network.host_by_address(packet.dst)
        if host is None or host.boundary_export is not None:
            # destination vanished (or is itself a stub — misrouted):
            # drop silently, like the fabric does for unknown addresses
            self.network.packets_dropped += 1
            return
        host.deliver(packet)
