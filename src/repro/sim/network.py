"""Simulated network fabric: hosts, links, packet delivery.

The model is a small datacenter: physical hosts connected either by
dedicated point-to-point links (used for the peering-AS side, where the
paper's testbed has a 100 Gbps Ethernet) or through a non-blocking fabric
(used for the intra-cluster traffic between gateway servers, the agent and
the KV store).  Containers appear as :class:`Host` endpoints anchored to a
physical host; their reachability depends on the whole chain being up,
which is what lets the failure scenarios E2–E5 of the paper be expressed
naturally (kill a container, a machine, a virtual NIC or a physical NIC).

Bandwidth is modelled with per-direction transmit queues (a serialization
delay plus queueing behind earlier packets), which is what produces real
throughput caps in the Fig. 5(a) reproduction rather than a hand-wave.
"""

from repro.sim.calibration import CLUSTER_FABRIC_BANDWIDTH, CLUSTER_FABRIC_LATENCY
from repro.sim.engine import SimulationError


class Packet:
    """A network packet.

    ``payload`` is an arbitrary object (TCP segments, BFD control packets,
    RPC frames).  ``size`` is the on-wire size in bytes and must account
    for headers; the payload object is never serialized by the fabric.
    """

    __slots__ = ("src", "dst", "protocol", "sport", "dport", "payload", "size")

    def __init__(self, src, dst, protocol, sport, dport, payload, size):
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.sport = sport
        self.dport = dport
        self.payload = payload
        self.size = size

    def __repr__(self):
        return (
            f"<Packet {self.protocol} {self.src}:{self.sport}->"
            f"{self.dst}:{self.dport} {self.size}B>"
        )


class _TxQueue:
    """One direction of a transmission pipe: ``busy_until`` is when the
    last bit queued so far leaves the NIC (see ``Network._path_delay``)."""

    __slots__ = ("bandwidth", "busy_until")

    def __init__(self, bandwidth):
        self.bandwidth = bandwidth
        self.busy_until = 0.0


class _Path:
    """The topology half of one flow, resolved once (see ``transmit``).

    ``deliver`` is the destination endpoint's bound ``deliver``, so a
    packet schedules it without binding a method of its own.  ``hops``
    is the destination endpoint's anchor chain, endpoint first;
    ``src_name`` names the source's physical host.  ``partition_key`` is
    None when both ends sit on one physical host; otherwise the flow
    crosses ``link``, or the fabric when there is no link, or nothing at
    all (``latency`` None: no link, fabric disabled).  A fabric flow
    takes its ``tx`` queue when its first packet needs one.
    """

    __slots__ = ("endpoint", "deliver", "hops", "src_name", "partition_key",
                 "link", "tx", "latency")

    def __init__(self, endpoint, hops, src_name, partition_key, link, tx,
                 latency):
        self.endpoint = endpoint
        self.deliver = endpoint.deliver
        self.hops = hops
        self.src_name = src_name
        self.partition_key = partition_key
        self.link = link
        self.tx = tx
        self.latency = latency


class Link:
    """A bidirectional point-to-point link between two physical hosts."""

    def __init__(self, a, b, latency, bandwidth):
        self.a = a
        self.b = b
        self.latency = latency
        self.bandwidth = bandwidth
        self.up = True
        self._tx = {a.name: _TxQueue(bandwidth), b.name: _TxQueue(bandwidth)}
        self.packets_carried = 0
        self.bytes_carried = 0

    def tx_queue(self, from_host_name):
        return self._tx[from_host_name]

    def fail(self):
        """Cut the link (paper failure class: link to the peering AS)."""
        self.up = False

    def __repr__(self):
        state = "up" if self.up else "DOWN"
        return f"<Link {self.a.name}<->{self.b.name} {state}>"


class Host:
    """A network endpoint: a physical machine or a container namespace.

    A container endpoint passes ``anchor=<physical host>``; its packets
    traverse the physical host's connectivity.  ``up`` models the machine
    or container being alive; ``network_up`` models its (virtual) NIC.
    """

    def __init__(self, network, name, address, anchor=None):
        self.network = network
        self.name = name
        self.address = address
        self.anchor_host = anchor
        self.up = True
        self.network_up = True
        self._ports = {}
        self.rx_packets = 0
        self.tx_packets = 0
        self.dropped_unbound = 0
        # Shard-boundary adapter hook: when set (by
        # repro.sim.parallel.boundary), this host is a *stub* for an
        # endpoint living in another shard, and packets routed to it are
        # exported as ``boundary_export(packet, arrival_time)`` instead
        # of being delivered locally.  The path delay (link latency +
        # serialization + queueing) is still computed here, in the
        # sending shard, so bandwidth modelling stays deterministic.
        self.boundary_export = None

    # -- port table ---------------------------------------------------------

    def bind(self, protocol, port, handler):
        """Register ``handler(packet)`` for (protocol, port)."""
        key = (protocol, port)
        if key in self._ports:
            raise SimulationError(f"{self.name}: port {key} already bound")
        self._ports[key] = handler

    def unbind(self, protocol, port):
        self._ports.pop((protocol, port), None)

    # -- reachability -------------------------------------------------------

    def anchor(self):
        """The physical host whose NIC carries this endpoint's traffic."""
        host = self
        while host.anchor_host is not None:
            host = host.anchor_host
        return host

    def reachable(self):
        """True when the endpoint and every hop down to the NIC are up."""
        host = self
        while host is not None:
            if not host.up or not host.network_up:
                return False
            host = host.anchor_host
        return True

    # -- failure levers (used by repro.failures) ----------------------------

    def fail(self):
        """Machine/container death: also silently drops anchored endpoints."""
        self.up = False

    def recover(self):
        self.up = True

    def fail_network(self):
        """NIC failure (paper E4 for containers, E5 for host machines)."""
        self.network_up = False

    def recover_network(self):
        self.network_up = True

    # -- I/O ----------------------------------------------------------------

    def send(self, packet):
        """Hand a packet to the fabric.  Returns False if we are down."""
        host = self
        while host is not None:  # reachable(), walked in place
            if not host.up or not host.network_up:
                return False
            host = host.anchor_host
        self.tx_packets += 1
        self.network.transmit(self, packet)
        return True

    def deliver(self, packet):
        host = self
        while host is not None:
            if not host.up or not host.network_up:
                return
            host = host.anchor_host
        handler = self._ports.get((packet.protocol, packet.dport))
        if handler is None:
            # a protocol-wide wildcard (port None) models a whole stack
            # owning the protocol, e.g. TCP answering closed ports with RST
            handler = self._ports.get((packet.protocol, None))
        if handler is None:
            self.dropped_unbound += 1
            return
        self.rx_packets += 1
        handler(packet)

    def __repr__(self):
        return f"<Host {self.name!r} {self.address} up={self.up}>"


class Network:
    """The fabric: host registry, links, and the delivery scheduler."""

    #: latency for two endpoints anchored on the same physical host
    #: (veth/bridge hop — effectively a memory copy).
    LOCAL_LATENCY = 5e-6

    def __init__(self, engine):
        self.engine = engine
        self.hosts = {}
        self._links = {}
        self.fabric_latency = None
        self.fabric_bandwidth = None
        self._fabric_tx = {}
        #: administratively partitioned physical-host pairs (chaos lever)
        self._partitions = set()
        #: source Host -> {destination address: _Path}; holds topology
        #: only, and every method that changes topology empties it
        self._paths = {}
        self.packets_sent = 0
        self.packets_dropped = 0
        self.taps = []

    # -- topology -----------------------------------------------------------

    def add_host(self, name, address, anchor=None, replace=False):
        """Create and register a host (or container endpoint).

        ``replace=True`` rebinds an existing address to the new endpoint —
        the underlay uses this when a service address moves to the backup
        container during NSR migration.
        """
        if address in self.hosts and not replace:
            raise SimulationError(f"duplicate address {address}")
        host = Host(self, name, address, anchor=anchor)
        self.hosts[address] = host
        self._paths.clear()
        return host

    def remove_host(self, host):
        """Stop ``host`` answering for its address — the only way an
        address leaves the registry.  A host whose address has since
        moved to another endpoint (a migrated service address) is not
        registered any more: removing it leaves the new owner answering.
        """
        if self.hosts.get(host.address) is host:
            del self.hosts[host.address]
            self._paths.clear()

    def host_by_address(self, address):
        return self.hosts.get(address)

    def connect(self, a, b, latency=100e-6, bandwidth=100e9):
        """Create a dedicated point-to-point link between physical hosts."""
        key = frozenset((a.name, b.name))
        link = Link(a, b, latency, bandwidth)
        self._links[key] = link
        self._paths.clear()
        return link

    def link_between(self, a, b):
        return self._links.get(frozenset((a.name, b.name)))

    def partition(self, a, b):
        """Drop all traffic between two physical hosts (both directions)."""
        self._partitions.add(frozenset((a.name, b.name)))

    def heal_partition(self, a, b):
        self._partitions.discard(frozenset((a.name, b.name)))

    def enable_fabric(self):
        """Enable the non-blocking switch fallback between physical hosts
        (the cluster fabric of :mod:`repro.sim.calibration`)."""
        self.fabric_latency = CLUSTER_FABRIC_LATENCY
        self.fabric_bandwidth = CLUSTER_FABRIC_BANDWIDTH
        self._paths.clear()

    def tap(self, fn):
        """Register ``fn(packet, delivered)`` observing every transmit."""
        self.taps.append(fn)

    # -- delivery -----------------------------------------------------------

    def transmit(self, src_host, packet):
        """Schedule delivery of ``packet`` from ``src_host``.

        Drops silently (like a real network) when the destination is
        unknown/unreachable or the path is down.

        What only a topology change can alter — which endpoint owns the
        destination address, its anchor chain, the link or fabric between
        the two physical hosts, the transmit queue and the latency — is
        resolved on a flow's first packet and kept until ``add_host``,
        ``remove_host``, ``connect`` or ``enable_fabric`` runs.  State is
        never kept: ``up``/``network_up`` of every hop, ``link.up``, the
        partition set and the queue's backlog are read for
        each packet, so no failure lever has to announce itself.
        """
        self.packets_sent += 1
        flows = self._paths.get(src_host)
        path = flows.get(packet.dst) if flows is not None else None
        if path is None:
            path = self._resolve(src_host, packet.dst)
        delay = None
        if path is not None:
            for hop in path.hops:
                if not hop.up or not hop.network_up:
                    break
            else:
                delay = self._path_delay(path, packet.size)
        delivered = delay is not None
        if delivered:
            export = path.endpoint.boundary_export
            if export is not None:
                export(packet, self.engine.now + delay)
            else:
                self.engine.schedule(delay, path.deliver, packet)
        else:
            self.packets_dropped += 1
        for tap in self.taps:
            tap(packet, delivered)
        return delivered

    def _resolve(self, src_host, address):
        """Build and remember the path from ``src_host`` to ``address``
        (None, and nothing remembered, when no host owns the address)."""
        endpoint = self.hosts.get(address)
        if endpoint is None:
            return None
        hops = [endpoint]
        while hops[-1].anchor_host is not None:
            hops.append(hops[-1].anchor_host)
        src_anchor, dst_anchor = src_host.anchor(), hops[-1]
        key = link = tx = None
        latency = self.LOCAL_LATENCY
        if src_anchor is not dst_anchor:
            key = frozenset((src_anchor.name, dst_anchor.name))
            link = self._links.get(key)
            if link is not None:
                tx, latency = link.tx_queue(src_anchor.name), link.latency
            else:
                latency = self.fabric_latency
        path = _Path(endpoint, tuple(hops), src_anchor.name, key, link, tx,
                     latency)
        self._paths.setdefault(src_host, {})[address] = path
        return path

    def _path_delay(self, path, size):
        """Latency+serialization for one packet, or None if down."""
        key = path.partition_key
        if key is None:
            return path.latency
        # fast path: the set is empty except while a chaos partition is
        # active
        if self._partitions and key in self._partitions:
            return None
        link, tx = path.link, path.tx
        if link is not None:
            if not link.up:
                return None
            link.packets_carried += 1
            link.bytes_carried += size
        elif path.latency is None:
            raise SimulationError(
                f"no path between {path.src_name} and {path.hops[-1].name}"
                " (no link, fabric disabled)"
            )
        elif tx is None:
            tx = self._fabric_tx.get(path.src_name)
            if tx is None:
                tx = _TxQueue(self.fabric_bandwidth)
                self._fabric_tx[path.src_name] = tx
            path.tx = tx
        # serialization behind whatever the queue already holds
        now = self.engine.now
        busy = tx.busy_until
        done = tx.busy_until = (
            (busy if busy > now else now) + (size * 8.0) / tx.bandwidth)
        return (done - now) + path.latency

    def __repr__(self):
        return f"<Network hosts={len(self.hosts)} links={len(self._links)}>"
