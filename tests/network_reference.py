"""The per-packet path resolver ``Network.transmit`` replaced, kept as the
differential reference (``tests/test_network_differential.py``).

:class:`ReferenceNetwork` derives everything for every packet — the
destination lookup, three ``reachable()`` chain walks, two ``anchor()``
walks, the link lookup, the name-keyed transmit queue — exactly as the
fabric did before it remembered a flow's topology.  Only the registry
half (``add_host``/``remove_host``/``connect``) is inherited, so both
networks agree on who owns an address.
"""

from repro.sim.engine import SimulationError
from repro.sim.network import Host, Network, _TxQueue


def _enqueue(queue, now, size):
    """Return the instant the last bit of ``size`` bytes leaves the NIC."""
    tx_time = (size * 8.0) / queue.bandwidth
    start = max(now, queue.busy_until)
    queue.busy_until = start + tx_time
    return queue.busy_until


class ReferenceHost(Host):
    def send(self, packet):
        """Hand a packet to the fabric.  Returns False if we are down."""
        if not self.reachable():
            return False
        self.tx_packets += 1
        self.network.transmit(self, packet)
        return True

    def deliver(self, packet):
        if not self.reachable():
            return
        handler = self._ports.get((packet.protocol, packet.dport))
        if handler is None:
            handler = self._ports.get((packet.protocol, None))
        if handler is None:
            self.dropped_unbound += 1
            return
        self.rx_packets += 1
        handler(packet)


class ReferenceNetwork(Network):
    def add_host(self, name, address, anchor=None, replace=False):
        host = super().add_host(name, address, anchor=anchor, replace=replace)
        host.__class__ = ReferenceHost
        return host

    def transmit(self, src_host, packet):
        self.packets_sent += 1
        dst_host = self.hosts.get(packet.dst)
        delivered = True
        if dst_host is None or not dst_host.reachable():
            delivered = False
        else:
            delay = self._path_delay(src_host.anchor(), dst_host.anchor(), packet.size)
            if delay is None:
                delivered = False
        if delivered:
            export = dst_host.boundary_export
            if export is not None:
                export(packet, self.engine.now + delay)
            else:
                self.engine.schedule(delay, dst_host.deliver, packet)
        else:
            self.packets_dropped += 1
        for tap in self.taps:
            tap(packet, delivered)
        return delivered

    def _path_delay(self, src_anchor, dst_anchor, size):
        """Latency+serialization for the physical path, or None if down."""
        if src_anchor is dst_anchor:
            return self.LOCAL_LATENCY
        if (self._partitions
                and frozenset((src_anchor.name, dst_anchor.name)) in self._partitions):
            return None
        link = self.link_between(src_anchor, dst_anchor)
        now = self.engine.now
        if link is not None:
            if not link.up:
                return None
            link.packets_carried += 1
            link.bytes_carried += size
            done = _enqueue(link.tx_queue(src_anchor.name), now, size)
            return (done - now) + link.latency
        if self.fabric_latency is None:
            raise SimulationError(
                f"no path between {src_anchor.name} and {dst_anchor.name}"
                " (no link, fabric disabled)"
            )
        tx = self._fabric_tx.get(src_anchor.name)
        if tx is None:
            tx = _TxQueue(self.fabric_bandwidth)
            self._fabric_tx[src_anchor.name] = tx
        done = _enqueue(tx, now, size)
        return (done - now) + self.fabric_latency
