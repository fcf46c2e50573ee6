"""The data plane: traffic flows forwarded through FIB lookups.

A :class:`DataPlane` sits on one router and forwards each offered packet
by FIB lookup; a :class:`TrafficFlow` offers packets at a constant rate
toward a destination prefix and accounts delivered vs dropped bytes —
the quantity behind the paper's "a one-minute one-link downtime will
impact 277 GBs of live traffic".

Forwarding here is intentionally one hop deep (lookup -> next-hop
reachable?): the experiments compare *route availability* during
failures, which one hop captures exactly.
"""

from repro.sim.process import Process

#: A flow's accounting batch (s): one engine event per tick.
FLOW_TICK_INTERVAL = 0.01

#: The size of every packet a :class:`TrafficFlow` offers (bytes).
FLOW_PACKET_BYTES = 1000


class DataPlane:
    """Forwards packets by FIB lookup on one router."""

    def __init__(self, engine, network, fib):
        self.engine = engine
        self.network = network
        self.fib = fib
        self.forwarded_packets = 0
        self.dropped_no_route = 0
        self.dropped_next_hop_down = 0

    def forward(self, dst_address, size_bytes):
        """Offer one packet; returns True when it would be delivered."""
        entry = self.fib.lookup(dst_address)
        if entry is None:
            self.dropped_no_route += 1
            return False
        next_hop = self.network.host_by_address(entry.next_hop)
        if next_hop is None or not next_hop.reachable():
            self.dropped_next_hop_down += 1
            return False
        self.forwarded_packets += 1
        return True


class TrafficFlow:
    """A constant-rate flow offered to a data plane.

    ``rate_pps`` packets per second of ``FLOW_PACKET_BYTES`` each toward
    ``dst_address``.  Accounting happens in simulated batches (one tick
    per ``FLOW_TICK_INTERVAL``), which keeps event counts sane at high
    rates.
    """

    def __init__(self, engine, dataplane, dst_address, rate_pps):
        self.engine = engine
        self.dataplane = dataplane
        self.dst_address = dst_address
        self.rate_pps = rate_pps
        self.process = Process(engine, "flow")
        self.offered_packets = 0
        self.delivered_packets = 0
        self.lost_packets = 0
        self.loss_intervals = []  # (start, end) of consecutive-loss spans
        self._loss_started = None
        self._carry = 0.0

    def start(self):
        self.process.every(FLOW_TICK_INTERVAL, self._tick)

    def _tick(self):
        self._carry += self.rate_pps * FLOW_TICK_INTERVAL
        batch = int(self._carry)
        self._carry -= batch
        if batch <= 0:
            return
        # one representative lookup decides the whole tick's batch — the
        # FIB cannot change mid-tick in the simulation
        delivered = self.dataplane.forward(self.dst_address, FLOW_PACKET_BYTES)
        self.offered_packets += batch
        if delivered:
            # count the representative lookup once, then bulk-account
            self.dataplane.forwarded_packets += batch - 1
            self.delivered_packets += batch
            if self._loss_started is not None:
                self.loss_intervals.append((self._loss_started, self.engine.now))
                self._loss_started = None
        else:
            self.lost_packets += batch
            if self._loss_started is None:
                self._loss_started = self.engine.now

    def stop(self):
        if self._loss_started is not None:
            self.loss_intervals.append((self._loss_started, self.engine.now))
            self._loss_started = None
        self.process.kill()

    @property
    def lost_bytes(self):
        return self.lost_packets * FLOW_PACKET_BYTES

    def total_loss_time(self):
        closed = sum(end - start for start, end in self.loss_intervals)
        if self._loss_started is not None:
            closed += self.engine.now - self._loss_started
        return closed
