"""The packet path against the resolver it replaced.

``Network.transmit`` remembers what only a topology change can alter and
reads everything else per packet; :class:`tests.network_reference.
ReferenceNetwork` derives all of it per packet, the way the fabric used
to.  One seeded random script — sends interleaved with every topology
and failure lever — runs on both, op by op, and everything observable
must agree: the verdict of each send (or the ``SimulationError`` of a
reachable destination with no path), every tap and boundary-export call,
every arrival and its instant bit for bit, the number of draws taken from
the loss stream, and every counter on the network, its hosts and links.
"""

import random

import pytest

from repro.sim import DeterministicRandom, Engine, Network, Packet
from repro.sim.engine import SimulationError
from tests.network_reference import ReferenceNetwork

UNKNOWN = "8.8.8.8"
SERVICE = ("9.9.9.1", "9.9.9.2")
LEVERS = ("fail", "recover", "fail_network", "recover_network")


class _CountingStream:
    """The loss stream, counting the draws taken from it."""

    def __init__(self, stream):
        self.stream = stream
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.stream.random()


class World:
    """One network, the fixed starting topology and a record of all it did."""

    def __init__(self, network_cls):
        self.engine = Engine()
        self.net = network_cls(self.engine, DeterministicRandom(5))
        self.net.rng = _CountingStream(self.net.rng)
        self.arrivals, self.taps, self.exports = [], [], []
        self.net.tap(lambda packet, delivered:
                     self.taps.append((packet.payload, delivered)))
        self.hosts, self.links = [], []
        # four machines; the fabric starts disabled, so m0-m3 and m2-m3
        # have no path at all until a script turns it on
        self.machines = [self._host(f"m{i}", f"10.0.0.{i + 1}") for i in range(4)]
        m0, m1, m2, _m3 = self.machines
        self.links.append(self.net.connect(m0, m1, latency=1e-4, bandwidth=1e9))
        self.links.append(self.net.connect(m1, m2, latency=3e-4, bandwidth=1e7,
                                           loss=0.3))
        self._host("c0", "10.1.0.1", anchor=m0)
        self._host("c1", "10.1.0.2", anchor=m0)  # same anchor as c0
        c2 = self._host("c2", "10.1.0.3", anchor=m1)
        self._host("n0", "10.1.0.4", anchor=c2)  # a two-hop anchor chain
        self._host("c3", "10.1.0.5", anchor=m2)
        self._host("svc", SERVICE[0], anchor=m1)
        stub = self._host("x0", "172.16.0.1")  # an endpoint in another shard
        stub.boundary_export = lambda packet, arrival: self.exports.append(
            (packet.payload, arrival))
        self.links.append(self.net.connect(m0, stub, latency=2e-3, bandwidth=1e8))

    def _host(self, name, address, anchor=None, replace=False):
        host = self.net.add_host(name, address, anchor=anchor, replace=replace)
        host.bind("udp", 2000, lambda packet: self.arrivals.append(
            (name, packet.payload, self.engine.now)))
        self.hosts.append(host)
        return host

    def addresses(self):
        return sorted({host.address for host in self.hosts}) + [UNKNOWN, SERVICE[1]]

    def apply(self, op):
        kind, args = op[0], op[1:]
        if kind == "send":
            src, dst, size, ident = args
            host = self.hosts[src]
            try:
                return host.send(Packet(host.address, dst, "udp", 1000, 2000,
                                        ident, size))
            except SimulationError:
                return "no path"
        if kind == "advance":
            return self.engine.advance(args[0])
        if kind == "replace":
            address, machine, ident = args
            self._host(f"svc{ident}", address, anchor=self.machines[machine],
                       replace=True)
        elif kind == "remove":
            self.net.remove_host(self.hosts[args[0]])
        elif kind == "connect":
            a, b, latency, bandwidth, loss = args
            self.links.append(self.net.connect(
                self.machines[a], self.machines[b], latency=latency,
                bandwidth=bandwidth, loss=loss))
        elif kind == "fabric":
            self.net.enable_fabric(latency=args[0], bandwidth=args[1])
        elif kind == "link":
            getattr(self.links[args[0]], args[1])()
        elif kind in ("partition", "heal_partition"):
            getattr(self.net, kind)(self.machines[args[0]], self.machines[args[1]])
        elif kind == "lever":
            getattr(self.hosts[args[0]], args[1])()
        return None

    def state(self):
        net = self.net
        return {
            "now": self.engine.now,
            "network": (net.packets_sent, net.packets_dropped, net.rng.draws),
            "owners": {address: host.name for address, host in net.hosts.items()},
            "hosts": [(h.name, h.tx_packets, h.rx_packets, h.dropped_unbound)
                      for h in self.hosts],
            "links": [(link.packets_carried, link.bytes_carried,
                       sorted((name, tx.busy_until)
                              for name, tx in link._tx.items()))
                      for link in self.links],
            "fabric": sorted((name, tx.bandwidth, tx.busy_until)
                             for name, tx in net._fabric_tx.items()),
            "arrivals": self.arrivals,
            "taps": self.taps,
            "exports": self.exports,
        }


def script(seed, steps):
    """A random interleaving of sends with every lever.  Indices refer to
    ``World.hosts``/``links``/``machines``, which grow identically in both
    worlds, so one script drives both."""
    rng = random.Random(seed)
    shadow = World(Network)  # only to know which indices and addresses exist
    # most sends reuse a few flows, so a path resolved before a lever is
    # the path in use after it
    flows = [(rng.randrange(len(shadow.hosts)), rng.choice(shadow.addresses()))
             for _ in range(8)]
    for ident in range(steps):
        roll = rng.random()
        if roll < 0.55:
            src, dst = (rng.choice(flows) if rng.random() < 0.7 else
                        (rng.randrange(len(shadow.hosts)),
                         rng.choice(shadow.addresses())))
            op = ("send", src, dst, rng.choice((64, 256, 1500, 9000)), ident)
        elif roll < 0.67:
            op = ("advance", rng.choice((0.0, 1e-6, 1e-4, 2e-3, 0.05)))
        elif roll < 0.72:
            op = ("replace", rng.choice(SERVICE), rng.randrange(4), ident)
        elif roll < 0.74:
            op = ("remove", rng.randrange(len(shadow.hosts)))
        elif roll < 0.77:
            a, b = rng.sample(range(4), 2)
            op = ("connect", a, b, rng.choice((5e-5, 1e-3)),
                  rng.choice((1e6, 1e9)), rng.choice((0.0, 0.0, 0.4)))
        elif roll < 0.79:
            op = ("fabric", rng.choice((5e-5, 4e-4)), rng.choice((25e9, 1e7)))
        elif roll < 0.85:
            op = ("link", rng.randrange(len(shadow.links)),
                  rng.choice(("fail", "repair", "repair")))
        elif roll < 0.91:
            a, b = rng.sample(range(4), 2)
            op = (rng.choice(("partition", "heal_partition", "heal_partition")),
                  a, b)
        else:
            # mend a broken host as often as not, or the script ends dark
            broken = [(index, "recover" if not host.up else "recover_network")
                      for index, host in enumerate(shadow.hosts)
                      if not (host.up and host.network_up)]
            if broken and rng.random() < 0.6:
                op = ("lever",) + rng.choice(broken)
            else:
                op = ("lever", rng.randrange(len(shadow.hosts)),
                      rng.choice(LEVERS))
        shadow.apply(op)
        yield op


@pytest.mark.parametrize("seed", range(12))
def test_transmit_matches_the_reference_resolver(seed):
    new, old = World(Network), World(ReferenceNetwork)
    kinds = set()
    for op in script(seed, 600):
        kinds.add(op[0])
        assert new.apply(op) == old.apply(op), op
        assert new.state() == old.state(), op
    assert new.engine.run_until_idle() == old.engine.run_until_idle()
    assert new.state() == old.state()
    assert new.net.rng.stream.getstate() == old.net.rng.stream.getstate()
    # not vacuous: every kind of op, and plenty delivered and dropped
    state = new.state()
    assert len(kinds) == 10
    assert len(state["arrivals"]) > 40 and state["network"][1] > 40


@pytest.mark.parametrize("change", [
    ("connect", 0, 3, 1e-3, 1e6, 0.0),  # a link where the fabric carried it
    ("connect", 0, 1, 1e-3, 1e6, 0.4),  # a link replaced by a slower, lossy one
    ("fabric", 4e-4, 1e7),
    ("replace", SERVICE[0], 3, "moved"),
    ("replace", SERVICE[1], 0, "new"),  # an address nobody owned
    ("remove", 9),  # the service endpoint
    ("remove", 1),  # a machine with endpoints anchored to it
])
def test_topology_change_after_every_flow_has_resolved(change):
    new, old = World(Network), World(ReferenceNetwork)
    ident = 0
    for op in (("fabric", 5e-5, 25e9), None, change, None):
        for world in (new, old):
            if op is not None:
                world.apply(op)
                continue
            for src in range(len(world.hosts)):
                for dst in world.addresses():
                    world.apply(("send", src, dst, 1500, ident))
            world.apply(("advance", 1e-4))
        ident += 1
        assert new.state() == old.state(), op
    assert new.engine.run_until_idle() == old.engine.run_until_idle()
    assert new.state() == old.state()


def test_scripts_reach_every_verdict():
    """The scripts above are not vacuous: between them they raise on a
    pathless destination, deliver over a link, over the fabric and inside
    one machine, export across a shard boundary, lose a packet to the
    loss model and drop one at a stale owner of a moved address."""
    seen = set()
    for seed in range(12):
        world = World(Network)
        for op in script(seed, 600):
            if op[0] != "send":
                world.apply(op)
                continue
            src, dst = world.hosts[op[1]], world.net.host_by_address(op[2])
            draws, queues = world.net.rng.draws, len(world.net._fabric_tx)
            exports = len(world.exports)
            result = world.apply(op)
            if result == "no path":
                seen.add("no path")
            if not world.taps or world.taps[-1][0] != op[4]:
                continue  # the source was down: nothing reached the fabric
            delivered = world.taps[-1][1]
            if delivered and dst.anchor() is src.anchor():
                seen.add("local")
            elif delivered and len(world.exports) > exports:
                seen.add("export")
            elif delivered:
                seen.add("remote")
            if len(world.net._fabric_tx) > queues:
                seen.add("fabric")
            if world.net.rng.draws > draws and not delivered:
                seen.add("lost")
            if dst is None and op[2] in SERVICE:
                seen.add("released")
    assert seen == {"no path", "local", "export", "remote", "fabric", "lost",
                    "released"}
