"""The monitoring plane, bit for bit (DESIGN.md §8).

gRPC heartbeats, IP SLA probes and BFD keepalives are most of the
packets a chaos run carries.  A host-side optimisation of that path must
leave every packet where it was: same instant, same ports, same size,
same fate.  Two corpus seeds — one under controller-plane chaos (the
3-replica panel), one with a KV-primary failover — are run with three
recorders installed before the system is built, and each record is
hashed against a golden:

- every ``Network.transmit``, read through a tap, as
  ``(now, protocol, src, sport, dst, dport, size, delivered)``;
- each ``RpcClient``'s ``(replies, timeouts, refusals)`` at the end,
  in creation order;
- each ``GrpcChannel`` health transition and each IP SLA reachability
  transition, with its instant.

A health reply with one more top-level key (``"up": True``, 88 B ->
98 B) moves the transmit hash on both seeds.
"""

import hashlib

import pytest

from repro.control.channels import GrpcChannel
from repro.control.ipsla import IpSlaProber
from repro.failures.harness import run_scenario
from repro.failures.schedule import generate_schedule
from repro.sim.network import Network
from repro.sim.rpc import RpcClient

#: seed -> (flavour, transmits, client counters, transitions), taken
#: from the code before the monitoring plane's per-packet rewrite.
GOLDENS = {
    14: ("controller_chaos",
         "aedc8bbe2489f60afe0085119645b1760529ada3b847736c3ff7da74557fbe19",
         "37202ea729a0cd769821cabb293039b1dd6fa09597b5f259f960f86604febf45",
         "6efc6e779dbc6e8dbe63034e6b8de978fd4111ddfcc6af3dd27a64c89f91c210"),
    11: ("db_failover",
         "de3b4925efb59c7123143af939c69f492e33fa7bd8d6d3965dd8a19281b440c7",
         "274aa402b75a419d5ec13a1440c9df42bc11e3cfa2032e36d822d27f37168995",
         "7d4d700a7d283e06a369003a5ddee66be8bbebb4598da27c961b6a9841945141"),
}


class Recorder:
    """Hashes what the monitoring plane does, from the first packet on."""

    def __init__(self, monkeypatch):
        self.transmits = hashlib.sha256()
        self.packets = 0
        self.clients = []
        self.transitions = []
        recorder = self

        network_init = Network.__init__

        def init_network(network, engine):
            network_init(network, engine)
            network.tap(lambda packet, delivered: recorder._transmit(
                engine.now, packet, delivered))

        client_init = RpcClient.__init__

        def init_client(client, *args, **kwargs):
            client_init(client, *args, **kwargs)
            recorder.clients.append(client)

        def channel_edge(method):
            def observed(channel, *args):
                before = channel.healthy
                method(channel, *args)
                if channel.healthy != before:
                    recorder.transitions.append(
                        (channel.engine.now, "grpc", channel.target_name,
                         channel.healthy))
            return observed

        mark = IpSlaProber._mark

        def observed_mark(prober, target_name, reachable):
            before = prober.reachable(target_name)
            mark(prober, target_name, reachable)
            after = prober.reachable(target_name)
            if after != before:
                recorder.transitions.append(
                    (prober.engine.now, "ipsla", prober.name, target_name,
                     after))

        monkeypatch.setattr(Network, "__init__", init_network)
        monkeypatch.setattr(RpcClient, "__init__", init_client)
        monkeypatch.setattr(GrpcChannel, "_on_reply",
                            channel_edge(GrpcChannel._on_reply))
        monkeypatch.setattr(GrpcChannel, "_on_miss",
                            channel_edge(GrpcChannel._on_miss))
        monkeypatch.setattr(IpSlaProber, "_mark", observed_mark)

    def _transmit(self, now, packet, delivered):
        self.packets += 1
        self.transmits.update(repr((
            now, packet.protocol, packet.src, packet.sport, packet.dst,
            packet.dport, packet.size, delivered)).encode())

    def digests(self):
        counters = [(c.replies, c.timeouts, c.refusals) for c in self.clients]
        return (
            self.transmits.hexdigest(),
            hashlib.sha256(repr(counters).encode()).hexdigest(),
            hashlib.sha256(repr(self.transitions).encode()).hexdigest(),
        )


@pytest.mark.parametrize("seed", sorted(GOLDENS))
def test_monitoring_plane_is_bit_identical(seed, monkeypatch):
    flavour, *golden = GOLDENS[seed]
    recorder = Recorder(monkeypatch)
    result = run_scenario(generate_schedule(seed, **{flavour: True}))
    assert result.completed
    assert recorder.packets and recorder.clients and recorder.transitions
    assert list(recorder.digests()) == golden
