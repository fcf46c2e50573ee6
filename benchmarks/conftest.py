"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation (§4) and prints the same rows/series the paper reports, so
`pytest benchmarks/ --benchmark-only` doubles as the reproduction
harness.  Absolute numbers come from the calibrated simulation; the
*shapes* (who wins, by what factor, where crossovers fall) come from the
implemented mechanisms.
"""

import random
import sys

import pytest

sys.path.insert(0, __file__.rsplit("/", 2)[0] + "/tests")

from repro.bgp import PeerConfig, SpeakerConfig
from repro.bgp.speaker import BgpSpeaker
from repro.core.replication import ReplicationPipeline
from repro.core.tensor_process import TensorBgpSpeaker
from repro.kvstore import KvClient, KvServer
from repro.sim import DeterministicRandom, Engine, Network
from repro.tcpsim import TcpStack
from repro.workloads.updates import RouteGenerator


def pytest_addoption(parser):
    """``bench_hotpath.py``'s results file, taken as the script benches
    take theirs (``results_file.py``)."""
    group = parser.getgroup("bench results")
    group.addoption("--write", action="store_true",
                    help="rewrite the committed BENCH_hotpath.json")
    group.addoption("--out", default=None,
                    help="write BENCH_hotpath.json's results to this path")


def run_once(benchmark, fn):
    """Run a deterministic simulation experiment once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


class DaemonLab:
    """A two-router lab: one gateway (any profile incl. TENSOR), one peer.

    Used by the Fig. 6(a)/(b) benchmarks: the gateway runs the
    implementation under test; the peer always runs the FRR profile, as in
    the paper ("the other installs FRRouting to represent the peering AS").
    """

    def __init__(self, profile, seed=7):
        self.engine = Engine()
        self.network = Network(self.engine, DeterministicRandom(seed))
        self.network.enable_fabric(latency=5e-5)
        self.gw_host = self.network.add_host("gw", "10.0.0.1")
        self.peer_host = self.network.add_host("peer", "10.0.0.2")
        self.network.connect(self.gw_host, self.peer_host,
                             latency=100e-6, bandwidth=100e9)
        self.gw_stack = TcpStack(self.engine, self.gw_host)
        self.peer_stack = TcpStack(self.engine, self.peer_host)
        self.profile = profile
        if profile == "tensor":
            db_host = self.network.add_host("db", "10.0.0.3")
            self.db = KvServer(self.engine, db_host)
            fast = KvClient(self.engine, self.gw_host, "10.0.0.3")
            bulk = KvClient(self.engine, self.gw_host, "10.0.0.3")
            pipeline = ReplicationPipeline("bench", fast, bulk)
            self.gw = TensorBgpSpeaker(
                self.engine, self.gw_stack,
                SpeakerConfig("gw", 65001, "10.0.0.1", profile="tensor"),
                pipeline, "bench",
            )
        else:
            self.db = None
            self.gw = BgpSpeaker(
                self.engine, self.gw_stack,
                SpeakerConfig("gw", 65001, "10.0.0.1", profile=profile),
            )
        self.peer = BgpSpeaker(
            self.engine, self.peer_stack,
            SpeakerConfig("peer", 64512, "10.0.0.2", profile="frr"),
        )
        self.gw.add_vrf("v1")
        self.peer.add_vrf("v1")
        self.gw.add_peer(PeerConfig("10.0.0.2", 64512, vrf_name="v1", mode="passive"))
        self.peer_session = self.peer.add_peer(
            PeerConfig("10.0.0.1", 65001, vrf_name="v1", mode="active")
        )
        self.gw.start()
        self.peer.start()
        self.engine.advance(5.0)
        assert self.peer_session.established

    def receive_time(self, count):
        """Seconds for the gateway to receive+apply ``count`` updates."""
        gen = RouteGenerator(random.Random(1), 64512, next_hop="10.0.0.2")
        self.peer.originate_many("v1", gen.routes(count))
        start = self.engine.now
        self.peer.readvertise(self.peer_session)
        self._run_until(lambda: self.gw.total_updates_received >= count)
        return self.gw.last_apply_time - start

    def send_time(self, count):
        """Seconds to generate+send ``count`` updates to the peer."""
        gen = RouteGenerator(random.Random(2), 65001, next_hop="10.0.0.1")
        self.gw.originate_many("v1", gen.routes(count))
        gw_session = next(iter(self.gw.sessions.values()))
        start = self.engine.now
        sent_done = [None]

        original = self.gw._transmit

        def tracking_transmit(session, message, wire):
            original(session, message, wire)
            if self.gw.total_updates_sent >= count and sent_done[0] is None:
                sent_done[0] = self.engine.now

        self.gw._transmit = tracking_transmit
        self.gw.readvertise(gw_session)
        self._run_until(lambda: sent_done[0] is not None)
        return sent_done[0] - start

    def _run_until(self, predicate, step=0.05, limit=600.0):
        deadline = self.engine.now + limit
        while not predicate():
            if self.engine.now > deadline:
                raise TimeoutError("benchmark did not converge")
            self.engine.advance(step)


PROFILES = ("tensor", "frr", "gobgp", "bird")
PROFILE_LABELS = {
    "tensor": "TENSOR",
    "frr": "FRRouting",
    "gobgp": "GoBGP",
    "bird": "BIRD",
}
