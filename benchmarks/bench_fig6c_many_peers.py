"""Figure 6(c): sending 100 updates each to 50-700 peering ASes.

Paper: "we observe similar performance for TENSOR, FRRouting, and BIRD,
whereas GoBGP costs at least 5x more time than the other implementations
... because the update packing is not implemented in GoBGP.  Moreover,
TENSOR outperforms BIRD when the number of peering ASes is greater than
600."
"""

import random

from conftest import PROFILES, PROFILE_LABELS, run_once
from repro.bgp import Path, PeerConfig, SpeakerConfig
from repro.bgp.speaker import BgpSpeaker
from repro.core.replication import ReplicationPipeline
from repro.core.tensor_process import TensorBgpSpeaker
from repro.kvstore import KvClient, KvServer
from repro.metrics import format_table
from repro.sim import Engine, Network
from repro.tcpsim import TcpStack
from repro.workloads.updates import RouteGenerator

PEER_COUNTS = (50, 100, 200, 300, 400, 500, 600, 700)
UPDATES_PER_PEER = 100


def fanout_time(profile, peer_count):
    engine = Engine()
    network = Network(engine)
    network.enable_fabric()
    gw_host = network.add_host("gw", "10.0.0.1")
    gw_stack = TcpStack(engine, gw_host)
    if profile == "tensor":
        db_host = network.add_host("db", "10.254.0.1")
        KvServer(engine, db_host)
        fast = KvClient(engine, gw_host, "10.254.0.1")
        bulk = KvClient(engine, gw_host, "10.254.0.1")
        gw = TensorBgpSpeaker(
            engine, gw_stack,
            SpeakerConfig("gw", 65001, "10.0.0.1", profile="tensor"),
            ReplicationPipeline("bench6c", fast, bulk), "bench6c",
        )
    else:
        gw = BgpSpeaker(
            engine, gw_stack, SpeakerConfig("gw", 65001, "10.0.0.1", profile=profile)
        )
    gw.add_vrf("v1")
    remotes = []
    for i in range(peer_count):
        addr = f"192.0.{i // 250}.{i % 250 + 1}"
        host = network.add_host(f"r{i}", addr)
        stack = TcpStack(engine, host)
        remote = BgpSpeaker(
            engine, stack, SpeakerConfig(f"r{i}", 64512 + i, addr, profile="frr")
        )
        remote.add_vrf("v1")
        remote.add_peer(PeerConfig("10.0.0.1", 65001, vrf_name="v1", mode="active"))
        gw.add_peer(PeerConfig(addr, 64512 + i, vrf_name="v1", mode="passive"))
        remotes.append(remote)
    gw.start()
    for remote in remotes:
        remote.start()
    engine.advance(10.0)
    established = gw.established_sessions()
    assert len(established) == peer_count

    gen = RouteGenerator(random.Random(5), 65001, next_hop="10.0.0.1")
    routes = []
    paths = {}  # id(attributes) -> the one Path its routes share
    for prefix, attributes in gen.uniform_routes(UPDATES_PER_PEER):
        path = paths.get(id(attributes))
        if path is None:
            path = paths[id(attributes)] = Path(attributes, gw.local_peer_id,
                                                "local")
        routes.append((prefix, path))
    target = peer_count * UPDATES_PER_PEER
    done_at = [None]
    original = gw._transmit

    def tracking_transmit(session, message, wire):
        original(session, message, wire)
        if gw.total_updates_sent >= target and done_at[0] is None:
            done_at[0] = engine.now

    gw._transmit = tracking_transmit
    start = engine.now
    gw.advertise_routes_to_sessions(routes, established)
    while done_at[0] is None:
        engine.advance(0.1)
        if engine.now - start > 600:
            raise TimeoutError("fan-out did not finish")
    return done_at[0] - start


def run_experiment():
    return {
        profile: [fanout_time(profile, n) for n in PEER_COUNTS]
        for profile in PROFILES
    }


def test_fig6c_many_peers(benchmark):
    results = run_once(benchmark, run_experiment)
    print()
    rows = [
        [PROFILE_LABELS[p]] + [f"{t:.3f}" for t in results[p]]
        for p in PROFILES
    ]
    print(format_table(
        ["implementation"] + [str(n) for n in PEER_COUNTS],
        rows,
        title=f"Fig 6(c): time (s) to send {UPDATES_PER_PEER} updates to"
              " each of N peers",
    ))
    idx = {n: i for i, n in enumerate(PEER_COUNTS)}
    # GoBGP >= 5x the other implementations at every point
    for n in PEER_COUNTS:
        others = max(results[p][idx[n]] for p in ("frr", "bird", "tensor"))
        assert results["gobgp"][idx[n]] >= 4.0 * others, (n, results)
        assert results["gobgp"][idx[n]] >= 5.0 * results["frr"][idx[n]]
    # BIRD beats TENSOR at small scale; TENSOR wins past ~600 peers
    assert results["bird"][idx[50]] < results["tensor"][idx[50]]
    assert results["tensor"][idx[700]] < results["bird"][idx[700]]
    # FRR fastest throughout
    for n in PEER_COUNTS:
        assert results["frr"][idx[n]] == min(results[p][idx[n]] for p in PROFILES)
