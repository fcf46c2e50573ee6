"""Ablations: the design choices §3 argues for, measured.

1. **Delayed ACK off** (§3.1.1): releasing ACKs before replication
   commits loses routes across a crash; holding them loses nothing.
2. **BFD relay off** (§3.3.2): without the agent's duplicate BFD
   transmitters the remote peer sees the link flap during migration.
3. **Split vs monolithic BGP** (§3.2.1/§4.2): receiving 10K updates from
   each of 50 ASes takes ~5s+ in one process but sub-second per split
   container ("thanks to the containerized approach which naturally
   enables parallelism").
4. **Containerized boot** (§3.2.1): configuration loading drops from
   ~20 minutes (monolithic, ~100K configs) to ~20 seconds per container.
"""

import random

from conftest import run_once
from repro.bgp import PeerConfig, SpeakerConfig
from repro.bgp.speaker import BgpSpeaker
from repro.containers import HostMachine
from repro.config import build_system, lab_spec
from repro.core.replication import ReplicationPipeline
from repro.core.tensor_process import TensorBgpSpeaker
from repro.failures import FailureInjector
from repro.kvstore import KvClient, KvServer
from repro.metrics import format_table
from repro.sim import Engine, Network
from repro.tcpsim import TcpStack
from repro.workloads.updates import RouteGenerator


# -- ablation 1: delayed ACK ---------------------------------------------------


def _crash_with_lagging_db(hold_acks):
    system, pairs, remotes = build_system(
        {**lab_spec(500), "hold_acks": hold_acks})
    system.engine.advance(10.0)
    pair, remote = pairs["pair0"], remotes["remote0"]
    session = remote.sessions[0]
    gen = RouteGenerator(random.Random(13), 64512, next_hop="192.0.2.1")
    remote.speaker.originate_many("v0", gen.routes(800))
    system.db.fail()  # replication lags behind acknowledgment
    remote.speaker.readvertise(session)
    system.engine.advance(2.0)
    injector = FailureInjector(system)
    injector.inject("container", pair, {})
    system.db.recover()
    system.engine.advance(90.0)
    return len(pair.speaker.vrfs["v0"].loc_rib)


def ablation_delayed_ack():
    with_holding = _crash_with_lagging_db(hold_acks=True)
    without_holding = _crash_with_lagging_db(hold_acks=False)
    return with_holding, without_holding


# -- ablation 2: BFD relay -------------------------------------------------------


def _migration_bfd_flaps(relay_enabled):
    system, pairs, remotes = build_system(lab_spec(501))
    pair, remote = pairs["pair0"], remotes["remote0"]
    if not relay_enabled:
        pair._register_relay = lambda: None
        system.agent.stop_relay("pair0")
    system.engine.advance(10.0)
    if not relay_enabled:
        system.agent.stop_relay("pair0")
    remote_bfd = list(remote.bfd.sessions.values())[0]
    flaps_before = len(remote_bfd.state_changes)
    injector = FailureInjector(system)
    injector.inject("container", pair, {})
    system.engine.advance(30.0)
    from repro.bfd.packet import BfdState

    downs = [
        t for t, _old, new in remote_bfd.state_changes[flaps_before:]
        if new is BfdState.DOWN
    ]
    return len(downs)


def ablation_bfd_relay():
    return _migration_bfd_flaps(True), _migration_bfd_flaps(False)


# -- ablation 3: split vs monolithic receive parallelism -------------------------


def _monolithic_receive(as_count, updates_each):
    engine = Engine()
    network = Network(engine)
    network.enable_fabric()
    gw_host = network.add_host("gw", "10.0.0.1")
    db_host = network.add_host("db", "10.254.0.1")
    KvServer(engine, db_host)
    fast = KvClient(engine, gw_host, "10.254.0.1")
    bulk = KvClient(engine, gw_host, "10.254.0.1")
    gw = TensorBgpSpeaker(
        engine, TcpStack(engine, gw_host),
        SpeakerConfig("gw", 65001, "10.0.0.1", profile="tensor"),
        ReplicationPipeline("mono", fast, bulk), "mono",
    )
    remotes = []
    for i in range(as_count):
        addr = f"192.0.{i // 250}.{i % 250 + 1}"
        host = network.add_host(f"r{i}", addr)
        remote = BgpSpeaker(
            engine, TcpStack(engine, host),
            SpeakerConfig(f"r{i}", 64512 + i, addr, profile="frr"),
        )
        vrf = f"v{i}"
        remote.add_vrf(vrf)
        gw.add_vrf(vrf)
        gw.add_peer(PeerConfig(addr, 64512 + i, vrf_name=vrf, mode="passive"))
        session = remote.add_peer(
            PeerConfig("10.0.0.1", 65001, vrf_name=vrf, mode="active")
        )
        remotes.append((remote, session, vrf))
    gw.start()
    for remote, _s, _v in remotes:
        remote.start()
    engine.advance(10.0)
    gen = RouteGenerator(random.Random(19), 64512, next_hop="192.0.2.1")
    routes = gen.routes(updates_each)
    start = engine.now
    for remote, session, vrf in remotes:
        remote.originate_many(vrf, routes)
        remote.readvertise(session)
    target = as_count * updates_each
    while gw.total_updates_received < target:
        engine.advance(0.25)
        if engine.now - start > 1200:
            raise TimeoutError("monolithic receive did not converge")
    return gw.last_apply_time - start


def _split_receive(as_count, updates_each):
    """Each AS gets its own TENSOR process (its own CPU): the makespan is
    the slowest single container, not the sum."""
    engine = Engine()
    network = Network(engine)
    network.enable_fabric()
    db_host = network.add_host("db", "10.254.0.1")
    KvServer(engine, db_host)
    gen = RouteGenerator(random.Random(19), 64512, next_hop="192.0.2.1")
    routes = gen.routes(updates_each)
    containers = []
    for i in range(as_count):
        gw_addr = f"10.0.{i // 250}.{i % 250 + 1}"
        gw_host = network.add_host(f"gw{i}", gw_addr)
        fast = KvClient(engine, gw_host, "10.254.0.1")
        bulk = KvClient(engine, gw_host, "10.254.0.1")
        gw = TensorBgpSpeaker(
            engine, TcpStack(engine, gw_host),
            SpeakerConfig(f"gw{i}", 65001, gw_addr, profile="tensor"),
            ReplicationPipeline(f"split{i}", fast, bulk), f"split{i}",
        )
        gw.add_vrf("v0")
        r_addr = f"192.1.{i // 250}.{i % 250 + 1}"
        r_host = network.add_host(f"r{i}", r_addr)
        remote = BgpSpeaker(
            engine, TcpStack(engine, r_host),
            SpeakerConfig(f"r{i}", 64512 + i, r_addr, profile="frr"),
        )
        remote.add_vrf("v0")
        gw.add_peer(PeerConfig(r_addr, 64512 + i, vrf_name="v0", mode="passive"))
        session = remote.add_peer(
            PeerConfig(gw_addr, 65001, vrf_name="v0", mode="active")
        )
        gw.start()
        remote.start()
        containers.append((gw, remote, session))
    engine.advance(10.0)
    start = engine.now
    for _gw, remote, session in containers:
        remote.originate_many("v0", routes)
        remote.readvertise(session)
    while any(gw.total_updates_received < updates_each for gw, _r, _s in containers):
        engine.advance(0.25)
        if engine.now - start > 1200:
            raise TimeoutError("split receive did not converge")
    return max(gw.last_apply_time for gw, _r, _s in containers) - start


def ablation_split(as_count=50, updates_each=10_000):
    return (
        _monolithic_receive(as_count, updates_each),
        _split_receive(as_count, updates_each),
    )


# -- ablation 4: boot time --------------------------------------------------------


def ablation_boot_time():
    engine = Engine()
    network = Network(engine)
    machine = HostMachine(engine, network, "m", "10.1.0.1")
    monolith = machine.create_container("monolith", config_entries=100_000)
    containers = [
        machine.create_container(f"c{i}", config_entries=1000) for i in range(100)
    ]
    parallel_boot = max(c.boot_time() for c in containers)
    return monolith.boot_time(), parallel_boot


# ------------------------------------------------------------------------------


def run_experiment():
    return {
        "delayed_ack": ablation_delayed_ack(),
        "bfd_relay": ablation_bfd_relay(),
        "split": ablation_split(),
        "boot": ablation_boot_time(),
    }


def test_ablations(benchmark):
    results = run_once(benchmark, run_experiment)
    held, unheld = results["delayed_ack"]
    relay_flaps, norelay_flaps = results["bfd_relay"]
    mono, split = results["split"]
    mono_boot, container_boot = results["boot"]
    print()
    print(format_table(
        ["ablation", "with mechanism", "without"],
        [
            ["delayed ACK (routes recovered / 800)", held, unheld],
            ["BFD relay (remote flaps during migration)", relay_flaps, norelay_flaps],
            ["BGP split (50 AS x 10K updates, seconds)", f"{split:.2f}", f"{mono:.2f}"],
            ["boot time (seconds)", f"{container_boot:.0f}", f"{mono_boot:.0f}"],
        ],
        title="Ablations: §3 design choices",
    ))
    assert held == 800 and unheld < 800          # §3.1.1 inconsistency
    assert relay_flaps == 0 and norelay_flaps >= 1  # §3.3.2 relay
    assert split < 1.0 and mono > 5.0            # §4.2 parallelism argument
    assert mono_boot > 1100 and container_boot < 25  # ~20 min -> ~20 s
