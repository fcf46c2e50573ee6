"""Shared fixtures and topology helpers for the test suite."""

import pytest

from repro.sim import DeterministicRandom, Engine, Network
from repro.tcpsim import TcpStack


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def network(engine):
    return Network(engine)


@pytest.fixture
def two_hosts(engine, network):
    """Two hosts on a dedicated 100 Gbps link, with TCP stacks."""
    a = network.add_host("a", "10.0.0.1")
    b = network.add_host("b", "10.0.0.2")
    network.connect(a, b, latency=100e-6, bandwidth=100e9)
    return a, b


@pytest.fixture
def two_stacks(engine, two_hosts):
    a, b = two_hosts
    return TcpStack(engine, a), TcpStack(engine, b)


def make_tcp_pair(engine, stack_a, stack_b, port=7000, payload=b""):
    """Connect stack_a -> stack_b:port; returns (client_conn, accepted_holder).

    ``accepted_holder`` is a one-element list filled with the server-side
    connection once the handshake completes.
    """
    accepted = []
    received = bytearray()

    def on_accept(conn):
        accepted.append(conn)
        conn.on_data = lambda _c, data: received.extend(data)

    stack_b.listen(port, on_accept)
    client = stack_a.connect(stack_b.host.address, port)
    if payload:
        client.on_established = lambda conn: conn.send(payload)
    engine.advance(1.0)
    return client, accepted, received


def drop_randomly(network, link, loss, seed):
    """Lose each packet crossing ``link`` with probability ``loss``.

    The simulated fabric has no loss model (no deployment sets one), so
    the tests of TCP's loss recovery install one on the instance; the
    draws come from ``seed``'s ``network.loss`` stream.
    """
    rng = DeterministicRandom(seed).stream("network.loss")
    path_delay = network._path_delay

    def lossy(path, size):
        if path.link is link and link.up and rng.random() < loss:
            return None
        return path_delay(path, size)

    network._path_delay = lossy


def build_tensor_fixture(seed=7, routes=1000, neighbors=1, rand=None,
                         tracing=False, shared_vrf=False,
                         controller_replicas=1):
    """The standard lab (:func:`repro.config.lab_spec`) with
    ``neighbors`` remote ASes, converged, each remote preloaded with
    ``routes`` routes.

    ``rand`` overrides the :class:`DeterministicRandom` namespace the
    workload draws from (the chaos engine forks its schedule namespace
    into here); by default it derives from ``seed``.
    ``controller_replicas`` sizes the controller panel (DESIGN.md §15).
    """
    from repro.config import build_system, lab_spec
    from repro.workloads.updates import RouteGenerator

    spec = {**lab_spec(seed, neighbors, shared_vrf), "tracing": tracing,
            "controller_replicas": controller_replicas}
    system, pairs, remotes = build_system(spec)
    engine = system.engine
    engine.advance(10.0)
    pair = pairs["pair0"]
    remotes = [(remote, remote.sessions[0]) for remote in remotes.values()]
    if routes:
        if rand is None:
            rand = DeterministicRandom(seed)
        if shared_vrf:
            # Disjoint prefix blocks with per-remote next hops, so each
            # remote's routes re-propagate to every *other* remote (the
            # gateway skips peers that are a route's own next hop).
            for i, (remote, session) in enumerate(remotes):
                gen = RouteGenerator(
                    rand.fork(f"workload{i}"), 64512 + i,
                    next_hop=f"192.0.2.{i + 1}",
                )
                remote.speaker.originate_many(
                    session.config.vrf_name,
                    gen.routes(routes, base=f"{10 + i}.248.0.0"),
                )
                remote.speaker.readvertise(session)
        else:
            gen = RouteGenerator(rand.fork("workload"), 64512, next_hop="192.0.2.1")
            for remote, session in remotes:
                remote.speaker.originate_many(session.config.vrf_name, gen.routes(routes))
                remote.speaker.readvertise(session)
        engine.advance(5.0)
    return system, pair, remotes
