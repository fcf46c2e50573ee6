"""Property-based tests: TCP byte-stream integrity under adverse networks.

The core NSR correctness argument rests on TCP delivering exactly the
bytes sent, in order, whatever the network does — these properties pin
that down for the simulated stack.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim import Engine, Network
from repro.tcpsim import TcpStack, import_tcp_state
from repro.tcpsim.repair import resume_connection
from conftest import drop_randomly
from tcp_repair_reference import export_tcp_state

_SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _run_transfer(chunks, loss, seed):
    engine = Engine()
    network = Network(engine)
    a = network.add_host("a", "10.0.0.1")
    b = network.add_host("b", "10.0.0.2")
    link = network.connect(a, b, latency=100e-6, bandwidth=1e9)
    drop_randomly(network, link, loss, seed)
    sa, sb = TcpStack(engine, a), TcpStack(engine, b)
    received = bytearray()

    def on_accept(conn):
        conn.on_data = lambda _c, data: received.extend(data)

    sb.listen(179, on_accept)

    def on_established(conn):
        for chunk in chunks:
            if chunk:
                conn.send(chunk)

    sa.connect("10.0.0.2", 179, on_established=on_established)
    engine.run(until=300.0)
    return bytes(received)


@given(
    chunks=st.lists(st.binary(min_size=0, max_size=5000), min_size=1, max_size=10),
    loss=st.sampled_from([0.0, 0.01, 0.05, 0.15]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(**_SETTINGS)
def test_byte_stream_integrity_under_loss(chunks, loss, seed):
    expected = b"".join(chunks)
    assert _run_transfer(chunks, loss, seed) == expected


@given(
    payload_size=st.integers(min_value=1, max_value=30_000),
    crash_after=st.floats(min_value=0.0001, max_value=0.01),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(**_SETTINGS)
def test_stream_integrity_across_migration(payload_size, crash_after, seed):
    """Whatever instant the server is snapshotted and killed, the client's
    bytes all arrive exactly once across old + new server."""
    engine = Engine()
    network = Network(engine)
    a = network.add_host("a", "10.0.0.1")
    b = network.add_host("b", "10.0.0.2")
    network.connect(a, b, latency=100e-6, bandwidth=1e9)
    sa, sb = TcpStack(engine, a), TcpStack(engine, b)
    received_old = bytearray()
    server_conn = []

    def on_accept(conn):
        server_conn.append(conn)
        conn.on_data = lambda _c, data: received_old.extend(data)

    sb.listen(179, on_accept)
    payload = bytes(i % 256 for i in range(payload_size))
    client = sa.connect(
        "10.0.0.2", 179, on_established=lambda conn: conn.send(payload)
    )
    engine.run(until=crash_after)
    if not server_conn:
        return  # handshake had not completed; nothing to migrate
    state = export_tcp_state(server_conn[0])
    sb.destroy()
    old = network.host_by_address("10.0.0.2")
    old.fail()
    network.remove_host(old)
    b2 = network.add_host("b2", "10.0.0.2")
    network.connect(a, b2, latency=100e-6, bandwidth=1e9)
    sb2 = TcpStack(engine, b2)
    received_new = bytearray()
    conn2 = import_tcp_state(sb2, state)
    conn2.on_data = lambda _c, data: received_new.extend(data)
    resume_connection(conn2)
    engine.run(until=300.0)
    # the snapshot's receive position splits the stream exactly
    snapshot_pos = state.rcv_nxt - (state.irs + 1)
    assert bytes(received_new) == payload[snapshot_pos:]
    assert client.snd_una == client.iss + 1 + payload_size  # all acked


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=2000), min_size=1, max_size=20),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(**_SETTINGS)
def test_bidirectional_integrity(sizes, seed):
    engine = Engine()
    network = Network(engine)
    a = network.add_host("a", "10.0.0.1")
    b = network.add_host("b", "10.0.0.2")
    link = network.connect(a, b, latency=100e-6, bandwidth=1e9)
    drop_randomly(network, link, 0.02, seed)
    sa, sb = TcpStack(engine, a), TcpStack(engine, b)
    got_a, got_b = bytearray(), bytearray()

    def on_accept(conn):
        conn.on_data = lambda _c, d: got_b.extend(d)
        for i, size in enumerate(sizes):
            conn.send(bytes([i % 256]) * size)

    sb.listen(179, on_accept)

    def on_established(conn):
        conn.on_data = lambda _c, d: got_a.extend(d)
        for i, size in enumerate(sizes):
            conn.send(bytes([(i + 100) % 256]) * size)

    sa.connect("10.0.0.2", 179, on_established=on_established)
    engine.run(until=300.0)
    expect_b = b"".join(bytes([(i + 100) % 256]) * s for i, s in enumerate(sizes))
    expect_a = b"".join(bytes([i % 256]) * s for i, s in enumerate(sizes))
    assert bytes(got_b) == expect_b
    assert bytes(got_a) == expect_a
