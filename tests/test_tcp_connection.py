"""Unit tests for TCP connection establishment, transfer, teardown."""

import pytest

from repro.tcpsim import TcpStack
from repro.tcpsim.state import TcpState

from conftest import make_tcp_pair


def test_three_way_handshake(engine, two_stacks):
    sa, sb = two_stacks
    client, accepted, _ = make_tcp_pair(engine, sa, sb)
    assert client.state is TcpState.ESTABLISHED
    assert accepted and accepted[0].state is TcpState.ESTABLISHED


def test_isn_negotiation_symmetric(engine, two_stacks):
    sa, sb = two_stacks
    client, accepted, _ = make_tcp_pair(engine, sa, sb)
    server = accepted[0]
    assert client.irs == server.iss
    assert server.irs == client.iss
    assert client.snd_una == client.iss + 1
    assert client.rcv_nxt == server.iss + 1


def test_small_payload_delivery(engine, two_stacks):
    sa, sb = two_stacks
    _client, _accepted, received = make_tcp_pair(engine, sa, sb, payload=b"hello bgp")
    assert bytes(received) == b"hello bgp"


def test_large_transfer_exact_bytes(engine, two_stacks):
    sa, sb = two_stacks
    payload = bytes(i % 251 for i in range(300_000))
    _client, _accepted, received = make_tcp_pair(engine, sa, sb, payload=payload)
    engine.advance(5.0)
    assert bytes(received) == payload


def test_bidirectional_transfer(engine, two_stacks):
    sa, sb = two_stacks
    to_server = b"request" * 100
    to_client = b"response" * 100
    got_client = bytearray()
    client, accepted, got_server = make_tcp_pair(engine, sa, sb, payload=to_server)
    client.on_data = lambda _c, d: got_client.extend(d)
    accepted[0].send(to_client)
    engine.advance(2.0)
    assert bytes(got_server) == to_server
    assert bytes(got_client) == to_client


def test_mss_splits_segments(engine, two_stacks):
    sa, sb = two_stacks
    payload = b"x" * (1460 * 3 + 10)
    client, _accepted, received = make_tcp_pair(engine, sa, sb, payload=payload)
    engine.advance(2.0)
    assert bytes(received) == payload
    assert client.segments_sent >= 4 + 1  # SYN + >=4 data segments


def test_mss_limit_caps_segment_size(engine, two_stacks):
    sa, sb = two_stacks
    accepted = []
    sizes = []
    def on_accept(conn):
        accepted.append(conn)
        conn.on_data = lambda _c, d: sizes.append(len(d))
    sb.listen(7000, on_accept)
    client = sa.connect("10.0.0.2", 7000)
    client.mss_limit = 100
    engine.advance(1.0)
    client.send(b"y" * 1000)
    engine.advance(1.0)
    assert sum(sizes) == 1000
    # deliveries may coalesce contiguous out-of-order absorptions, but the
    # wire segments were capped: at least 10 segments were sent
    assert client.segments_sent >= 10


def test_cumulative_bytes_received_tracks_stream(engine, two_stacks):
    sa, sb = two_stacks
    client, accepted, _ = make_tcp_pair(engine, sa, sb, payload=b"a" * 999)
    engine.advance(1.0)
    assert accepted[0].bytes_delivered == 999
    assert accepted[0].rcv_nxt - (accepted[0].irs + 1) == 999
    assert client.bytes_delivered == 0


def test_send_on_unestablished_connection_raises(engine, two_stacks):
    sa, _sb = two_stacks
    conn = sa.connect("10.0.0.2", 1)  # nothing listening
    with pytest.raises(ConnectionError):
        conn.send(b"x")


def test_connect_to_closed_port_resets(engine, two_stacks):
    sa, sb = two_stacks
    resets = []
    conn = sa.connect("10.0.0.2", 4444)
    conn.on_reset = lambda _c, reason: resets.append(reason)
    engine.advance(1.0)
    assert resets == ["rst"]
    assert conn.state is TcpState.CLOSED


def test_orderly_close_fin_handshake(engine, two_stacks):
    sa, sb = two_stacks
    closed = []
    client, accepted, _ = make_tcp_pair(engine, sa, sb, payload=b"bye")
    server = accepted[0]
    server.on_close = lambda _c: closed.append("server")
    client.on_close = lambda _c: closed.append("client")
    client.close()
    engine.advance(1.0)
    assert "server" in closed  # server saw FIN -> CLOSE_WAIT
    assert server.state is TcpState.CLOSE_WAIT
    server.close()
    engine.advance(5.0)
    assert client.state is TcpState.CLOSED
    assert server.state is TcpState.CLOSED


def test_close_flushes_pending_data_first(engine, two_stacks):
    sa, sb = two_stacks
    payload = b"z" * 100_000
    client, _accepted, received = make_tcp_pair(engine, sa, sb)
    client.send(payload)
    client.close()  # FIN must follow all data
    engine.advance(5.0)
    assert bytes(received) == payload


def test_abort_sends_rst(engine, two_stacks):
    sa, sb = two_stacks
    resets = []
    client, accepted, _ = make_tcp_pair(engine, sa, sb, payload=b"x")
    accepted[0].on_reset = lambda _c, reason: resets.append(reason)
    client.abort()
    engine.advance(1.0)
    assert resets == ["rst"]


def test_simultaneous_close(engine, two_stacks):
    sa, sb = two_stacks
    client, accepted, _ = make_tcp_pair(engine, sa, sb, payload=b"x")
    server = accepted[0]
    client.close()
    server.close()
    engine.advance(5.0)
    assert client.state is TcpState.CLOSED
    assert server.state is TcpState.CLOSED


def test_many_connections_demuxed_independently(engine, two_stacks):
    sa, sb = two_stacks
    streams = {}

    def on_accept(conn):
        streams[conn.remote_port] = bytearray()
        conn.on_data = lambda c, d: streams[c.remote_port].extend(d)

    sb.listen(7000, on_accept)
    clients = []
    for i in range(10):
        conn = sa.connect("10.0.0.2", 7000)
        conn.on_established = lambda c, i=i: c.send(bytes([i]) * 100)
        clients.append(conn)
    engine.advance(2.0)
    assert len(streams) == 10
    for conn in clients:
        data = streams[conn.local_port]
        assert len(data) == 100
        assert len(set(data)) == 1


def test_flow_control_limits_inflight(engine, two_stacks):
    sa, sb = two_stacks
    client, accepted, _ = make_tcp_pair(engine, sa, sb)
    client.snd_wnd = 5000  # pretend the peer advertised a tiny window
    client.send(b"w" * 50_000)
    assert client.bytes_in_flight <= 5000


def test_rtt_estimation_converges(engine, two_stacks):
    sa, sb = two_stacks
    client, _accepted, _ = make_tcp_pair(engine, sa, sb, payload=b"x" * 20_000)
    engine.advance(2.0)
    assert client.srtt is not None
    assert 0 < client.srtt < 0.01  # near the 200 us RTT + pacing


def test_stack_destroy_silences_everything(engine, two_stacks):
    sa, sb = two_stacks
    client, accepted, _ = make_tcp_pair(engine, sa, sb, payload=b"x")
    sb.destroy()
    assert sb._connections == {}
    client.send(b"more")
    engine.advance(3.0)
    # no replies, client retransmits
    assert client.retransmissions > 0


def test_listener_accept_callback_runs_once_per_connection(engine, two_stacks):
    sa, sb = two_stacks
    count = []
    sb.listen(7000, lambda conn: count.append(conn))
    sa.connect("10.0.0.2", 7000)
    sa.connect("10.0.0.2", 7000)
    engine.advance(1.0)
    assert len(count) == 2


def test_established_callback_fires(engine, two_stacks):
    sa, sb = two_stacks
    sb.listen(7000, lambda conn: None)
    established = []
    sa.connect("10.0.0.2", 7000, on_established=lambda c: established.append(c))
    engine.advance(1.0)
    assert len(established) == 1
