"""The tcp_queue thread: ACK holding, matching, release, crash semantics."""

import pytest

from repro.core.ack_matching import TENSOR_ACK_QUEUE, TcpQueueThread
from repro.core.replication import ConnectionKeys, ReplicationPipeline
from repro.kvstore import KvClient, KvServer
from repro.sim import Engine, Network
from repro.tcpsim import TcpStack

from conftest import make_tcp_pair


@pytest.fixture
def env(engine):
    network = Network(engine)
    network.enable_fabric()
    a = network.add_host("a", "10.0.0.1")  # remote peer
    b = network.add_host("b", "10.0.0.2")  # gateway
    network.connect(a, b, latency=100e-6, bandwidth=100e9)
    db_host = network.add_host("db", "10.0.0.3")
    server = KvServer(engine, db_host)
    fast = KvClient(engine, b, "10.0.0.3")
    bulk = KvClient(engine, b, "10.0.0.3")
    pipeline = ReplicationPipeline("pair0", fast, bulk)
    sa, sb = TcpStack(engine, a), TcpStack(engine, b)
    return engine, network, server, pipeline, sa, sb


def _establish(engine, sa, sb):
    client, accepted, received = make_tcp_pair(engine, sa, sb, port=179)
    return client, accepted[0], received


def test_acks_held_until_replication_confirmed(env):
    engine, _net, server, pipeline, sa, sb = env
    tq = TcpQueueThread(engine, pipeline)
    client, gw_conn, _rx = _establish(engine, sa, sb)
    keys = ConnectionKeys("pair0", "v1", "10.0.0.2", 179, "10.0.0.1", client.local_port)
    tq.install_for_connection(sb, gw_conn, keys)
    client.send(b"M" * 500)
    engine.advance(0.5)
    assert client.snd_una < client.snd_nxt  # ACK held: sender not advanced
    assert tq.held_count() == 1
    # now the "main thread" replicates and notifies
    position = gw_conn.rcv_nxt
    record_key = keys.message("i", 500)
    pipeline.fast.set(record_key, {"ack": position})
    engine.advance(0.1)  # bounded: run_until_idle would run past the
    tq.note_replicated(keys, position, record_key)  # TCP user timeout
    engine.advance(0.1)
    assert client.snd_una == client.snd_nxt  # ACK released and arrived
    assert tq.held_count() == 0
    assert tq.acks_released >= 1


def test_verify_read_failure_keeps_holding(env):
    engine, _net, server, pipeline, sa, sb = env
    tq = TcpQueueThread(engine, pipeline)
    client, gw_conn, _rx = _establish(engine, sa, sb)
    keys = ConnectionKeys("pair0", "v1", "10.0.0.2", 179, "10.0.0.1", client.local_port)
    tq.install_for_connection(sb, gw_conn, keys)
    client.send(b"M" * 100)
    engine.advance(0.3)
    # notify about a record that is NOT in the database
    tq.note_replicated(keys, gw_conn.rcv_nxt, keys.message("i", 100))
    engine.advance(0.5)
    assert tq.held_count() == 1  # fail-safe: still held


def test_redundant_older_acks_dropped(env):
    engine, _net, server, pipeline, sa, sb = env
    tq = TcpQueueThread(engine, pipeline)
    client, gw_conn, _rx = _establish(engine, sa, sb)
    keys = ConnectionKeys("pair0", "v1", "10.0.0.2", 179, "10.0.0.1", client.local_port)
    tq.install_for_connection(sb, gw_conn, keys)
    client.mss_limit = 100
    client.send(b"M" * 300)  # three segments -> three held ACKs
    engine.advance(0.5)
    assert tq.held_count() >= 2
    pipeline.fast.set(keys.session, {"ack": gw_conn.rcv_nxt})
    engine.advance(0.1)
    tq.note_replicated(keys, gw_conn.rcv_nxt, keys.session)
    engine.advance(0.1)
    assert tq.verify_read_count == 1
    assert tq.held_count() == 0
    assert tq.acks_dropped_redundant >= 1  # only the newest hit the wire
    assert client.snd_una == client.snd_nxt


def test_unmanaged_connection_acks_pass_through(env):
    engine, _net, server, pipeline, sa, sb = env
    tq = TcpQueueThread(engine, pipeline)
    tq.attach_stack(sb)
    # a connection with no install_for_connection: its queued packets (if
    # any rule matched) are accepted immediately
    from repro.netfilter import Rule, Verdict

    sb.output_chain.append(Rule(lambda p: True, Verdict.QUEUE,
                                queue_num=TENSOR_ACK_QUEUE))
    client, gw_conn, received = _establish(engine, sa, sb)
    client.send(b"hello")
    engine.advance(0.5)
    assert bytes(received) == b"hello"
    assert client.snd_una == client.snd_nxt


def test_guard_rule_drops_rst_fin(env):
    engine, _net, server, pipeline, sa, sb = env
    tq = TcpQueueThread(engine, pipeline)
    client, gw_conn, _rx = _establish(engine, sa, sb)
    keys = ConnectionKeys("pair0", "v1", "10.0.0.2", 179, "10.0.0.1", client.local_port)
    tq.install_for_connection(sb, gw_conn, keys)
    resets = []
    client.on_reset = lambda _c, r: resets.append(r)
    closes = []
    client.on_close = lambda _c: closes.append(1)
    gw_conn.abort()  # tries to send RST -> guard drops it
    engine.advance(1.0)
    assert resets == [] and closes == []


def test_crash_drops_held_acks_forever(env):
    engine, _net, server, pipeline, sa, sb = env
    tq = TcpQueueThread(engine, pipeline)
    client, gw_conn, _rx = _establish(engine, sa, sb)
    keys = ConnectionKeys("pair0", "v1", "10.0.0.2", 179, "10.0.0.1", client.local_port)
    tq.install_for_connection(sb, gw_conn, keys)
    client.send(b"M" * 100)
    engine.advance(0.3)
    assert tq.held_count() == 1
    tq.crash()
    tq.note_replicated(keys, gw_conn.rcv_nxt, keys.session)
    engine.advance(3.0)
    # the remote never got the ACK: its send buffer still holds the data
    assert client.snd_una < client.snd_nxt
    assert client.retransmissions > 0
