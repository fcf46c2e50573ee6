"""Backup recovery: state parsing, Loc-RIB rebuild, TCP repair math."""

import pytest

from repro.bgp import LocRib, PathAttributes, Prefix
from repro.bgp.attributes import AsPath
from repro.bgp.rib import Path
from repro.core.recovery import BackupRecovery, RecoveredState
from repro.core.replication import (
    ConnectionKeys,
    ReplicationPipeline,
    rib_delta,
    rib_delta_key,
    rib_snapshot_key,
)
from repro.kvstore import KvClient, KvServer
from repro.sim import DeterministicRandom, Engine, Network


def _attrs(lp=None):
    return PathAttributes(as_path=AsPath.sequence(64512), next_hop="1.1.1.1",
                          local_pref=lp)


def _state_with(pair="pair0"):
    return RecoveredState(pair)


def _announce(text, attrs, peer_id):
    """One announced run of one v4 prefix, as the apply step records it."""
    return (Prefix.AFI_IPV4, Prefix.parse(text).to_wire(), attrs.to_wire(),
            peer_id, "ebgp")


def test_rebuild_loc_rib_from_deltas():
    state = _state_with()
    ten = Prefix.parse("10.0.0.0/8").to_wire()
    state.rib_deltas["v1"] = [
        (0, rib_delta(100, announced=[_announce("10.0.0.0/8", _attrs(), "p1")])),
        (1, rib_delta(200, announced=[_announce("10.0.0.0/8", _attrs(200), "p2")])),
        (2, rib_delta(300, withdrawn=[(Prefix.AFI_IPV4, ten, "p1")])),
    ]
    rib = state.rebuild_loc_rib("v1")
    best = rib.best(Prefix.parse("10.0.0.0/8"))
    assert best.peer_id == "p2"
    assert len(rib.candidates(Prefix.parse("10.0.0.0/8"))) == 1


def test_rebuild_loc_rib_snapshot_plus_deltas():
    state = _state_with()
    rib = LocRib()
    for i in range(10):
        rib.offer(Prefix(i << 8, 24), Path(_attrs(), "p1"))
    entries = rib.export_entries()
    state.rib_snapshots["v1"] = {0: entries[:5], 1: entries[5:]}
    state.rib_markers["v1"] = {"chunks": 2, "delta_floor": 7}
    # deltas below the floor are superseded and must be skipped
    state.rib_deltas["v1"] = [
        (5, rib_delta(1, announced=[_announce("99.0.0.0/8", _attrs(), "px")])),
        (7, rib_delta(2, announced=[_announce("42.0.0.0/8", _attrs(), "p1")])),
    ]
    rebuilt = state.rebuild_loc_rib("v1")
    assert len(rebuilt) == 11  # 10 snapshot + 1 live delta
    assert rebuilt.best(Prefix.parse("99.0.0.0/8")) is None


def test_recovered_in_position_prefers_max():
    state = _state_with()
    state.tcp_status["c1"] = {"in_pos": 500, "out_pruned": 0}
    state.in_messages["c1"] = [(600, {"in_pos": 600}), (700, {"in_pos": 700})]
    assert state.recovered_in_position("c1") == 700
    assert state.recovered_in_position("unknown") == 0


def test_unapplied_messages_filtered_by_watermark():
    state = _state_with()
    state.tcp_status["c1"] = {"in_pos": 600, "out_pruned": 0}
    state.in_messages["c1"] = [(600, {"in_pos": 600, "m": "applied"}),
                               (700, {"in_pos": 700, "m": "pending"})]
    pending = state.unapplied_messages("c1")
    assert [r["m"] for r in pending] == ["pending"]


def test_recovered_out_state():
    state = _state_with()
    state.tcp_status["c1"] = {"in_pos": 0, "out_pruned": 60}
    # contiguous surviving suffix: [80,100) + [100,150) + [150,200)
    state.out_messages["c1"] = [(100, {"wire": b"a" * 20}), (150, {"wire": b"b" * 50}),
                                (200, {"wire": b"c" * 50})]
    out_pos, unpruned, base = state.recovered_out_state("c1")
    assert out_pos == 200
    assert unpruned == [100, 150, 200]
    assert base == 80  # start of the earliest surviving record


def test_recovered_out_state_empty_falls_back_to_watermark():
    state = _state_with()
    state.tcp_status["c1"] = {"in_pos": 0, "out_pruned": 42}
    assert state.recovered_out_state("c1") == (42, [], 42)


def test_tcp_repair_state_math():
    state = _state_with()
    state.sessions["c1"] = {
        "iss": 1000, "irs": 5000,
        "local_addr": "10.0.0.1", "local_port": 179,
        "remote_addr": "192.0.2.1", "remote_port": 40000,
        "remote_as": 64512, "vrf": "v1", "hold_time": 90,
        "keepalive_interval": 30, "mode": "passive", "established_at": 0.0,
    }
    state.tcp_status["c1"] = {"in_pos": 300, "out_pruned": 0}
    state.out_messages["c1"] = [(50, {"wire": b"x" * 50}), (80, {"wire": b"y" * 30})]
    state.in_messages["c1"] = [(350, {"in_pos": 350})]
    repair = state.tcp_repair_state("c1")
    assert repair.snd_una == 1000 + 1 + 0  # earliest surviving record starts at 0
    assert repair.rcv_nxt == 5000 + 1 + 350  # stored message counts
    assert repair.send_queue == b"x" * 50 + b"y" * 30


def test_backup_recovery_load_parses_keyspace(engine):
    network = Network(engine, DeterministicRandom(3))
    network.enable_fabric(latency=5e-5)
    client_host = network.add_host("c", "1.1.1.1")
    db_host = network.add_host("db", "1.1.1.2")
    db = KvServer(engine, db_host)
    keys = ConnectionKeys("pair0", "v1", "10.0.0.1", 179, "192.0.2.1", 40000)
    db.store.set(keys.session, {"iss": 1, "irs": 2, "vrf": "v1",
                                "local_addr": "10.0.0.1", "local_port": 179,
                                "remote_addr": "192.0.2.1", "remote_port": 40000,
                                "remote_as": 64512, "hold_time": 90,
                                "keepalive_interval": 30, "mode": "passive",
                                "established_at": 0.0})
    db.store.set(keys.tcp_status, {"in_pos": 10, "out_pruned": 0})
    db.store.set(keys.message("i", 30), {"in_pos": 30})
    db.store.set(keys.message("o", 19), {"wire": b"k" * 19})
    db.store.set(rib_delta_key("pair0", "v1", 0), rib_delta(10))
    db.store.set(rib_snapshot_key("pair0", "v1", 0), [])
    db.store.set("tensor:pair0:rib:v1:marker", {"chunks": 1, "delta_floor": 0})
    db.store.set("tensor:OTHER:sess:x", {"not": "ours"})
    client = KvClient(engine, client_host, "1.1.1.2")
    recovery = BackupRecovery(engine, client, "pair0")
    out = []
    recovery.load(out.append)
    engine.run_until_idle()
    state = out[0]
    assert list(state.sessions) == [keys.conn_id]
    assert state.tcp_status[keys.conn_id]["in_pos"] == 10
    assert state.in_messages[keys.conn_id] == [(30, {"in_pos": 30})]
    assert state.out_messages[keys.conn_id][0][0] == 19
    assert state.rib_markers["v1"]["chunks"] == 1
    assert state.vrf_names() == ["v1"]
    assert state.records_read == 7  # the OTHER pair's record excluded
