"""An UPDATE is one batch from wire to store (DESIGN.md §8).

The receive path decodes an NLRI block once, applies it in one pass and
persists, per run of routes sharing post-policy attributes, the bytes
that arrived.  These tests hold the three things that could go wrong
with that: the store no longer rebuilding what is live (IPv4 and IPv6,
uniform and policy-split runs, deltas alone and snapshot + deltas), a
record of another layout being misread, and a malformed message taking
the process down instead of the session.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bgp import PathAttributes, PeerConfig, Prefix, SpeakerConfig
from repro.bgp import fsm
from repro.bgp.attributes import AsPath
from repro.bgp.messages import MARKER, MessageDecoder, UpdateMessage
from repro.bgp.multiprotocol import attach_mp_reach, attach_mp_unreach
from repro.bgp.policy import PolicyAction, PrefixList, RouteMap, RouteMapEntry
from repro.core.recovery import BackupRecovery, RecoveredState
from repro.core.replication import ReplicationPipeline, rib_delta_key
from repro.core.tensor_process import TensorBgpSpeaker
from repro.failures import FailureInjector
from repro.sim import Engine, Network
from repro.tcpsim import TcpStack

from conftest import build_tensor_fixture
from nlri_reference import delta_routes, per_route_delta
from rib_reference import MemoryKv

REMOTE_AS = 64512
V6_NEXT_HOP = Prefix.parse("2001:db8::1/128").value


def _attrs(index=0, **overrides):
    fields = {"as_path": AsPath.sequence(REMOTE_AS, 64800 + index),
              "next_hop": "192.0.2.1", "med": index}
    fields.update(overrides)
    return PathAttributes(**fields)


def _recovered(store, pair_name="pair0"):
    """What a backup would read out of ``store`` right now."""
    return BackupRecovery(None, None, pair_name)._parse(
        sorted(store.items()) if isinstance(store, dict)
        else store.scan(f"tensor:{pair_name}:"))


# ----------------------------------------------------------------------
# IPv6 routes reach the delta log
# ----------------------------------------------------------------------


def test_ipv6_routes_reach_the_delta_log_and_survive_failover():
    system, pair, remotes = build_tensor_fixture(seed=611, routes=0)
    engine = system.engine
    remote, session = remotes[0]
    v6 = [Prefix.parse("2001:db8:1::/48"), Prefix.parse("2001:db8:2::/48")]
    v4 = [Prefix.parse(f"10.61.{i}.0/24") for i in range(3)]
    for prefix in v6:
        remote.speaker.originate("v0", prefix, _attrs(1))
    engine.advance(1.0)
    for prefix in v4:
        remote.speaker.originate("v0", prefix, _attrs(2))
    engine.advance(1.0)
    remote.speaker.withdraw_originated("v0", v6[1])  # rides MP_UNREACH
    engine.advance(3.0)

    loc_rib = pair.speaker.vrfs["v0"].loc_rib
    assert set(loc_rib.prefixes()) == {v6[0], *v4}
    assert pair.pipeline.compactions == 0
    deltas = system.db.store.scan("tensor:pair0:rib:v0:d:")
    announced = [run for _key, delta in deltas for run in delta["announce"]]
    assert sorted(run[0] for run in announced) == [1, 2]  # one run per family
    assert [run[0] for _key, delta in deltas
            for run in delta["withdraw"]] == [Prefix.AFI_IPV6]

    live = loc_rib.export_entries()
    state = _recovered(system.db.store)
    assert state.rebuild_loc_rib("v0").export_entries() == live
    assert state.recent_withdrawn_prefixes("v0") == {v6[1]}

    FailureInjector(system).inject("container", pair, {})
    engine.advance(25.0)
    assert session.established
    rebuilt = pair.speaker.vrfs["v0"].loc_rib
    assert rebuilt is not loc_rib
    assert rebuilt.export_entries() == live


# ----------------------------------------------------------------------
# the store rebuilds what is live
# ----------------------------------------------------------------------

POOL = ([Prefix.parse(f"10.7.{i}.0/24") for i in range(24)]
        + [Prefix.parse(f"10.8.{i * 16}.0/20") for i in range(4)]
        + [Prefix.parse("10.9.0.0/16"), Prefix.parse("10.7.3.128/25")])
V6_POOL = [Prefix.parse(f"2001:db8:{i:x}::/48") for i in range(6)]
ATTR_POOL = [_attrs(i) for i in range(4)]


def _split_policy():
    """Denies one slice of the pool, re-stamps another, passes the rest:
    blocks that touch neither keep their bytes, the others are split."""
    denied = PrefixList("denied", [POOL[2], POOL[3], Prefix.parse("10.8.0.0/18")])
    stamped = PrefixList("stamped", POOL[8:12] + [V6_POOL[1]])
    return RouteMap("split", [
        RouteMapEntry(permit=False, match_prefix_list=denied),
        RouteMapEntry(match_prefix_list=stamped,
                      action=PolicyAction(add_communities=(200,))),
    ], default_permit=True)


class _Gateway:
    """A TENSOR speaker applying UPDATEs to one session, its deltas
    recorded into two stores: one never compacted, one compacted when
    told to."""

    def __init__(self, import_policy):
        engine = Engine()
        network = Network(engine)
        stack = TcpStack(engine, network.add_host("gw", "10.10.0.1"))
        self.plain_kv, self.compacted_kv = MemoryKv(), MemoryKv()
        self.shadow = ReplicationPipeline("pair0", self.compacted_kv,
                                          self.compacted_kv)
        self.speaker = TensorBgpSpeaker(
            engine, stack, SpeakerConfig("gw", 65001, "10.10.0.1"),
            ReplicationPipeline("pair0", self.plain_kv, self.plain_kv),
            "pair0")
        self.session = self.speaker.add_peer(
            PeerConfig("192.0.2.1", REMOTE_AS, vrf_name="v0",
                       import_policy=import_policy), autostart=False)
        self.session.state = fsm.SessionState.ESTABLISHED
        self.speaker.running = True
        self.loc_rib = self.speaker.vrfs["v0"].loc_rib
        self.position = 0

    def receive(self, message):
        wire = message.to_wire()
        self.position += len(wire)
        [(decoded, _)] = MessageDecoder().feed(wire)
        applied = self.session.handle_message(decoded, len(wire))
        self.speaker._persist_rib_delta(self.session, applied, self.position)
        delta = self.plain_kv.store[rib_delta_key(
            "pair0", "v0", self.speaker.pipeline.deltas_recorded - 1)]
        self.shadow.record_rib_delta("v0", delta)
        return decoded, delta

    def compact(self):
        self.shadow.compact("v0", self.loc_rib)


def _message(withdraw, announce, attrs, v6_announce, v6_withdraw):
    if v6_announce:
        attrs = attach_mp_reach(attrs, V6_NEXT_HOP, v6_announce)
    if v6_withdraw:
        attrs = attach_mp_unreach(attrs, v6_withdraw)
    carries_attrs = announce or v6_announce or v6_withdraw
    return UpdateMessage(withdrawn=withdraw, nlri=announce,
                         attributes=attrs if carries_attrs else None)


def _subset(pool, max_size):
    return st.lists(st.sampled_from(pool), max_size=max_size, unique=True)


updates = st.builds(
    _message,
    withdraw=_subset(POOL, 6), announce=_subset(POOL, 12),
    attrs=st.sampled_from(ATTR_POOL),
    v6_announce=_subset(V6_POOL, 3), v6_withdraw=_subset(V6_POOL, 2),
)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(sequence=st.lists(updates, min_size=1, max_size=12),
       compact_after=st.integers(min_value=0, max_value=11),
       split=st.booleans())
def test_store_rebuild_equals_live(sequence, compact_after, split):
    gateway = _Gateway(_split_policy() if split else None)
    for index, message in enumerate(sequence):
        decoded, delta = gateway.receive(message)
        if not split:
            # permit-all, so the run is the block itself: v4 routes as
            # the old per-route builder wrote them, v6 ones beside them
            announce, withdraw = delta_routes(delta)
            v4_announce, v4_withdraw = per_route_delta(gateway.session, decoded)
            assert [entry for entry in announce if ":" not in entry[0]] == v4_announce
            assert [entry for entry in withdraw if ":" not in entry[0]] == v4_withdraw
            assert [run[1] for run in delta["announce"]
                    if run[0] == Prefix.AFI_IPV4] == (
                [decoded.nlri_wire] if decoded.nlri else [])
        if index == compact_after:
            gateway.compact()
    live = gateway.loc_rib.export_entries()
    from_deltas = _recovered(gateway.plain_kv.store)
    assert not from_deltas.rib_snapshots
    assert from_deltas.rebuild_loc_rib("v0").export_entries() == live
    from_snapshot = _recovered(gateway.compacted_kv.store)
    if compact_after < len(sequence):
        assert from_snapshot.rib_markers["v0"]["delta_floor"] == compact_after + 1
        assert len(from_snapshot.rib_deltas.get("v0", ())) == (
            len(sequence) - compact_after - 1)
    assert from_snapshot.rebuild_loc_rib("v0").export_entries() == live


def test_uniform_block_keeps_its_bytes_and_split_block_is_rejoined():
    gateway = _Gateway(_split_policy())
    untouched = POOL[12:20]
    _decoded, delta = gateway.receive(UpdateMessage(
        attributes=ATTR_POOL[0], nlri=untouched))
    (afi, nlri_wire, attrs_wire, peer_id, source_kind), = delta["announce"]
    assert (afi, peer_id, source_kind) == (1, "v0:192.0.2.1", "ebgp")
    assert nlri_wire == b"".join(p.to_wire() for p in untouched)
    assert attrs_wire == ATTR_POOL[0].to_wire()

    # POOL[2:4] denied, POOL[8:10] re-stamped, in the middle of the block
    block = [POOL[0], POOL[1], POOL[2], POOL[3], POOL[4], POOL[8], POOL[9],
             POOL[20]]
    _decoded, delta = gateway.receive(UpdateMessage(
        attributes=ATTR_POOL[1], nlri=block))
    stamped = ATTR_POOL[1].replace(communities=(200,))
    assert [(run[1], run[2]) for run in delta["announce"]] == [
        (b"".join(p.to_wire() for p in (POOL[0], POOL[1], POOL[4])),
         ATTR_POOL[1].to_wire()),
        (b"".join(p.to_wire() for p in (POOL[8], POOL[9])), stamped.to_wire()),
        (POOL[20].to_wire(), ATTR_POOL[1].to_wire()),
    ]
    assert gateway.session.routes_learned == len(untouched) + 6
    assert gateway.loc_rib.best(POOL[2]) is None
    assert gateway.loc_rib.best(POOL[8]).attributes.communities == (200,)


def test_route_map_is_evaluated_once_per_message_unless_it_matches_prefixes():
    calls = []

    class Counting(RouteMap):
        def evaluate(self, prefix, attributes):
            calls.append(prefix)
            return super().evaluate(prefix, attributes)

    by_attributes = Counting("lp", [
        RouteMapEntry(action=PolicyAction(add_communities=(300,))),
    ], default_permit=True)
    gateway = _Gateway(by_attributes)
    gateway.receive(UpdateMessage(attributes=ATTR_POOL[1], nlri=POOL[:10]))
    assert calls == [None]
    assert {route.attributes.communities
            for route in gateway.loc_rib.best_routes()} == {(300,)}
    by_attributes.append(RouteMapEntry(
        permit=False, match_prefix_list=PrefixList("pl", [POOL[0]])))
    gateway.receive(UpdateMessage(attributes=ATTR_POOL[0], nlri=POOL[:10]))
    assert calls[1:] == POOL[:10]


# ----------------------------------------------------------------------
# another layout is rejected, not misread
# ----------------------------------------------------------------------


def test_packed_receive_holds_no_tracked_object_per_route():
    """9,000 routes in full UPDATEs through an NSR pair: the gateway's
    Adj-RIB-In and Loc-RIB hold plain-int keys and one shared path per
    run of an UPDATE — together well under one GC-tracked object per 20
    routes."""
    import gc

    _system, pair, remotes = build_tensor_fixture(seed=13, routes=9_000)
    session = next(iter(pair.speaker.sessions.values()))
    loc_rib = pair.speaker.vrfs["v0"].loc_rib
    assert len(loc_rib) == len(session.adj_rib_in) == 9_000
    assert not loc_rib._contested
    held = {}
    for table in (session.adj_rib_in.items(), loc_rib.items()):
        for key, path in table:
            for value in (key, path):
                if gc.is_tracked(value):
                    held[id(value)] = value
    assert len(held) <= 0.05 * 9_000, len(held)
    assert all(loc_rib.best(prefix) is path
               for prefix, path in session.adj_rib_in.items())
    # No snapshot has read either speaker's table, so neither keeps a
    # change record: the receive paid for none.
    remote, _session = remotes[0]
    assert loc_rib.export_seq >= 9_000 and loc_rib._changed is None
    assert remote.speaker.vrfs["v0"].loc_rib._changed is None


def test_old_layout_delta_is_rejected_loudly():
    state = RecoveredState("pair0")
    state.rib_deltas["v0"] = [(0, {
        "announce": [("10.0.0.0/8", _attrs().to_wire(), "p1", "ebgp")],
        "withdraw": [("10.1.0.0/16", "p1")], "in_pos": 100})]
    with pytest.raises(ValueError, match="layout"):
        state.rebuild_loc_rib("v0")
    with pytest.raises(ValueError, match="layout"):
        state.recent_withdrawn_prefixes("v0")
    # below a committed floor it is never read at all
    state.rib_markers["v0"] = {"chunks": 0, "delta_floor": 1}
    assert len(state.rebuild_loc_rib("v0")) == 0


# ----------------------------------------------------------------------
# a malformed UPDATE costs the session, not the process
# ----------------------------------------------------------------------


def _raw_update(body):
    return MARKER + (19 + len(body)).to_bytes(2, "big") + b"\x02" + body


@pytest.mark.parametrize("body", [
    b"\x00\x00\x00\x00\x21\x0a\x00\x00\x00\x00",  # /33
    b"\x00\x00\x00\x00\x18\x0a\x01",               # /24 cut short
    b"\x00\x09\x18\x0a\x01\x01\x00\x00",           # withdrawn length past the body
    b"\x00\x00\x00\x40\x40\x01\x01\x00",           # attribute length past the body
], ids=["length-over-width", "truncated", "withdrawn-length", "attrs-length"])
def test_malformed_update_drops_the_session_with_a_notification(body):
    system, pair, remotes = build_tensor_fixture(seed=612, routes=20)
    engine = system.engine
    remote, session = remotes[0]
    gateway_session = next(iter(pair.speaker.sessions.values()))
    assert gateway_session.established
    drops = gateway_session.session_drops
    session.conn.send(_raw_update(body))
    engine.advance(1.0)
    assert gateway_session.session_drops == drops + 1
    assert any("protocol error" in line for _at, line in pair.speaker.log_lines)
    # the routes it had supplied went with the session
    assert len(pair.speaker.vrfs["v0"].loc_rib) == 0
