"""MRAI pacing modes (DESIGN.md §13).

The fuzzer mutates ``mrai_mode`` / per-peer ``mrai`` as a config
dimension, so the three modes need direct behavioural pins:

- ``per_speaker`` (default) — one flush timer for the whole process;
  this is the historical behaviour and must stay bit-identical.
- ``per_peer`` — each session flushes on its own timer; a slow peer's
  long MRAI must not delay a fast peer.
- ``per_prefix`` — a prefix re-advertised within the pacing window is
  deferred until the window opens; distinct prefixes are unaffected.
"""

from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.bgp.peer import PeerConfig
from repro.bgp.prefixes import Prefix, prefix_text
from repro.bgp.speaker import BgpSpeaker, SpeakerConfig
from repro.sim import Engine, Network
from repro.tcpsim.stack import TcpStack


def _attrs(asn, next_hop):
    return PathAttributes(
        origin=Origin.IGP, as_path=AsPath.sequence(asn), next_hop=next_hop
    )


def _build_pair_of_speakers(mrai_mode="per_speaker", gateway_mrai=0.05,
                            peer_mrais=(None, None)):
    """A gateway speaker with two eBGP peers, sessions established."""
    engine = Engine()
    network = Network(engine)
    gw_host = network.add_host("gw", "10.0.0.1")
    gw = BgpSpeaker(
        engine, TcpStack(engine, gw_host),
        SpeakerConfig("gw", 65001, "10.0.0.1", mrai=gateway_mrai,
                      mrai_mode=mrai_mode),
    )
    remotes = []
    for index, peer_mrai in enumerate(peer_mrais):
        addr = f"10.0.0.{index + 2}"
        host = network.add_host(f"r{index}", addr)
        remote = BgpSpeaker(
            engine, TcpStack(engine, host),
            SpeakerConfig(f"r{index}", 64512 + index, addr),
        )
        network.connect(gw_host, host, latency=0.001, bandwidth=1e9)
        gw.add_peer(PeerConfig(addr, 64512 + index, vrf_name="v0",
                               mode="passive", mrai=peer_mrai))
        remote.add_vrf("v0")
        remote.add_peer(PeerConfig("10.0.0.1", 65001, vrf_name="v0",
                                   mode="active"))
        remotes.append(remote)
    gw.start()
    for remote in remotes:
        remote.start()
    engine.advance(5.0)
    for remote in remotes:
        assert len(remote.established_sessions()) == 1
    return engine, gw, remotes


def _learned(remote):
    return set(map(prefix_text, remote.vrfs["v0"].loc_rib.prefixes()))


def test_per_speaker_mode_is_the_default_and_flushes_globally():
    engine, gw, (r0, r1) = _build_pair_of_speakers()
    assert gw.config.mrai_mode == "per_speaker"
    r0.originate("v0", Prefix.parse("10.1.0.0/24"), _attrs(64512, "10.0.0.2"))
    engine.advance(2.0)
    assert "10.1.0.0/24" in _learned(r1)


def test_per_peer_mrai_slow_peer_does_not_delay_fast_peer():
    # r0 originates; gw propagates to r1 (fast, 0.05 s) and would to a
    # third slow peer.  Use asymmetric per-peer MRAI: r1 gets 2.0 s, so
    # routes originated by r1 reach r0 (0.05 s default) quickly while
    # the reverse direction is paced by the 2 s override.
    engine, gw, (r0, r1) = _build_pair_of_speakers(
        mrai_mode="per_peer", peer_mrais=(None, 2.0)
    )
    r0.originate("v0", Prefix.parse("10.1.0.0/24"), _attrs(64512, "10.0.0.2"))
    r1.originate("v0", Prefix.parse("10.2.0.0/24"), _attrs(64513, "10.0.0.3"))
    engine.advance(1.0)
    # r0's route towards r1 rides the 2 s per-peer timer: not yet there
    assert "10.1.0.0/24" not in _learned(r1)
    # r1's route towards r0 rides the default 0.05 s timer: arrived
    assert "10.2.0.0/24" in _learned(r0)
    engine.advance(3.0)
    assert "10.1.0.0/24" in _learned(r1)


def test_per_prefix_mrai_paces_readvertisement_of_same_prefix():
    engine, gw, (r0, r1) = _build_pair_of_speakers(
        mrai_mode="per_prefix", gateway_mrai=0.5
    )
    prefix = Prefix.parse("10.1.0.0/24")
    r0.originate("v0", prefix, _attrs(64512, "10.0.0.2"))
    engine.advance(1.0)
    assert "10.1.0.0/24" in _learned(r1)
    first = r1.sessions[next(iter(r1.sessions))].updates_received

    # flap the same prefix twice quickly: the second change lands inside
    # the pacing window and must be deferred, not dropped
    r0.withdraw_originated("v0", prefix)
    r0.originate("v0", prefix, _attrs(64512, "10.0.0.2"))
    engine.advance(0.1)
    r0.withdraw_originated("v0", prefix)
    engine.advance(5.0)
    # the final state (withdrawn) must have converged despite pacing
    assert "10.1.0.0/24" not in _learned(r1)
    session = r1.sessions[next(iter(r1.sessions))]
    assert session.updates_received > first


def test_per_prefix_mode_distinct_prefixes_flush_independently():
    engine, gw, (r0, r1) = _build_pair_of_speakers(
        mrai_mode="per_prefix", gateway_mrai=1.0
    )
    r0.originate("v0", Prefix.parse("10.1.0.0/24"), _attrs(64512, "10.0.0.2"))
    engine.advance(2.0)
    assert "10.1.0.0/24" in _learned(r1)
    # a different prefix is not paced by the first one's window
    r0.originate("v0", Prefix.parse("10.3.0.0/24"), _attrs(64512, "10.0.0.2"))
    engine.advance(2.0)
    assert "10.3.0.0/24" in _learned(r1)
