#!/usr/bin/env python3
"""BGP splitting and joint containers (§3.2.4).

Plans a container split for a set of client/AS peerings ("each BGP
container ... handles one AS or one client"), then demonstrates the
joint-container pattern live: two member BGP processes learn different
paths for the same prefix, and the iBGP-meshed joint container sees both
and picks the global optimum.

Run:  python examples/split_containers.py
"""

from repro.bgp import BgpSpeaker, PeerConfig, SpeakerConfig
from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.prefixes import Prefix
from repro.core.splitting import PeeringSpec, plan_split
from repro.metrics import format_table
from repro.sim import Engine, Network
from repro.tcpsim import TcpStack


def plan_demo():
    peerings = [
        PeeringSpec("acme", 64512, "192.0.2.1"),
        PeeringSpec("acme", 64513, "192.0.2.2"),
        PeeringSpec("globex", 64514, "192.0.2.3", share_group="anycast-cdn"),
        PeeringSpec("initech", 64515, "192.0.2.4", share_group="anycast-cdn"),
        PeeringSpec("umbrella", 64516, "192.0.2.5"),
    ]
    plan = plan_split(peerings, max_peers_per_container=2)
    rows = [
        [a.name, ", ".join(f"{p.client}/AS{p.asn}" for p in a.peerings),
         ", ".join(a.vrf_names())]
        for a in plan.assignments
    ]
    print(format_table(["container", "peerings", "VRFs"], rows,
                       title="Split plan (one client per container)"))
    for joint in plan.joints:
        print(f"joint container {joint.name}: iBGP mesh with "
              f"{', '.join(joint.member_names)} (share group "
              f"{joint.share_group!r})")
    print()
    return plan


def joint_routing_demo():
    engine = Engine()
    network = Network(engine)
    network.enable_fabric()
    speakers = {}
    for name, addr in (("member-1", "10.0.1.1"), ("member-2", "10.0.1.2"),
                       ("joint", "10.0.1.3")):
        host = network.add_host(name, addr)
        speakers[name] = BgpSpeaker(
            engine, TcpStack(engine, host), SpeakerConfig(name, 65001, addr)
        )
        speakers[name].add_vrf("shared")
    speakers["joint"].add_peer(
        PeerConfig("10.0.1.1", 65001, vrf_name="shared", mode="passive"))
    speakers["joint"].add_peer(
        PeerConfig("10.0.1.2", 65001, vrf_name="shared", mode="passive"))
    speakers["member-1"].add_peer(
        PeerConfig("10.0.1.3", 65001, vrf_name="shared", mode="active"))
    speakers["member-2"].add_peer(
        PeerConfig("10.0.1.3", 65001, vrf_name="shared", mode="active"))
    for speaker in speakers.values():
        speaker.start()
    engine.advance(5.0)

    # both members learn the same prefix from their own external peers,
    # with different preferences (e.g. one path is a backup transit)
    prefix = Prefix.parse("203.0.113.0/24")
    speakers["member-1"].originate(
        "shared", prefix,
        PathAttributes(as_path=AsPath.sequence(64512), next_hop="10.0.1.1",
                       local_pref=100),
    )
    speakers["member-2"].originate(
        "shared", prefix,
        PathAttributes(as_path=AsPath.sequence(64999), next_hop="10.0.1.2",
                       local_pref=300),
    )
    engine.advance(5.0)

    joint_rib = speakers["joint"].vrfs["shared"].loc_rib
    best = joint_rib.best(prefix)
    candidates = joint_rib.candidates(prefix)
    print(f"joint container sees {len(candidates)} paths for {prefix}:")
    for peer_id, route in sorted(candidates.items()):
        marker = "  <== best (global optimum)" if route is best else ""
        print(f"   via {peer_id}: local-pref "
              f"{route.attributes.local_pref}{marker}")
    assert best.attributes.local_pref == 300


def main():
    plan_demo()
    joint_routing_demo()


if __name__ == "__main__":
    main()
