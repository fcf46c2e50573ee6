"""BGP splitting and joint-container planning (§3.2.4)."""

from repro.core.splitting import (
    JointContainerSpec,
    PeeringSpec,
    SplitPlan,
    plan_split,
)
from repro.sim.rand import DeterministicRandom


def _peerings():
    return [
        PeeringSpec("clientA", 64512, "192.0.2.1"),
        PeeringSpec("clientA", 64513, "192.0.2.2"),
        PeeringSpec("clientB", 64514, "192.0.2.3"),
        PeeringSpec("clientC", 64515, "192.0.2.4", share_group="cdn"),
        PeeringSpec("clientD", 64516, "192.0.2.5", share_group="cdn"),
    ]


def test_one_peering_per_container_by_default():
    plan = plan_split(_peerings())
    assert len(plan.assignments) == 5
    for assignment in plan.assignments:
        assert len(assignment.peerings) == 1


def test_same_client_groups_when_limit_allows():
    plan = plan_split(_peerings(), max_peers_per_container=2)
    [clientA] = [a for a in plan.assignments
                 if any(p.client == "clientA" for p in a.peerings)]
    assert {p.asn for p in clientA.peerings} == {64512, 64513}


def test_clients_never_mix():
    plan = plan_split(_peerings(), max_peers_per_container=10)
    for assignment in plan.assignments:
        clients = {p.client for p in assignment.peerings}
        assert len(clients) == 1


def test_joint_container_for_share_group():
    plan = plan_split(_peerings())
    assert len(plan.joints) == 1
    joint = plan.joints[0]
    assert joint.share_group == "cdn"
    assert len(joint.member_names) == 2


def test_no_joint_for_single_member_group():
    peerings = [PeeringSpec("x", 1, "192.0.2.9", share_group="solo")]
    plan = plan_split(peerings)
    assert plan.joints == []


def test_container_count_includes_joints():
    plan = plan_split(_peerings())
    assert len(plan.assignments) + len(plan.joints) == 6


def test_vrf_names_unique_per_peering():
    plan = plan_split(_peerings(), max_peers_per_container=2)
    names = [v for a in plan.assignments for v in a.vrf_names()]
    assert len(names) == len(set(names))


def test_assignment_of_missing_returns_none():
    plan = plan_split(_peerings())
    placed = [(p.client, p.asn) for a in plan.assignments for p in a.peerings]
    assert sorted(placed) == sorted((p.client, p.asn) for p in _peerings())
    assert ("nobody", 99) not in placed


def test_deterministic_naming():
    plan = plan_split(_peerings(), name_prefix="bgp")
    assert plan.assignments[0].name == "bgp-0"
    assert plan.joints[0].name == "bgp-joint-cdn"


def test_joint_containers_share_information_via_ibgp(engine, network):
    """Figure 4: two member speakers + a joint speaker iBGP-meshed; the
    joint sees routes from both members and can pick the global best."""

    from repro.bgp import BgpSpeaker, PeerConfig, SpeakerConfig
    from repro.tcpsim import TcpStack
    from repro.workloads.updates import RouteGenerator

    network.enable_fabric()
    hosts = {
        name: network.add_host(name, addr)
        for name, addr in (
            ("member1", "10.0.1.1"), ("member2", "10.0.1.2"), ("joint", "10.0.1.3"),
        )
    }
    speakers = {}
    for name, host in hosts.items():
        stack = TcpStack(engine, host)
        speakers[name] = BgpSpeaker(
            engine, stack, SpeakerConfig(name, 65001, host.address)
        )
        speakers[name].add_vrf("shared")
    # joint is passive; members connect to it (full mesh to the joint)
    speakers["joint"].add_peer(PeerConfig("10.0.1.1", 65001, vrf_name="shared", mode="passive"))
    speakers["joint"].add_peer(PeerConfig("10.0.1.2", 65001, vrf_name="shared", mode="passive"))
    m1 = speakers["member1"].add_peer(PeerConfig("10.0.1.3", 65001, vrf_name="shared", mode="active"))
    m2 = speakers["member2"].add_peer(PeerConfig("10.0.1.3", 65001, vrf_name="shared", mode="active"))
    for speaker in speakers.values():
        speaker.start()
    engine.advance(5.0)
    assert m1.established and m2.established
    gen = RouteGenerator(DeterministicRandom(3), 65001, next_hop="10.0.1.1")
    # both members originate the same prefix with different local-pref
    prefix = gen.prefixes(1)[0]
    speakers["member1"].originate("shared", prefix, gen.attr_pool[0].replace(local_pref=100))
    speakers["member2"].originate("shared", prefix, gen.attr_pool[0].replace(local_pref=300))
    engine.advance(5.0)
    joint_rib = speakers["joint"].vrfs["shared"].loc_rib
    best = joint_rib.best(prefix)
    assert best is not None
    assert best.attributes.local_pref == 300  # the global optimum won
    assert len(joint_rib.candidates(prefix)) == 2  # saw both members
