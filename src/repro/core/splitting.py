"""BGP splitting and joint containers (§3.2.4).

"TENSOR revolutionizes this setup by splitting the BGP routing of one
border router into multiple containers, where each container hosts only
one BGP process and supports the minimum number of BGP connections
necessary ...  As a general rule, each BGP container is divided in such a
way that it handles one AS or one client ...  In such scenarios
[requiring shared global information], we introduce an additional joint
BGP container that synchronizes the required information between these
separate containers with the iBGP protocol."
"""


class PeeringSpec:
    """One peering to place: a (client, AS) pair with its peer address."""

    def __init__(self, client, asn, remote_addr, vrf_name=None, share_group=None):
        self.client = client
        self.asn = asn
        self.remote_addr = remote_addr
        self.vrf_name = vrf_name or f"vrf-{client}-{asn}"
        #: peerings in the same share group need global information shared
        #: through a joint container
        self.share_group = share_group

    def __repr__(self):
        return f"<PeeringSpec {self.client}/AS{self.asn} {self.remote_addr}>"


class ContainerAssignment:
    """One planned container: the peerings it will host."""

    def __init__(self, name, peerings):
        self.name = name
        self.peerings = list(peerings)

    def vrf_names(self):
        return [p.vrf_name for p in self.peerings]

    def __repr__(self):
        return f"<ContainerAssignment {self.name} peers={len(self.peerings)}>"


class JointContainerSpec:
    """A joint container iBGP-meshed with its member containers."""

    def __init__(self, name, share_group, member_names):
        self.name = name
        self.share_group = share_group
        self.member_names = list(member_names)

    def __repr__(self):
        return (
            f"<JointContainerSpec {self.name} group={self.share_group}"
            f" members={self.member_names}>"
        )


class SplitPlan:
    """The output of :func:`plan_split`."""

    def __init__(self, assignments, joints):
        self.assignments = assignments
        self.joints = joints

    def __repr__(self):
        return f"<SplitPlan containers={len(self.assignments)} joints={len(self.joints)}>"


def plan_split(peerings, max_peers_per_container=1, name_prefix="bgp"):
    """Assign peerings to containers and plan joint containers.

    The general rule is one AS or one client per container
    (``max_peers_per_container=1``); raising the limit groups peerings of
    the *same client* to model the "support a few peers using VRF" case.
    Peerings that declare a ``share_group`` additionally get a joint
    container that iBGP-meshes their host containers.
    """
    assignments = []
    index = 0
    # group by client so a multi-AS client can share a container when the
    # limit allows, but never mix clients
    by_client = {}
    for peering in peerings:
        by_client.setdefault(peering.client, []).append(peering)
    for client in sorted(by_client):
        client_peerings = by_client[client]
        for start in range(0, len(client_peerings), max_peers_per_container):
            chunk = client_peerings[start : start + max_peers_per_container]
            assignments.append(ContainerAssignment(f"{name_prefix}-{index}", chunk))
            index += 1

    joints = []
    groups = {}
    for assignment in assignments:
        for peering in assignment.peerings:
            if peering.share_group is not None:
                groups.setdefault(peering.share_group, set()).add(assignment.name)
    for group in sorted(groups):
        members = sorted(groups[group])
        if len(members) > 1:
            joints.append(
                JointContainerSpec(f"{name_prefix}-joint-{group}", group, members)
            )
    return SplitPlan(assignments, joints)
