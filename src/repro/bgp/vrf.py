"""VRF: virtual routing and forwarding instances.

§3.1.2: "the main thread may maintain multiple BGP routing tables using
the virtual routing and forwarding (VRF) technique, where each VRF
usually corresponds to a peering AS".  A VRF bundles a Loc-RIB with the
peers assigned to it; the underlay binds each VRF to a VXLAN segment on
the host (§3.2.3).
"""

from repro.bgp.rib import LocRib


class Vrf:
    """One routing instance inside a BGP process."""

    def __init__(self, name, local_as, router_id, vxlan_vni=None):
        self.name = name
        self.local_as = local_as
        self.router_id = router_id
        self.vxlan_vni = vxlan_vni
        self.loc_rib = LocRib(local_as=local_as, router_id=router_id)
        self.peer_ids = set()

    def attach_peer(self, peer_id):
        self.peer_ids.add(peer_id)

    def route_count(self):
        return len(self.loc_rib)

    def __repr__(self):
        return f"<Vrf {self.name!r} as={self.local_as} routes={len(self.loc_rib)}>"
