"""The underlay network: VXLAN on the host, vEth into the container.

§3.2.3: "we bind each VRF to a pair of virtual Ethernet interfaces
(vEth) — one inside the container and one on the host — and use a bridge
to connect the VXLAN to the vEth on the host.  In this way, the VRF is
bound to the VXLAN, and the containerization of the VRF is transparent
to any network components or middlewares outside the host."

For the simulation the operative effect is *address ownership*: the VRF's
service address answers on whichever machine currently hosts the active
container.  :class:`Underlay` owns that binding; moving it is the
network-side half of an NSR migration, and exactly one machine can hold
a binding at a time (the forwarding plane cannot split-brain).
"""


class VxlanSegment:
    """One VXLAN VNI terminated on a host machine."""

    def __init__(self, vni, machine):
        self.vni = vni
        self.machine = machine

    def __repr__(self):
        return f"<Vxlan vni={self.vni} on {self.machine.name}>"


class VethPair:
    """A vEth pair: host-side and container-side interface names."""

    def __init__(self, container, vrf_name):
        self.vrf_name = vrf_name
        self.host_if = f"veth-{container.name}-{vrf_name}"
        self.container_if = f"eth-{vrf_name}"

    def __repr__(self):
        return f"<VethPair {self.host_if}<->{self.container_if}>"


class Bridge:
    """The host bridge stitching a VXLAN to a vEth."""

    def __init__(self, machine, vxlan, veth):
        self.machine = machine
        self.vxlan = vxlan
        self.veth = veth

    def __repr__(self):
        return f"<Bridge {self.vxlan!r} ~ {self.veth!r} on {self.machine.name}>"


class ServiceBinding:
    """One service address currently answered by one machine."""

    def __init__(self, address, machine, endpoint, vxlan, veth, bridge):
        self.address = address
        self.machine = machine
        self.endpoint = endpoint  # the network Host answering the address
        self.vxlan = vxlan
        self.veth = veth
        self.bridge = bridge


class Underlay:
    """Service-address ownership across the gateway fleet."""

    def __init__(self, network):
        self.network = network
        self._bindings = {}  # address -> ServiceBinding
        self._vni_counter = 4096
        self.moves = 0

    def claim(self, address, machine, container, vrf_name="default"):
        """Bind ``address`` to ``container`` on ``machine``.

        Builds the VXLAN/vEth/bridge plumbing and registers the network
        endpoint.  Re-claiming an address moves it (the migration path) —
        the previous owner stops answering immediately.
        """
        previous = self._bindings.get(address)
        if previous is not None:
            self.moves += 1
            # the old endpoint stops answering for the address
            self.network.remove_host(previous.endpoint)
        self._vni_counter += 1
        vxlan = VxlanSegment(self._vni_counter, machine)
        veth = VethPair(container, vrf_name)
        bridge = Bridge(machine, vxlan, veth)
        endpoint = self.network.add_host(
            f"{container.name}.svc.{vrf_name}", address, anchor=machine.host, replace=True
        )
        binding = ServiceBinding(address, machine, endpoint, vxlan, veth, bridge)
        self._bindings[address] = binding
        return binding

    def __len__(self):
        return len(self._bindings)
