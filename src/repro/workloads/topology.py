"""Topology builders: remote peering ASes and downtime observers.

A :class:`RemotePeerAs` is the router on the other side of a peering
link: a baseline (FRR-profile) BGP speaker plus a BFD process, on its own
host, connected to the gateway by a dedicated 100 Gbps link — the
paper's experimental setup ("one installs TENSOR and the other installs
FRRouting to represent the peering AS").

The :class:`DowntimeObserver` watches the remote side and accumulates
*link downtime* the way the paper accounts it: any interval during which
the remote router has withdrawn the routes (session down or BFD down) is
downtime; TENSOR's claim is that this stays zero across failures.
"""

from repro.bfd.process import BfdProcess
from repro.bgp.peer import PeerConfig
from repro.bgp.speaker import BgpSpeaker, SpeakerConfig
from repro.sim.calibration import PEERING_LINK_BANDWIDTH, PEERING_LINK_LATENCY
from repro.tcpsim.stack import TcpStack


class RemotePeerAs:
    """The peering AS's border router."""

    def __init__(self, engine, network, name, address, asn, rng=None):
        self.engine = engine
        self.network = network
        self.name = name
        self.asn = asn
        self.host = network.add_host(name, address)
        self.stack = TcpStack(engine, self.host)
        self.speaker = BgpSpeaker(
            engine,
            self.stack,
            SpeakerConfig(name, asn, address, profile="frr"),
        )
        self.bfd = BfdProcess(engine, self.host, rng=rng)
        self.sessions = []

    def peer_with(self, gateway_addr, gateway_as, vrf_name="default", mode="active",
                  hold_time=90, keepalive_interval=30):
        """Configure the session towards the gateway."""
        self.speaker.add_vrf(vrf_name)
        session = self.speaker.add_peer(
            PeerConfig(
                gateway_addr,
                gateway_as,
                vrf_name=vrf_name,
                mode=mode,
                hold_time=hold_time,
                keepalive_interval=keepalive_interval,
            )
        )
        self.sessions.append(session)
        self.bfd.add_session(vrf_name, gateway_addr)
        return session

    def start(self):
        self.speaker.start()
        self.bfd.start()

    def link_to(self, machine_host, bandwidth=PEERING_LINK_BANDWIDTH,
                latency=PEERING_LINK_LATENCY, loss=0.0):
        return self.network.connect(
            self.host, machine_host, latency=latency, bandwidth=bandwidth, loss=loss
        )


def build_remote_peer(system, name, address, asn, link_machines=()):
    """Create a remote AS inside a :class:`~repro.core.system.TensorSystem`
    and link it to the given gateway machines (and the agent server)."""
    peer = RemotePeerAs(
        system.engine,
        system.network,
        name,
        address,
        asn,
        rng=system.rng.stream(f"remote:{name}"),
    )
    for machine in link_machines:
        peer.link_to(machine.host)
    peer.link_to(system.agent_host)
    return peer


class DowntimeObserver:
    """Accumulates remote-visible link downtime.

    Polls the remote router's view: the link is *up* when the BGP session
    is established (or held by graceful restart) AND the learned routes
    are still present.  ``total_downtime`` is the paper's headline metric.
    """

    def __init__(self, engine, remote_session, vrf, expect_routes=1, interval=0.01):
        self.engine = engine
        self.session = remote_session
        self.vrf = vrf
        self.expect_routes = expect_routes
        self.interval = interval
        self.total_downtime = 0.0
        self.transitions = []  # (time, up->down | down->up)
        self._down_since = None
        self._polling = None

    def start(self):
        self._poll()

    def _is_up(self):
        if not self.session.established:
            # graceful restart holds routes while the session re-forms
            if not self.session.gr_timer.armed:
                return False
        return len(self.vrf.loc_rib) >= self.expect_routes

    def _poll(self):
        up = self._is_up()
        now = self.engine.now
        if up and self._down_since is not None:
            self.total_downtime += now - self._down_since
            self.transitions.append((now, "down->up"))
            self._down_since = None
        elif not up and self._down_since is None:
            self._down_since = now
            self.transitions.append((now, "up->down"))
        self._polling = self.engine.schedule(self.interval, self._poll)

    def stop(self):
        if self._polling is not None:
            self._polling.cancel()
        if self._down_since is not None:
            self.total_downtime += self.engine.now - self._down_since
            self._down_since = None
