"""Sharded container-fleet workload for the parallel runtime.

The scenario models a multi-site deployment: each *site* is one full
TENSOR cluster (controller, database, agent, gateway machines, container
pairs with their peering ASes) — an independent simulation universe —
plus one border router that speaks eBGP with the neighbouring sites'
border routers over WAN links.  The sites are the shards: everything
inside a site is dense local traffic (BFD at millisecond cadence,
supervision polls, route churn), while the only cross-shard coupling is
the border mesh, whose 20 ms WAN latency is exactly the conservative
lookahead the parallel runtime synchronizes on.

Builders here follow the :mod:`repro.sim.parallel.runtime` contract: all
timed setup (route origination, border bring-up, churn) is *scheduled*,
never run, so a site shard does zero simulation work at build time and
every cross-shard byte flows through the windowed barriers.
"""

from repro.bgp.peer import PeerConfig
from repro.bgp.speaker import BgpSpeaker, SpeakerConfig
from repro.config import build_system
from repro.sim.parallel.boundary import BoundaryLink
from repro.sim.parallel.runtime import ShardSpec
from repro.sim.rand import DeterministicRandom
from repro.tcpsim.stack import TcpStack
from repro.workloads.updates import RouteGenerator

#: WAN latency between sites — the parallel lookahead bound.
WAN_LATENCY = 0.02
WAN_BANDWIDTH = 10e9

#: Engine event scope tagging the WAN border subsystem — the only part
#: of a site that can emit cross-shard frames.  The site's dense local
#: cadence (BFD, supervision, route churn) stays outside the scope, so
#: the parallel runtime's adaptive lookahead can widen windows to the
#: border's next timer instead of the site's next millisecond tick.
BORDER_SCOPE = "wan-border"

#: virtual-time schedule inside every site (overridable per spec via
#: the ``routes_at``/``border_at``/``churn_at`` params — the 1000-
#: container configuration compresses the timeline so the benchmark
#: spends its wall-clock on load, not on idle warm-up)
ROUTES_AT = 12.0
BORDER_AT = 15.0
CHURN_AT = 18.0


def border_address(site):
    return f"172.16.{site}.1"


def border_asn(site):
    return 65100 + site


def _ring_neighbors(site, sites):
    """The neighbouring site indices on the ring (deduplicated)."""
    if sites <= 1:
        return []
    neighbors = {(site - 1) % sites, (site + 1) % sites}
    neighbors.discard(site)
    return sorted(neighbors)


def site_spec(site, seed, pairs, machine_count, tracing):
    """One site's cluster as a :mod:`repro.config` spec: pair ``i``
    primary on machine ``i`` and backup on the next (round robin), each
    serving one remote AS that links to every machine."""
    machines = [f"s{site}-gw-{m + 1}" for m in range(max(2, machine_count))]
    return {
        "seed": seed * 1009 + site,
        "tracing": tracing,
        "machines": [{"name": name, "address": f"10.{m + 1}.0.1"}
                     for m, name in enumerate(machines)],
        "pairs": [
            {"name": f"s{site}p{i}",
             "primary": machines[i % len(machines)],
             "backup": machines[(i + 1) % len(machines)],
             "service_addr": f"10.10.{i}.1", "local_as": 65001,
             "router_id": f"10.10.{i}.1",
             "neighbors": [{"remote_addr": f"192.0.2.{i + 1}",
                            "remote_as": 64512 + i, "vrf": "v0"}]}
            for i in range(pairs)
        ],
        "remotes": [
            {"name": f"s{site}r{i}", "address": f"192.0.2.{i + 1}",
             "asn": 64512 + i, "links": machines,
             "peer": {"gateway": f"10.10.{i}.1", "gateway_as": 65001,
                      "vrf": "v0"}}
            for i in range(pairs)
        ],
    }


class FleetSiteProgram:
    """One site: a :func:`site_spec` cluster plus a WAN border router."""

    def __init__(self, shard_id, params, boundary):
        site = params["site"]
        sites = params["sites"]
        pairs = params.get("pairs", 4)
        machine_count = params.get("machines", 2)
        routes = params.get("routes", 50)
        border_routes = params.get("border_routes", 20)
        churn_ticks = params.get("churn_ticks", 4)
        churn_interval = params.get("churn_interval", 5.0)
        seed = params.get("seed", 0)
        tracing = params.get("tracing", False)
        routes_at = params.get("routes_at", ROUTES_AT)
        border_at = params.get("border_at", BORDER_AT)
        churn_at = params.get("churn_at", CHURN_AT)

        self.site = site
        self.system, _pairs, remotes = build_system(
            site_spec(site, seed, pairs, machine_count, tracing))
        self.engine = engine = self.system.engine
        rand = DeterministicRandom(seed * 7919 + site)
        self.remotes = [(remote, remote.sessions[0])
                        for remote in remotes.values()]

        # intra-site route load + a deterministic churn block per remote
        self._route_sets = []
        self._churn_sets = []
        for i in range(pairs):
            gen = RouteGenerator(rand.fork(f"pair{i}"), 64512 + i,
                                 next_hop=f"192.0.2.{i + 1}")
            self._route_sets.append(gen.routes(routes, base=f"10.{32 + i}.0.0"))
            self._churn_sets.append(gen.routes(
                max(1, routes // 4), base=f"10.{64 + i}.0.0"
            ))
        engine.schedule(routes_at, self._originate_initial)
        self._churn_ticks = churn_ticks
        self._churn_interval = churn_interval
        if churn_ticks:
            engine.schedule(churn_at, self._churn, 0)

        # the border router: one eBGP speaker facing the neighbouring
        # sites.  Everything that can cause a WAN (cross-shard) send is
        # built and scheduled under BORDER_SCOPE, so events the border
        # spawns — TCP timers, BGP keepalives, MRAI flushes — inherit
        # the scope transitively and next_outbound_time() below stays a
        # sound bound for the adaptive lookahead.
        with engine.scoped(BORDER_SCOPE):
            self.border_host = self.system.network.add_host(
                f"s{site}-border", border_address(site)
            )
            self.border_stack = TcpStack(engine, self.border_host)
            self.border = BgpSpeaker(
                engine,
                self.border_stack,
                SpeakerConfig(f"border{site}", border_asn(site),
                              border_address(site), profile="frr"),
            )
            self.border.add_vrf("wan")
            for neighbor in _ring_neighbors(site, sites):
                # exactly one active endpoint per ring edge
                self.border.add_peer(PeerConfig(
                    border_address(neighbor),
                    border_asn(neighbor),
                    vrf_name="wan",
                    mode="active" if site < neighbor else "passive",
                ))
            border_gen = RouteGenerator(rand.fork("border"), border_asn(site),
                                        next_hop=border_address(site))
            self.border.originate_many(
                "wan",
                border_gen.routes(border_routes, base=f"10.{128 + site}.0.0")
            )
            engine.schedule(border_at, self.border.start)

        # WAN edges exist as stub-host links from here on; every border
        # packet to a neighbour is exported at a window barrier.
        # Inbound WAN frames are injected under the border scope too —
        # their causal closure is border activity.
        boundary.inject_scope = BORDER_SCOPE
        boundary.attach(self.system.network)

    # -- scheduled workload -------------------------------------------------

    def _originate_initial(self):
        for (remote, session), routes in zip(self.remotes, self._route_sets):
            remote.speaker.originate_many("v0", routes)
            remote.speaker.readvertise(session)

    def _churn(self, tick):
        withdraw = tick % 2
        for (remote, _session), block in zip(self.remotes, self._churn_sets):
            for prefix, attrs in block:
                if withdraw:
                    remote.speaker.withdraw_originated("v0", prefix)
                else:
                    remote.speaker.originate("v0", prefix, attrs)
        if tick + 1 < self._churn_ticks:
            self.engine.schedule(self._churn_interval, self._churn, tick + 1)

    # -- runtime contract ---------------------------------------------------

    def next_outbound_time(self):
        """Earliest instant anything border-scoped can happen — the
        adaptive-lookahead bound for this site.  Intra-site load (BFD
        ticks, supervision, churn) is invisible here by design: it can
        never reach the WAN."""
        return self.engine.next_event_time(BORDER_SCOPE)

    def results(self):
        out = {
            "site": self.site,
            "rib": self.system.rib_digest(),
            "border_rib": self.border.vrfs["wan"].loc_rib.digest(),
            "border_established": len(self.border.established_sessions()),
            "containers": sum(
                len(machine.containers) for machine in self.system.machines.values()
            ),
            "packets_sent": self.system.network.packets_sent,
        }
        store = self.system.trace_store
        if store is not None:
            out["phase_summary"] = store.phase_summary()
        return out


def build_fleet_site(shard_id, params, boundary):
    """Spawn-safe ShardSpec builder (``repro.workloads.fleet:build_fleet_site``)."""
    return FleetSiteProgram(shard_id, params, boundary)


def fleet_site_specs(sites, pairs=4, routes=50, border_routes=20, seed=0,
                     churn_ticks=4, churn_interval=5.0, tracing=False,
                     machines=2, routes_at=ROUTES_AT, border_at=BORDER_AT,
                     churn_at=CHURN_AT):
    """ShardSpecs for a ``sites``-site fleet on a WAN ring.

    Each site runs ``pairs * 2`` containers (active + backup per pair)
    spread over ``machines`` gateway machines; weight is the pair
    count, which is what the LPT partitioner balances across workers.
    ``routes_at``/``border_at``/``churn_at`` shift the in-site schedule
    (route origination, border bring-up, churn start).
    """
    specs = []
    for site in range(sites):
        links = tuple(
            BoundaryLink(
                border_address(site),
                border_address(neighbor),
                f"site{neighbor}",
                latency=WAN_LATENCY,
                bandwidth=WAN_BANDWIDTH,
            )
            for neighbor in _ring_neighbors(site, sites)
        )
        specs.append(ShardSpec(
            f"site{site}",
            "repro.workloads.fleet:build_fleet_site",
            params={
                "site": site,
                "sites": sites,
                "pairs": pairs,
                "machines": machines,
                "routes": routes,
                "border_routes": border_routes,
                "seed": seed,
                "churn_ticks": churn_ticks,
                "churn_interval": churn_interval,
                "tracing": tracing,
                "routes_at": routes_at,
                "border_at": border_at,
                "churn_at": churn_at,
            },
            links=links,
            weight=float(pairs),
        ))
    return specs


#: the 1000-container configuration: 16 sites x 32 pairs x 2 containers
#: = 1024 containers on a compressed schedule, benchmarked by
#: ``benchmarks/bench_parallel_fleet.py`` (run for FLEET_1K_DURATION).
FLEET_1K_DURATION = 8.0


def fleet_1k_specs(seed=0, tracing=False):
    """ShardSpecs for the 1024-container fleet row of BENCH_parallel.

    Route counts are trimmed per pair (the point is container/session
    scale, not table depth) and the site schedule is compressed so the
    run reaches origination, border convergence, and churn within
    ``FLEET_1K_DURATION`` virtual seconds.
    """
    return fleet_site_specs(
        16, pairs=32, machines=8, routes=12, border_routes=8, seed=seed,
        churn_ticks=2, churn_interval=2.0, tracing=tracing,
        routes_at=3.0, border_at=4.0, churn_at=6.0,
    )
