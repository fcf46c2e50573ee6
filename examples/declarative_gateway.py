#!/usr/bin/env python3
"""Declarative deployment: a gateway cluster from a JSON-style spec.

The same shape an operator's gateway.json would take — machines, pairs,
neighbors, interception technology, optional disaster-recovery store —
validated and built by :mod:`repro.config`.

Run:  python examples/declarative_gateway.py
"""

import random

from repro.config import build_system
from repro.failures import FailureInjector
from repro.workloads.updates import RouteGenerator

GATEWAY_SPEC = {
    "seed": 11,
    "hook_technology": "ebpf",                       # §5 future work, built
    "remote_db": {"latency": 0.005, "mode": "async"},  # DR copy, §5
    "machines": [
        {"name": "gw-1", "address": "10.1.0.1"},
        {"name": "gw-2", "address": "10.2.0.1"},
    ],
    "pairs": [
        {
            "name": "acme-transit",
            "primary": "gw-1", "backup": "gw-2",
            "service_addr": "10.10.0.1",
            "local_as": 65001, "router_id": "10.10.0.1",
            "neighbors": [
                {"remote_addr": "192.0.2.1", "remote_as": 64512,
                 "vrf": "acme", "mode": "passive"},
            ],
        },
        {
            "name": "globex-peering",
            "primary": "gw-2", "backup": "gw-1",   # spread primaries
            "service_addr": "10.10.1.1",
            "local_as": 65001, "router_id": "10.10.1.1",
            "neighbors": [
                {"remote_addr": "192.0.2.2", "remote_as": 64513,
                 "vrf": "globex", "mode": "passive"},
            ],
        },
    ],
    "remotes": [
        {"name": "acme", "address": "192.0.2.1", "asn": 64512,
         "links": ["gw-1", "gw-2"],
         "peer": {"gateway": "10.10.0.1", "gateway_as": 65001, "vrf": "acme"}},
        {"name": "globex", "address": "192.0.2.2", "asn": 64513,
         "links": ["gw-1", "gw-2"],
         "peer": {"gateway": "10.10.1.1", "gateway_as": 65001, "vrf": "globex"}},
    ],
}


def main():
    system, pairs, remotes = build_system(GATEWAY_SPEC)
    system.run(10.0)
    print("deployment up:")
    for name, pair in pairs.items():
        print(f"  {name}: active on {pair.active_machine.name}, "
              f"{pair.established_session_count()} session(s), "
              f"interception={pair.stack.nfqueue.technology}")

    # push routes from both remote ASes
    for index, (name, remote) in enumerate(remotes.items()):
        gen = RouteGenerator(random.Random(index), remote.asn,
                             next_hop=remote.host.address)
        session = list(remote.speaker.sessions.values())[0]
        remote.speaker.originate_many(session.config.vrf_name, gen.routes(250))
        remote.speaker.readvertise(session)
    system.run(5.0)
    for name, pair in pairs.items():
        routes = sum(len(vrf.loc_rib) for vrf in pair.speaker.vrfs.values())
        print(f"  {name}: learned {routes} routes")

    # kill BOTH primaries at once: the pairs migrate independently, in
    # opposite directions (each machine backs the other's pairs)
    injector = FailureInjector(system)
    for pair in pairs.values():
        injector.inject("container", pair, {})
    system.run(40.0)
    print("after simultaneous container failures:")
    for name, pair in pairs.items():
        session = list(remotes[name.split("-")[0]].speaker.sessions.values())[0]
        routes = sum(len(vrf.loc_rib) for vrf in pair.speaker.vrfs.values())
        print(f"  {name}: active on {pair.active_machine.name}, "
              f"remote session {session.state.value}, {routes} routes")
        assert session.established and routes == 250
    print("both pairs migrated with sessions intact")


if __name__ == "__main__":
    main()
