"""Fleet soak: a multi-pair deployment under a stream of mixed failures.

A miniature of the paper's two-year operational claim (§4.4): failures
drawn from the Table 1 mix hit a fleet of container pairs one after
another; every recovery must complete, every remote session must hold,
and total remote-visible downtime must stay zero.
"""


import pytest

from repro.config import build_system
from repro.failures import FailureInjector
from repro.workloads.topology import DowntimeObserver
from repro.workloads.updates import RouteGenerator
from repro.sim.rand import DeterministicRandom

PAIRS = 6
ROUTES = 100


def build_fleet(seed=700):
    machines = ["gw-1", "gw-2", "gw-3"]
    system, built_pairs, remotes = build_system({
        "seed": seed,
        "machines": [{"name": name, "address": f"10.{m + 1}.0.1"}
                     for m, name in enumerate(machines)],
        "pairs": [
            {"name": f"pair{i}", "primary": machines[i % 3],
             "backup": machines[(i + 1) % 3],
             "service_addr": f"10.10.{i}.1", "local_as": 65001,
             "router_id": f"10.10.{i}.1",
             "neighbors": [{"remote_addr": f"192.0.2.{i + 1}",
                            "remote_as": 64512 + i, "vrf": "v0"}]}
            for i in range(PAIRS)
        ],
        "remotes": [
            {"name": f"remote{i}", "address": f"192.0.2.{i + 1}",
             "asn": 64512 + i, "links": machines,
             "peer": {"gateway": f"10.10.{i}.1", "gateway_as": 65001,
                      "vrf": "v0"}}
            for i in range(PAIRS)
        ],
    })
    pairs = [(pair, remote, remote.sessions[0])
             for pair, remote in zip(built_pairs.values(), remotes.values())]
    observers = []
    system.engine.advance(12.0)
    gen = RouteGenerator(DeterministicRandom(seed), 64512, next_hop="192.0.2.1")
    for _pair, remote, session in pairs:
        remote.speaker.originate_many("v0", gen.routes(ROUTES))
        remote.speaker.readvertise(session)
    system.engine.advance(5.0)
    for _pair, remote, session in pairs:
        observer = DowntimeObserver(system.engine, session,
                                    remote.speaker.vrfs["v0"],
                                    expect_routes=ROUTES)
        observer.start()
        observers.append(observer)
    return system, pairs, observers


@pytest.mark.slow
def test_fleet_survives_mixed_failure_stream():
    system, pairs, observers = build_fleet()
    injector = FailureInjector(system)
    rng = DeterministicRandom(99).stream("failures")
    # a failure every ~25 s for a few virtual minutes, drawn from the
    # Table 1 mix (machine-level failures target non-fenced machines)
    for round_num in range(6):
        kind = rng.choices(
            ["application", "container", "host_network"],
            weights=[0.03, 0.13, 0.65],
        )[0]
        if kind in ("application", "container"):
            pair, _remote, _session = rng.choice(pairs)
            if kind == "application":
                injector.inject("application", pair, {})
            else:
                injector.inject("container", pair, {})
        else:
            candidates = [
                m for m in system.machines.values()
                if m.alive and m.host.network_up
                and not system.fencing.is_fenced(m.name)
                and any(p.active_machine is m for p, _r, _s in pairs)
            ]
            if not candidates:
                continue
            machine = rng.choice(candidates)
            pair = next(p for p, _r, _s in pairs if p.active_machine is machine)
            injector.inject("host_network", pair, {})
        system.engine.advance(25.0)
        # between failures the operators repair and unfence broken
        # machines (NSR's scope is single-point failures; §3.3.3 requires
        # the manual reset before a machine is reused)
        for name in list(system.fencing.fenced_machines()):
            machine = system.machines[name]
            machine.recover()
            system.controller.manual_reset_machine(name)
    system.engine.advance(30.0)
    injector.stamp_records()

    # every injected failure produced a completed recovery
    records = system.controller.completed_records()
    assert len(records) >= len(injector.injections) - 1  # host hits batch pairs
    assert all(record.total_time < 15.0 for record in records)
    # every remote session held; zero downtime across the whole soak
    for (pair, _remote, session), observer in zip(pairs, observers):
        observer.stop()
        assert session.established, pair.name
        assert observer.total_downtime == 0.0, (pair.name, observer.transitions)
        assert len(pair.speaker.vrfs["v0"].loc_rib) == ROUTES
    # database footprint stays bounded (messages pruned fleet-wide)
    for pair, _remote, _session in pairs:
        assert pair.speaker.storage_footprint(system.db.store) < 65536
