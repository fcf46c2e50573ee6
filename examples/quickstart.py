#!/usr/bin/env python3
"""Quickstart: BGP non-stop routing in ~60 lines.

Builds a miniature Tencent-style gateway — two host machines, one
primary/backup container pair, the controller, agent and database — and
peers it with a remote AS.  The remote AS advertises routes, we kill the
primary container, and NSR migrates the session to the backup with zero
remote-visible downtime.

Run:  python examples/quickstart.py
"""

import random

from repro.config import build_system, lab_spec
from repro.failures import FailureInjector
from repro.workloads.topology import DowntimeObserver
from repro.workloads.updates import RouteGenerator


def main():
    # 1. The standard lab as a plain spec: two gateway machines, one
    #    primary/backup container pair serving one peering AS (AS 64512),
    #    and that AS's border router (an FRR-profile speaker + BFD).  The
    #    controller, database and agent come built in.
    spec = lab_spec(seed=1)
    spec["remotes"][0]["name"] = "remote-as"

    # 2. Build and boot it; the sessions establish within seconds.
    system, pairs, remotes = build_system(spec)
    pair, remote = pairs["pair0"], remotes["remote-as"]
    session = remote.sessions[0]
    system.run(10.0)
    print(f"[t={system.engine.now:5.1f}s] session {session.state.value}, "
          f"BFD {list(remote.bfd.session_states().values())[0].name}")

    # 3. The remote advertises 1000 routes; TENSOR replicates while learning.
    generator = RouteGenerator(random.Random(7), 64512, next_hop="192.0.2.1")
    remote.speaker.originate_many("v0", generator.routes(1000))
    remote.speaker.readvertise(session)
    system.run(5.0)
    print(f"[t={system.engine.now:5.1f}s] gateway learned "
          f"{len(pair.speaker.vrfs['v0'].loc_rib)} routes; "
          f"database holds {len(system.db.store)} records")

    # 4. Watch the remote's view while we kill the primary container.
    observer = DowntimeObserver(system.engine, session,
                                remote.speaker.vrfs["v0"], expect_routes=1000)
    observer.start()
    print(f"[t={system.engine.now:5.1f}s] killing primary container "
          f"{pair.active_container.name} on {pair.active_machine.name} ...")
    FailureInjector(system).container_failure(pair)
    system.run(30.0)
    observer.stop()

    record = system.controller.completed_records()[0]
    print(f"[t={system.engine.now:5.1f}s] NSR migration complete:")
    print(f"   active container : {pair.active_container.name} "
          f"on {pair.active_machine.name}")
    print(f"   phases           : initiate {record.initiation_time:.2f}s, "
          f"migrate {record.migration_time:.2f}s, "
          f"recover {record.recovery_time:.2f}s")
    print(f"   remote session   : {session.state.value} (never dropped)")
    print(f"   link downtime    : {observer.total_downtime:.3f}s")
    assert observer.total_downtime == 0.0
    assert len(pair.speaker.vrfs["v0"].loc_rib) == 1000
    print("zero-downtime failover: OK")


if __name__ == "__main__":
    main()
