"""Standalone tracing demo: ``make trace-demo`` (DESIGN.md §10).

Builds a traced two-remote TENSOR gateway, pushes real UPDATE traffic
through the NSR hot path, and prints what the causal tracer saw: the
per-phase latency summary, one update's full critical path, and the
delayed-ACK invariant check.  The same fixture builder backs the
Fig. 5(a) per-phase latency benchmark.
"""

from repro.config import build_system, lab_spec
from repro.sim import DeterministicRandom
from repro.workloads.updates import RouteGenerator


def build_traced_system(seed=7, routes=40, neighbors=2):
    """A converged, traced TensorSystem with ``neighbors`` remotes in a
    shared VRF, each originating ``routes`` routes — so every update
    re-propagates to every other remote and all five hot-path phases
    (receive, replicate, ack_release, apply, propagate) appear in the
    trace."""
    system, pairs, remotes = build_system(
        {**lab_spec(seed, neighbors, shared_vrf=True), "tracing": True})
    engine = system.engine
    engine.advance(10.0)
    pair = pairs["pair0"]
    remotes = [(remote, remote.sessions[0]) for remote in remotes.values()]

    # Originate in paced waves rather than one burst: the breakdown
    # should show steady-state phase latencies, not the transient
    # coalescer backlog a single 40-route dump creates.
    rand = DeterministicRandom(seed)
    gens = [
        RouteGenerator(
            rand.fork(f"demo{i}"), 64512 + i, next_hop=f"192.0.2.{i + 1}"
        )
        for i in range(neighbors)
    ]
    wave = 8
    sent = 0
    wave_index = 0
    while sent < routes:
        batch = min(wave, routes - sent)
        for i, (remote, session) in enumerate(remotes):
            routes_batch = gens[i].routes(
                batch, base=f"{10 + i}.{wave_index * 16}.0.0"
            )
            remote.speaker.originate_many("v0", routes_batch)
            remote.speaker.readvertise(session)
        sent += batch
        wave_index += 1
        engine.advance(2.0)
    engine.advance(5.0)
    return system, pair, remotes


def main():
    from repro.metrics.show import show_trace

    system, _pair, _remotes = build_traced_system()
    store = system.trace_store
    print(show_trace(store))
    print()

    ids = store.update_ids(msg="UpdateMessage")
    print(f"{len(ids)} updates traced end to end; critical path of the "
          f"first:")
    print(show_trace(store, msg_id=ids[0], limit=12))
    print()

    violations = store.delayed_ack_violations()
    print(f"delayed-ACK invariant (§3.1.1): "
          f"{len(violations)} violations across {len(store)} spans")
    for problem in violations[:5]:
        print(f"  {problem}")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
