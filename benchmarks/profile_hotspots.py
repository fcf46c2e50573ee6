#!/usr/bin/env python
"""Hotspot profiler (``make profile``).

Profiles the two workloads that dominate wall-clock in this repository
and prints the top-25 cumulative-time functions for each:

1. the Fig. 6(a) receive path — a TENSOR gateway receiving and applying
   a 20K-update burst (codec, RIB reselect, replication pipeline);
2. the parallel fleet workload at workers=1 — the windowed runner over
   a 4-site fleet (engine dispatch, BFD/supervision cadence, boundary
   export/merge).

Deterministic workloads, so two profiles of the same tree are directly
comparable; use this to aim optimization work before touching code.

``--packed`` profiles the packed receive instead — 90,000 routes in 64
attribute sets through one NSR pair, the shape of nsrbench's
``update_recv_packed`` — and, from a second run with the profiler off,
prints where its wall time goes by stage of the UPDATE's path (sender
table load and advertise, then decode / apply / persist on the
gateway) and what the cyclic collector took, generation by generation.
Collector time is taken out of the stage it interrupted.

``--parallel`` (``make profile-parallel``) restricts the run to the
parallel fleet workload and prints the coordinator's timing split
(compute vs barrier-wait vs dispatch vs pickling) alongside the
profile — the same split ``make bench-parallel`` records under
``time_split`` in BENCH_parallel.json — so window-protocol overhead can
be attributed before reading a single profiler row.  Because nothing is
pickled at workers=1, ``--parallel`` follows the profiled run with an
unprofiled workers=2 run and prints its split too.

Usage:
    PYTHONPATH=src python benchmarks/profile_hotspots.py [--top N]
        [--parallel | --packed]
"""

import argparse
import cProfile
import functools
import gc
import pstats
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

TOP_DEFAULT = 25


def profile_receive_path():
    from conftest import DaemonLab

    lab = DaemonLab("tensor")
    lab.receive_time(20_000)


def profile_parallel_fleet(workers=1):
    from repro.sim.parallel.runtime import ParallelRunner
    from repro.workloads.fleet import fleet_site_specs

    specs = fleet_site_specs(4, pairs=2, routes=20, border_routes=10,
                             churn_ticks=2)
    result = ParallelRunner(specs, workers=workers).run(25.0)
    return result


def profile_packed_receive(routes=90_000, before_timing=lambda: None):
    """Returns the wall seconds from origination to the last ACK
    released, and the two speakers by role; ``before_timing`` runs once
    set-up is over."""
    from bench_hotpath import _nsr_pair_lab, _receive
    from repro.sim import DeterministicRandom
    from repro.workloads import RouteGenerator

    system, pair, remote, session = _nsr_pair_lab(seed=0)
    table = RouteGenerator(DeterministicRandom(0), 64512,
                           next_hop="192.0.2.1",
                           attr_pool_size=64).routes(routes)
    before_timing()
    started = time.perf_counter()
    remote.speaker.originate_many("v0", table)
    _receive(system, pair, remote, session, routes, limit=300.0)
    return (time.perf_counter() - started,
            {"gateway": pair.speaker, "remote": remote.speaker})


#: stage -> (module, class, method): the calls one UPDATE's path is made
#: of, none nested in another.
PACKED_STAGES = (
    ("originate (sender table load)",
     "repro.bgp.speaker", "BgpSpeaker", "originate_many"),
    ("advertise (export, group, pack, Adj-RIB-Out)",
     "repro.bgp.speaker", "BgpSpeaker", "readvertise"),
    ("decode (stream to messages, NLRI blocks)",
     "repro.bgp.messages", "MessageDecoder", "_try_decode_one"),
    ("apply (policy, Adj-RIB-In, Loc-RIB)",
     "repro.bgp.peer", "PeerSession", "handle_message"),
    ("persist (RIB delta, compaction)",
     "repro.core.tensor_process", "TensorBgpSpeaker", "_persist_rib_delta"),
)


def print_packed_stage_split():
    """Run the packed receive with a wall-clock timer around each stage
    and around every collection, then print the split."""
    import importlib

    stage_s = {}
    collector = {"since": 0.0, "total": 0.0, "by_generation": {}}

    def forget_setup():
        stage_s.clear()
        collector.update(total=0.0, by_generation={})

    def on_gc(phase, info):
        if phase == "start":
            collector["since"] = time.perf_counter()
            return
        spent = time.perf_counter() - collector["since"]
        collector["total"] += spent
        by_generation = collector["by_generation"]
        runs, total = by_generation.get(info["generation"], (0, 0.0))
        by_generation[info["generation"]] = (runs + 1, total + spent)

    def timed(stage, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            began, collected = time.perf_counter(), collector["total"]
            try:
                return fn(*args, **kwargs)
            finally:
                stage_s[stage] = stage_s.get(stage, 0.0) + (
                    time.perf_counter() - began
                    - (collector["total"] - collected))
        return wrapper

    patched = []
    for stage, module_name, cls_name, method in PACKED_STAGES:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[method]
        setattr(cls, method, timed(stage, original))
        patched.append((cls, method, original))
    gc.callbacks.append(on_gc)
    try:
        wall, speakers = profile_packed_receive(before_timing=forget_setup)
        # What every full collection walks: taken before anything the
        # run built is let go.
        tracked = len(gc.get_objects())
    finally:
        gc.callbacks.remove(on_gc)
        for cls, method, original in patched:
            setattr(cls, method, original)
    print(f"\npacked receive stage split (profiler off, wall {wall:.3f}s):")
    for stage, _module, _cls, _method in PACKED_STAGES:
        spent = stage_s.get(stage, 0.0)
        print(f"  {stage:46s} {spent:7.3f}s  ({spent / wall:5.1%})")
    for generation, (runs, spent) in sorted(collector["by_generation"].items()):
        label = f"gc generation {generation} ({runs} collections)"
        print(f"  {label:46s} {spent:7.3f}s  ({spent / wall:5.1%})")
    print(f"  {'gc-tracked objects at the end':46s} {tracked:7,d}")
    for role, speaker in speakers.items():
        # A Loc-RIB keeps its change record only once a snapshot read it.
        changed = speaker.vrfs["v0"].loc_rib._changed
        label = f"{role} Loc-RIB change-record entries"
        print(f"  {label:46s} {len(changed or ()):7,d}"
              f"{'  (no record)' if changed is None else ''}")
    rest = wall - sum(stage_s.values()) - collector["total"]
    label = "everything else (engine, tcpsim, KV, ACKs)"
    print(f"  {label:46s} {rest:7.3f}s  ({rest / wall:5.1%})")


WORKLOADS = (
    ("fig6a receive path (TENSOR, 20K updates)", profile_receive_path),
    ("parallel fleet (4 sites, workers=1)", profile_parallel_fleet),
)


def _print_timing_split(result):
    timing = result.timing
    wall = timing.get("wall_s") or 1.0
    transport = result.transport
    where = "in-process" if transport["in_process"] else "pickled"
    print(f"\ncoordinator timing split"
          f" ({where}, {result.windows} windows, wall {wall:.2f}s):")
    for key in ("compute_s", "barrier_wait_s", "barrier_send_s",
                "serialize_s"):
        value = timing.get(key, 0.0)
        print(f"  {key:16s} {value:8.3f}s  ({value / wall:5.1%} of wall)")
    print(f"  transport        {transport['frames']} frames"
          f" / {transport['batches']} batches / {transport['bytes']} bytes")


def run_profile(title, workload, top):
    print(f"\n=== {title}: top {top} by cumulative time ===")
    profiler = cProfile.Profile()
    profiler.enable()
    result = workload()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, default=TOP_DEFAULT,
                        help=f"rows per workload (default {TOP_DEFAULT})")
    parser.add_argument("--parallel", action="store_true",
                        help="profile only the parallel fleet workload and"
                             " print the coordinator timing split")
    parser.add_argument("--packed", action="store_true",
                        help="profile only the packed receive (90K routes, "
                             "full UPDATEs) and print its decode / apply / "
                             "persist / advertise / gc split")
    args = parser.parse_args(argv)
    if args.packed:
        run_profile("packed receive (TENSOR, 90K routes in full UPDATEs)",
                    profile_packed_receive, args.top)
        print_packed_stage_split()
        return 0
    if args.parallel:
        result = run_profile("parallel fleet (4 sites, workers=1)",
                             profile_parallel_fleet, args.top)
        _print_timing_split(result)
        # the pickling split only has content with real worker
        # processes; run workers=2 outside the profiler (child-process
        # time is invisible to cProfile anyway)
        _print_timing_split(profile_parallel_fleet(workers=2))
        return 0
    for title, workload in WORKLOADS:
        run_profile(title, workload, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
