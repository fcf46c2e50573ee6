"""Coverage-guided config/topology fuzzing (DESIGN.md §13).

The chaos engine (§9) mutates only the *failure schedule* over a fixed
topology.  The fuzzer widens the search to the whole input cross-product
— peer-graph shape, VRF layout, splitting plan, MRAI pacing mode and
timers, BFD timers, routing policies, *and* the failure schedule —
driven by a coverage signal derived from the instrumentation the repo
already has: oracle verdict bitmaps, trace-store phase shapes and
executed-event buckets.  Specs that reach novel coverage stay in the
corpus and are mutated further; specs that trip an oracle are shrunk
across both schedule and config/topology dimensions into replayable
``fuzz_repro_<seed>.py`` scripts.

This package is the spec space (:mod:`repro.fuzz.spec`) and the campaign
loop (:mod:`repro.fuzz.loop`).  Running, judging, shrinking and replaying
a spec is the scenario harness's job (:mod:`repro.failures.harness`,
:mod:`repro.failures.shrink`) — the same code that runs a chaos
schedule; ``run_fuzz_spec`` is its :func:`run_scenario`.
"""

from repro.failures.harness import (
    coverage_key,
    run_profile,
    run_scenario as run_fuzz_spec,
)
from repro.fuzz.loop import fuzz_loop
from repro.fuzz.spec import FuzzSpec, generate_fuzz_spec, mutate_fuzz_spec

__all__ = [
    "FuzzSpec",
    "coverage_key",
    "fuzz_loop",
    "generate_fuzz_spec",
    "mutate_fuzz_spec",
    "run_fuzz_spec",
    "run_profile",
]
