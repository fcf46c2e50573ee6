"""Failure injection and chaos testing.

The E1-E5 scenarios of Figure 3 / Table 1, the chaos schedules that
compose them into randomized overlapping runs, the scenario harness that
runs a schedule (or a fuzz spec) under the NSR invariant oracles, and
the shrinker that turns a violation into a replayable script
(DESIGN.md §9).  ``python -m repro.failures.chaos`` is the CLI; this
package does not import it.
"""

from repro.failures.harness import run_scenario
from repro.failures.injector import FailureInjector
from repro.failures.oracles import OracleSuite, Violation
from repro.failures.schedule import ChaosSchedule, generate_schedule
from repro.failures.shrink import shrink_scenario, write_repro_script

__all__ = [
    "ChaosSchedule",
    "FailureInjector",
    "OracleSuite",
    "Violation",
    "generate_schedule",
    "run_scenario",
    "shrink_scenario",
    "write_repro_script",
]
