"""Baseline recovery and cost models.

The FRRouting, GoBGP and BIRD baselines of Fig. 6 are the repository's
own BGP speaker run under a per-implementation processing profile
(``SpeakerConfig(profile=...)``, calibrated in :mod:`repro.sim.calibration`,
GoBGP without update packing).  None of them support NSR: on failure
the session drops, routes are withdrawn, and recovery is the manual
process Table 1 brackets (:func:`baseline_recovery_row`).  The
NSR-enabled hardware router appears as a cost/SLA model (Table 2).
"""

from repro.baselines.nsr_router import NsrEnabledRouter
from repro.baselines.recovery_model import baseline_recovery_row

__all__ = [
    "NsrEnabledRouter",
    "baseline_recovery_row",
]
