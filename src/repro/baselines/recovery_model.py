"""Baseline (non-NSR) failure recovery: the bracketed Table 1 numbers.

"other BGP implementations require the engineer to manually reboot the
BGP process or the machine, which is very time-consuming.  The only
exception is the host network failure where they do not reboot but wait
for the network to recover and then reconnect."

These durations are *link downtime*: the peer withdrew the routes the
moment the failure was detected and gets them back only after the full
manual recovery plus BGP re-convergence.
"""

from repro.sim.calibration import (
    BASELINE_BGP_RECOVERY,
    BASELINE_MANUAL_DETECT,
    BASELINE_MANUAL_REBOOT,
    BASELINE_TCP_RECONNECT,
)


def baseline_recovery_row(failure_kind):
    """Table 1 bracketed row for one failure kind.

    Container failures return None throughout — "Container failure is
    unique to TENSOR since no virtualization is used in other BGP
    implementations."
    """
    if failure_kind == "container":
        return {
            "failure": failure_kind,
            "detection": None,
            "initiate": None,
            "migration": None,
            "recovery": None,
            "total": None,
        }
    detection = BASELINE_MANUAL_DETECT[failure_kind]
    reboot = BASELINE_MANUAL_REBOOT[failure_kind]
    reconnect = BASELINE_TCP_RECONNECT[failure_kind]
    recovery = BASELINE_BGP_RECOVERY[failure_kind]
    return {
        "failure": failure_kind,
        "detection": detection,
        "initiate": reboot,  # manual reboot fills the "initiate" column
        "migration": reconnect,
        "recovery": recovery,
        "total": detection + reboot + reconnect + recovery,
    }
