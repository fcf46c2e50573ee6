"""The two-year operational model (Fig. 7(b)).

§4.4: before TENSOR, "roughly 34 TB of data is impacted every month";
deployment started June 2020 with 100 ASes, paused for verification,
then ramped until "we migrated all the enterprise BGP business to TENSOR
by the end of 2021", after which link downtime (and impacted data) is
zero "despite that we have tripled the update frequency".

The model combines the failure mix of Table 1, the per-failure downtime
of each solution, per-link throughput draws from the traffic model, and
an adoption curve, to produce the monthly impacted-data series.
"""

from repro.sim.calibration import (
    BASELINE_MANUAL_DETECT,
    BASELINE_MANUAL_REBOOT,
    BASELINE_TCP_RECONNECT,
    BASELINE_BGP_RECOVERY,
    FAILURE_FREQUENCIES,
    FLEET_PEERING_ASES,
)
from repro.workloads.traffic import TrafficModel

#: months on the Fig. 7(b) x-axis: Jan 2020 .. Jun 2022.
TIMELINE_MONTHS = 30
DEPLOY_START_MONTH = 5  # June 2020 (0-indexed from Jan 2020)
FULL_MIGRATION_MONTH = 23  # December 2021

#: Calibrated against §4.4: ~34 TB impacted per month pre-TENSOR over
#: ~6000 links whose expected per-failure impact is downtime (~65 s,
#: Table 1 mix) x link throughput — i.e. ~120 failure-minutes a month
#: fleet-wide, or ~0.02 failures per link per month.
FAILURES_PER_LINK_PER_MONTH = 0.02


def default_adoption_curve():
    """ASes on TENSOR per month: 0 until June 2020, 100 during the
    verification hold, then an accelerating ramp to full coverage."""
    curve = []
    for month in range(TIMELINE_MONTHS):
        if month < DEPLOY_START_MONTH:
            curve.append(0)
        elif month < DEPLOY_START_MONTH + 4:  # verification hold
            curve.append(100)
        elif month >= FULL_MIGRATION_MONTH:
            curve.append(FLEET_PEERING_ASES)
        else:
            ramp_months = FULL_MIGRATION_MONTH - (DEPLOY_START_MONTH + 4)
            progress = (month - (DEPLOY_START_MONTH + 4) + 1) / ramp_months
            # accelerating ramp ("we gradually sped up the deployment")
            curve.append(int(100 + (FLEET_PEERING_ASES - 100) * progress**2))
    return curve


class OperationalModel:
    """Monthly impacted-data series under a given NSR posture."""

    def __init__(self, rng):
        self.rng = rng
        self.traffic = TrafficModel(rng)
        self._link_throughput = self.traffic.sample_links(FLEET_PEERING_ASES)

    def baseline_downtime_seconds(self):
        """Expected downtime of one non-NSR failure (Table 1 mix)."""
        expected = 0.0
        for kind, frequency in FAILURE_FREQUENCIES.items():
            if kind == "container":
                kind_key = "application"  # no containers without TENSOR
            else:
                kind_key = kind
            downtime = (
                BASELINE_MANUAL_DETECT[kind_key]
                + BASELINE_MANUAL_REBOOT[kind_key]
                + BASELINE_TCP_RECONNECT[kind_key]
                + BASELINE_BGP_RECOVERY[kind_key]
            )
            expected += frequency * downtime
        return expected

    def monthly_impacted_bytes(self):
        """Fig. 7(b): impacted bytes per month as adoption ramps.

        A failure on a TENSOR-migrated link impacts nothing (zero link
        downtime); on a legacy link it impacts throughput x downtime.
        """
        adoption = default_adoption_curve()
        expected_downtime = self.baseline_downtime_seconds()
        series = []
        for month, migrated in enumerate(adoption):
            frequency_factor = 1.0
            if month >= FULL_MIGRATION_MONTH:
                frequency_factor *= 3.0  # "we have tripled the update frequency"
            impacted = 0.0
            for link_index in range(FLEET_PEERING_ASES):
                if link_index < migrated:
                    continue  # TENSOR: zero downtime
                failures = self._poisson(
                    FAILURES_PER_LINK_PER_MONTH * frequency_factor
                )
                if failures:
                    throughput_bps = self._link_throughput[link_index]
                    impacted += failures * expected_downtime * throughput_bps / 8.0
            series.append(impacted)
        return series

    def _poisson(self, lam):
        """Knuth's method (lam is small here)."""
        import math

        threshold = math.exp(-lam)
        k = 0
        product = self.rng.random()
        while product > threshold:
            k += 1
            product *= self.rng.random()
        return k
