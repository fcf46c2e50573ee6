"""Per-link traffic model (Fig. 7(a)).

§4.4 reports three distributional facts about the average throughput
between Tencent Cloud and its peering ASes over 24 hours:

1. mean > 37 Gbps;
2. median ~= 64 Mbps;
3. "Over 30% of the links ... carry over 1 Gb of data per second".

No single lognormal satisfies all three (matching the median and the
P[>1 Gbps] >= 0.3 tail forces sigma >= 5.2, which blows the mean up to
~5e13 bps), so we use a two-component lognormal mixture:

- 70% "small" links: median ~29.5 Mbps, sigma 1.5 — chosen so the
  overall median lands at 64 Mbps given the large component's mass
  below 64 Mbps (~4%);
- 30% "large" links: median 5.3 Gbps, sigma 2.5 — whose mean
  exp(mu + sigma^2/2) ~= 120 Gbps puts the overall mean at ~37 Gbps and
  whose median > 1 Gbps delivers P[>1 Gbps] ~= 0.31.
"""

import math

from repro.sim.calibration import (
    TRAFFIC_LARGE_MEDIAN_BPS,
    TRAFFIC_LARGE_SIGMA,
    TRAFFIC_MIX_SMALL_WEIGHT,
    TRAFFIC_SMALL_MEDIAN_BPS,
    TRAFFIC_SMALL_SIGMA,
)


SMALL_MU = math.log(TRAFFIC_SMALL_MEDIAN_BPS)
LARGE_MU = math.log(TRAFFIC_LARGE_MEDIAN_BPS)


class TrafficModel:
    """Draws per-link average throughput samples (bits/second)."""

    def __init__(self, rng):
        self.rng = rng

    def sample(self):
        """One link's 24-hour average throughput in bps."""
        if self.rng.random() < TRAFFIC_MIX_SMALL_WEIGHT:
            return self.rng.lognormvariate(SMALL_MU, TRAFFIC_SMALL_SIGMA)
        return self.rng.lognormvariate(LARGE_MU, TRAFFIC_LARGE_SIGMA)

    def sample_links(self, count):
        return [self.sample() for _ in range(count)]

    def theoretical_mean(self):
        """E[X] of the mixture (bps)."""
        small_mean = math.exp(SMALL_MU + TRAFFIC_SMALL_SIGMA**2 / 2)
        large_mean = math.exp(LARGE_MU + TRAFFIC_LARGE_SIGMA**2 / 2)
        return (TRAFFIC_MIX_SMALL_WEIGHT * small_mean
                + (1 - TRAFFIC_MIX_SMALL_WEIGHT) * large_mean)


def percentile(samples, fraction):
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    index = min(int(fraction * len(ordered)), len(ordered) - 1)
    return ordered[index]
