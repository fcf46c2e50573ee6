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


class TrafficModel:
    """Draws per-link average throughput samples (bits/second)."""

    def __init__(
        self,
        rng,
        small_weight=TRAFFIC_MIX_SMALL_WEIGHT,
        small_median=TRAFFIC_SMALL_MEDIAN_BPS,
        small_sigma=TRAFFIC_SMALL_SIGMA,
        large_median=TRAFFIC_LARGE_MEDIAN_BPS,
        large_sigma=TRAFFIC_LARGE_SIGMA,
    ):
        self.rng = rng
        self.small_weight = small_weight
        self.small_mu = math.log(small_median)
        self.small_sigma = small_sigma
        self.large_mu = math.log(large_median)
        self.large_sigma = large_sigma

    def sample(self):
        """One link's 24-hour average throughput in bps."""
        if self.rng.random() < self.small_weight:
            return self.rng.lognormvariate(self.small_mu, self.small_sigma)
        return self.rng.lognormvariate(self.large_mu, self.large_sigma)

    def sample_links(self, count):
        return [self.sample() for _ in range(count)]

    def theoretical_mean(self):
        """E[X] of the mixture (bps)."""
        small_mean = math.exp(self.small_mu + self.small_sigma**2 / 2)
        large_mean = math.exp(self.large_mu + self.large_sigma**2 / 2)
        return self.small_weight * small_mean + (1 - self.small_weight) * large_mean


def percentile(samples, fraction):
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    index = min(int(fraction * len(ordered)), len(ordered) - 1)
    return ordered[index]
