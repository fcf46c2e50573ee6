#!/usr/bin/env python3
"""Fleet operations: the §4.4 operational picture.

Generates the per-link traffic distribution (Fig. 7(a)) and the two-year
adoption/impact timeline (Fig. 7(b)) for a Tencent-scale fleet: 400
servers, 6000 peering ASes, 31000 BGP connections.

Run:  python examples/fleet_operations.py
"""

from repro.metrics import format_table
from repro.sim import DeterministicRandom
from repro.sim.calibration import (
    FLEET_BGP_CONNECTIONS,
    FLEET_PEERING_ASES,
    FLEET_SERVERS,
)
from repro.workloads.operations import OperationalModel, default_adoption_curve
from repro.workloads.traffic import TrafficModel, percentile


def human(bps):
    for unit, scale in (("Tbps", 1e12), ("Gbps", 1e9), ("Mbps", 1e6), ("Kbps", 1e3)):
        if bps >= scale:
            return f"{bps / scale:.1f} {unit}"
    return f"{bps:.0f} bps"


def traffic_picture(rng):
    model = TrafficModel(rng.stream("traffic"))
    samples = model.sample_links(FLEET_PEERING_ASES * 5)
    print(f"fleet: {FLEET_SERVERS} servers, {FLEET_PEERING_ASES} peering ASes, "
          f"{FLEET_BGP_CONNECTIONS} BGP connections")
    print(f"per-link average throughput: mean {human(sum(samples) / len(samples))}, "
          f"median {human(percentile(samples, 0.5))}, "
          f"P[>1 Gbps] {sum(1 for s in samples if s > 1e9) / len(samples):.0%}")
    rows = [[f"p{int(f * 100)}", human(percentile(samples, f))]
            for f in (0.10, 0.50, 0.90, 0.99)]
    print(format_table(["percentile", "throughput"], rows))
    # the paper's one-minute number: a single average link outage
    mean_bps = sum(samples) / len(samples)
    print(f"one-minute downtime on an average link impacts "
          f"{mean_bps * 60 / 8 / 1e9:.0f} GB (paper: 277 GB)\n")


def adoption_picture(rng):
    model = OperationalModel(rng.stream("ops"))
    adoption = default_adoption_curve()
    impacted = model.monthly_impacted_bytes()
    rows = []
    for month in range(0, len(adoption), 3):
        year, mon = 2020 + month // 12, month % 12 + 1
        rows.append([f"{year}-{mon:02d}", adoption[month],
                     f"{impacted[month] / 1e12:.1f}"])
    print(format_table(
        ["month", "ASes on TENSOR", "impacted data (TB)"],
        rows,
        title="Two-year adoption timeline (quarterly samples)",
    ))
    zero_since = next(i for i, v in enumerate(impacted) if v == 0 and adoption[i] > 0
                      and all(x == 0 for x in impacted[i:]))
    year, mon = 2020 + zero_since // 12, zero_since % 12 + 1
    print(f"link downtime reaches (and stays at) zero from {year}-{mon:02d} "
          f"-- full migration, tripled update frequency notwithstanding")


def main():
    rng = DeterministicRandom(2023)
    traffic_picture(rng)
    adoption_picture(rng)


if __name__ == "__main__":
    main()
