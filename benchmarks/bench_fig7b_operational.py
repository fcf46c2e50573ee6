"""Figure 7(b): TENSOR adoption and impacted traffic over two years.

Paper: "Before June 2020 ... roughly 34 TB of data is impacted every
month.  We started the initial deployment of TENSOR in June 2020 with
100 ASes ... we migrated all the enterprise BGP business to TENSOR by
the end of 2021.  For the past two years, TENSOR had a link downtime of
zero despite that we have tripled the update frequency."
"""

from conftest import run_once
from repro.metrics import format_table
from repro.sim import DeterministicRandom
from repro.sim.calibration import FLEET_PEERING_ASES
from repro.workloads.operations import (
    DEPLOY_START_MONTH,
    FULL_MIGRATION_MONTH,
    OperationalModel,
    default_adoption_curve,
)

MONTH_LABELS_START = ("Jan-2020", )


def run_experiment():
    model = OperationalModel(DeterministicRandom(2020).stream("fig7b"))
    adoption = default_adoption_curve()
    impacted = model.monthly_impacted_bytes()
    return adoption, impacted


def _month_name(index):
    year = 2020 + index // 12
    month = index % 12 + 1
    return f"{year}-{month:02d}"


def test_fig7b_operational(benchmark):
    adoption, impacted = run_once(benchmark, run_experiment)
    print()
    print(format_table(
        ["month", "ASes on TENSOR", "impacted data (TB)"],
        [[_month_name(i), adoption[i], impacted[i] / 1e12]
         for i in range(len(adoption))],
        title="Fig 7(b): adoption and monthly impacted traffic",
    ))
    # pre-deployment: tens of TB impacted every month
    pre = impacted[:DEPLOY_START_MONTH]
    assert all(5e12 < v < 150e12 for v in pre), [v / 1e12 for v in pre]
    # adoption starts at 100 ASes and holds for verification
    assert adoption[DEPLOY_START_MONTH] == 100
    assert adoption[DEPLOY_START_MONTH + 3] == 100
    # full migration by end of 2021 (month index 23)
    assert adoption[FULL_MIGRATION_MONTH] == FLEET_PEERING_ASES
    # zero impact after full migration despite tripled update frequency
    assert all(v == 0 for v in impacted[FULL_MIGRATION_MONTH:])
    # impact declines as adoption ramps
    ramp = impacted[DEPLOY_START_MONTH + 4 : FULL_MIGRATION_MONTH]
    assert ramp[-1] < ramp[0]
