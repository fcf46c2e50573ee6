"""Workload generators: routes, traffic distribution, operations model."""


import pytest

from repro.sim import DeterministicRandom
from repro.workloads.operations import (
    DEPLOY_START_MONTH,
    FULL_MIGRATION_MONTH,
    OperationalModel,
    TIMELINE_MONTHS,
    default_adoption_curve,
)
from repro.workloads.traffic import TrafficModel, percentile
from repro.workloads.updates import RouteGenerator
from repro.sim.rand import DeterministicRandom


# -- route generation ----------------------------------------------------------


def test_prefixes_distinct_and_deterministic():
    gen = RouteGenerator(DeterministicRandom(1), 64512)
    a = gen.prefixes(10_000)
    b = RouteGenerator(DeterministicRandom(1), 64512).prefixes(10_000)
    assert a == b
    assert len(set(a)) == 10_000


def test_routes_share_pooled_attributes():
    gen = RouteGenerator(DeterministicRandom(1), 64512, attr_pool_size=8)
    routes = gen.routes(100)
    distinct = {attrs.key() for _p, attrs in routes}
    assert len(distinct) <= 8


def test_routes_contain_origin_as():
    gen = RouteGenerator(DeterministicRandom(2), 64512)
    for _p, attrs in gen.routes(50):
        assert attrs.as_path.first_as() == 64512


def test_uniform_routes_single_attribute_set():
    gen = RouteGenerator(DeterministicRandom(3), 64512)
    routes = gen.uniform_routes(100)
    assert len({attrs.key() for _p, attrs in routes}) == 1


def test_routes_encode_into_updates():
    from repro.bgp.packing import group_routes, pack_group

    gen = RouteGenerator(DeterministicRandom(4), 64512, next_hop="1.2.3.4")
    messages = [message for _afi, attributes, prefixes
                in group_routes(gen.routes(1000))
                for message in pack_group(attributes, prefixes)]
    assert sum(len(m.nlri) for m in messages) == 1000
    for message in messages:
        message.to_wire()  # must not raise


# -- traffic model (Fig. 7a) ---------------------------------------------------


@pytest.fixture
def traffic():
    return TrafficModel(DeterministicRandom(42).stream("traffic"))


def test_traffic_median_near_64mbps(traffic):
    samples = traffic.sample_links(20_000)
    median = percentile(samples, 0.5)
    assert 30e6 < median < 130e6  # paper: ~64 Mbps


def test_traffic_mean_tens_of_gbps(traffic):
    assert 25e9 < traffic.theoretical_mean() < 50e9  # paper: >37 Gbps
    samples = traffic.sample_links(50_000)
    mean = sum(samples) / len(samples)
    assert mean > 5e9  # sampled mean is tail-sensitive but clearly huge


def test_traffic_over_30pct_above_1gbps(traffic):
    samples = traffic.sample_links(20_000)
    frac = sum(1 for s in samples if s > 1e9) / len(samples)
    assert frac > 0.25


def test_empirical_cdf_monotone(traffic):
    # the CDF Fig. 7(a) reports, as deciles
    samples = traffic.sample_links(100)
    values = [percentile(samples, i / 10) for i in range(1, 11)]
    assert values == sorted(values)
    assert values[-1] == max(samples)


def test_percentile_bounds(traffic):
    samples = [1.0, 2.0, 3.0, 4.0]
    assert percentile(samples, 0.0) == 1.0
    assert percentile(samples, 0.99) == 4.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


# -- operations model (Fig. 7b) --------------------------------------------------


def test_adoption_curve_shape():
    curve = default_adoption_curve()
    assert len(curve) == TIMELINE_MONTHS
    assert all(v == 0 for v in curve[:DEPLOY_START_MONTH])
    assert curve[DEPLOY_START_MONTH] == 100  # initial deployment
    assert curve[DEPLOY_START_MONTH + 3] == 100  # verification hold
    assert curve[FULL_MIGRATION_MONTH] == 6000
    assert curve == sorted(curve)  # monotone ramp


def test_baseline_downtime_expectation():
    model = OperationalModel(DeterministicRandom(1).stream("ops"))
    downtime = model.baseline_downtime_seconds()
    # Table 1 mix: dominated by host-network (25 s at 65%) + machine (240 s at 19%)
    assert 50 < downtime < 80


def test_monthly_impact_drops_to_zero_after_migration():
    model = OperationalModel(DeterministicRandom(2).stream("ops"))
    series = model.monthly_impacted_bytes()
    assert len(series) == TIMELINE_MONTHS
    pre = series[:DEPLOY_START_MONTH]
    assert all(v > 0 for v in pre)
    assert all(v == 0 for v in series[FULL_MIGRATION_MONTH:])


def test_pre_deployment_impact_scale():
    """Paper: ~34 TB/month impacted before TENSOR, fleet-wide."""
    model = OperationalModel(DeterministicRandom(3).stream("ops"))
    series = model.monthly_impacted_bytes()
    pre_tb = sum(series[:DEPLOY_START_MONTH]) / DEPLOY_START_MONTH / 1e12
    assert 5 < pre_tb < 200  # order of tens of TB
