"""Operator show commands render correct, current state."""

import pytest

from repro.failures import FailureInjector
from repro.forwarding import Fib, FibSyncer
from repro.metrics.show import (
    show_bfd,
    show_bgp_summary,
    show_fib,
    show_migration_history,
    show_nsr_status,
    show_rib,
)

from conftest import build_tensor_fixture


@pytest.fixture(scope="module")
def fixture():
    return build_tensor_fixture(seed=600, routes=50)


def test_show_bgp_summary(fixture):
    system, pair, remotes = fixture
    text = show_bgp_summary(pair.speaker)
    assert "AS 65001" in text
    assert "192.0.2.1" in text
    assert "Established" in text
    assert "50" in text  # prefixes in


def test_show_rib_truncates(fixture):
    system, pair, remotes = fixture
    text = show_rib(pair.speaker.vrfs["v0"])
    assert "50 routes" in text
    assert "more" in text  # truncation marker
    assert "ebgp" in text


def test_show_bfd(fixture):
    system, pair, remotes = fixture
    text = show_bfd(pair.bfd)
    assert "UP" in text
    assert "100ms x3" in text


def test_show_fib(fixture):
    system, pair, remotes = fixture
    fib = Fib("gw")
    FibSyncer(system.engine, fib, lambda: pair.speaker.vrfs["v0"].loc_rib).sync_now()
    fib.lookup("10.0.0.1")
    text = show_fib(fib)
    assert "50 entries" in text
    assert "1 lookups" in text
    assert "192.0.2.1" in text  # next hop


def test_show_nsr_status_and_history(fixture):
    system, pair, remotes = fixture
    before = show_nsr_status(system)
    assert "pair0" in before and "gw-1" in before
    assert "fenced machines: none" in before
    FailureInjector(system).inject("container", pair, {})
    system.engine.advance(30.0)
    after = show_nsr_status(system)
    assert "gw-2" in after
    assert "recoveries completed: 1" in after
    history = show_migration_history(system.controller)
    assert "container" in history
    assert "done" in history
