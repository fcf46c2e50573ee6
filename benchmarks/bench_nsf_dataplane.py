"""Data-plane impact: packets lost during a failure, TENSOR vs baseline.

§2.1 motivates NSR in data-plane terms: "a one-minute one-link downtime
will impact 277 GBs of live traffic".  This benchmark offers constant-
rate traffic through a FIB derived from the gateway's Loc-RIB and counts
losses across a container failure:

- with TENSOR, the FIB never loses its routes (the Loc-RIB is recovered
  and the DSR forwarding plane holds programmed state meanwhile) —
  zero loss;
- for a non-NSR baseline, the peer withdraws the routes for the whole
  manual-recovery window — downtime x rate is lost.
"""

import random

from conftest import run_once
from repro.baselines import baseline_recovery_row
from repro.config import build_system, lab_spec
from repro.failures import FailureInjector
from repro.forwarding import DataPlane, Fib, FibSyncer, TrafficFlow
from repro.forwarding.dataplane import FLOW_PACKET_BYTES as PACKET_BYTES
from repro.metrics import format_table
from repro.workloads.updates import RouteGenerator

ROUTES = 500
RATE_PPS = 50_000


def tensor_loss():
    system, pairs, remotes = build_system(lab_spec(800))
    system.engine.advance(10.0)
    pair, remote = pairs["pair0"], remotes["remote0"]
    session = remote.sessions[0]
    gen = RouteGenerator(random.Random(8), 64512, next_hop="192.0.2.1")
    remote.speaker.originate_many("v0", gen.routes(ROUTES))
    remote.speaker.readvertise(session)
    system.engine.advance(5.0)
    fib = Fib("gw")
    syncer = FibSyncer(
        system.engine, fib,
        lambda: pair.speaker.vrfs["v0"].loc_rib if pair.speaker.running else None,
    )
    syncer.start()
    system.engine.advance(1.0)
    dataplane = DataPlane(system.engine, system.network, fib)
    flow = TrafficFlow(system.engine, dataplane, "10.0.0.1", rate_pps=RATE_PPS)
    flow.start()
    system.engine.advance(1.0)
    FailureInjector(system).inject("container", pair, {})
    system.engine.advance(30.0)
    flow.stop()
    return flow


def baseline_loss_bytes():
    """Downtime x rate for the manual-recovery window (application row)."""
    downtime = baseline_recovery_row("application")["total"]
    return downtime, downtime * RATE_PPS * PACKET_BYTES


def run_experiment():
    flow = tensor_loss()
    base_downtime, base_lost = baseline_loss_bytes()
    return {
        "tensor_offered": flow.offered_packets,
        "tensor_lost_bytes": flow.lost_bytes,
        "tensor_loss_time": flow.total_loss_time(),
        "baseline_downtime": base_downtime,
        "baseline_lost_bytes": base_lost,
    }


def test_nsf_dataplane(benchmark):
    results = run_once(benchmark, run_experiment)
    print()
    print(format_table(
        ["system", "loss window (s)", "data lost (MB)"],
        [
            ["TENSOR (container failure, NSR)",
             f"{results['tensor_loss_time']:.2f}",
             f"{results['tensor_lost_bytes'] / 1e6:.1f}"],
            ["baseline (application failure, manual recovery)",
             f"{results['baseline_downtime']:.0f}",
             f"{results['baseline_lost_bytes'] / 1e6:.1f}"],
        ],
        title=f"Data-plane impact at {RATE_PPS * PACKET_BYTES * 8 / 1e6:.0f}"
              " Mbps of offered traffic",
    ))
    assert results["tensor_lost_bytes"] == 0
    assert results["tensor_loss_time"] == 0.0
    assert results["baseline_lost_bytes"] > 1e9  # tens of seconds x rate
    assert results["tensor_offered"] > 30 * RATE_PPS * 0.9