"""TENSOR: Lightweight BGP Non-Stop Routing (SIGCOMM 2023) — reproduction.

The package is organized bottom-up (see DESIGN.md for the full map):

- :mod:`repro.sim` — discrete-event engine, network fabric, calibration;
- :mod:`repro.tcpsim` — from-scratch TCP with repair support;
- :mod:`repro.netfilter` — hook chains + NFQUEUE;
- :mod:`repro.kvstore` — the replicated key-value store (Redis stand-in);
- :mod:`repro.bgp` — a complete BGP-4 implementation;
- :mod:`repro.bfd` — Bidirectional Forwarding Detection;
- :mod:`repro.containers` — containers, hosts, the VXLAN underlay;
- :mod:`repro.control` — controller, probes, failure localization;
- :mod:`repro.core` — TENSOR itself (replication, tcp_queue, recovery,
  splitting, agent, full-system assembly);
- :mod:`repro.baselines` — baseline recovery and cost models;
- :mod:`repro.failures` / :mod:`repro.workloads` / :mod:`repro.metrics` —
  injection, workload generation and measurement.

The most convenient entry point is :class:`repro.core.TensorSystem`.
"""

__version__ = "1.0.0"

__all__ = [
    "sim",
    "tcpsim",
    "netfilter",
    "kvstore",
    "bgp",
    "bfd",
    "containers",
    "control",
    "core",
    "baselines",
    "failures",
    "workloads",
    "metrics",
]
