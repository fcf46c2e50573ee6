"""Calibrated constants, each tied to a quote or number from the paper.

Absolute durations in the paper come from Tencent's production testbed
(96-core Xeon, 400 GB RAM, 100 Gbps Ethernet, Redis, Docker/TKE).  This
module concentrates every constant we calibrate so the simulated system
reproduces the paper's *numbers*; the *shapes* of the results (who wins,
where crossovers happen) come from the simulated mechanisms themselves.

All times are seconds, sizes bytes, rates bits/second unless stated.
"""

# ---------------------------------------------------------------------------
# Testbed (§4: "each machine is equipped with a 96-core Intel Xeon CPU with
# 400 GB RAM ... connected via 100 Gbps Ethernet").
# ---------------------------------------------------------------------------

PEERING_LINK_BANDWIDTH = 100e9
PEERING_LINK_LATENCY = 100e-6  # intra-facility one-way delay
CLUSTER_FABRIC_BANDWIDTH = 25e9
CLUSTER_FABRIC_LATENCY = 50e-6

# ---------------------------------------------------------------------------
# TCP (repro.tcpsim).  Fig. 5(a): "the maximum delays with no impact on the
# TCP throughput are 20 ms, 10 ms, 5 ms, 2 ms, and 2 ms for TCP connections
# with packet sizes of 100B, 200B, 500B, 1000B, and 2000B".
#
# The thresholds are consistent with a sender whose segment rate is CPU
# bound at R segments/s and a flow-control window W: baseline throughput is
# R*s (s = bytes per segment) and the delayed-ACK cap is W/(RTT+d), so the
# threshold is d* ~= W/(R*s).  Solving against the paper's thresholds gives
# W/R = 2e-3 s*bytes/segment; we pick W = 128 KiB, R = 64K segments/s:
#   d*(100B)  = 131072/(65536*100)  = 20 ms   (paper: 20 ms)
#   d*(1000B) = 131072/(65536*1000) = 2 ms    (paper: 2 ms)
#   d*(2000B) = same as 1000B because MSS splits a 2000 B write into two
#               segments averaging 1000 B    (paper: 2 ms)
# ---------------------------------------------------------------------------

TCP_MSS = 1460
TCP_RECEIVE_WINDOW = 131072
TCP_SENDER_SEGMENT_RATE = 65536.0  # segments/second (CPU bound)
TCP_INITIAL_CWND_SEGMENTS = 10
TCP_MIN_RTO = 0.2
TCP_MAX_RTO = 60.0
TCP_HEADER_BYTES = 54  # Ethernet+IP+TCP headers on the wire
TCP_USER_TIMEOUT = 120.0  # give-up threshold for retransmissions

# ---------------------------------------------------------------------------
# Packet-interception technologies (§5 "Alternative designs": "an
# alternative is to rely on eBPF which has demonstrated better performance
# over Netfilter [Miano et al.]; we leave further implementation and
# comparison as future work" — implemented here).  NFQUEUE pays a
# kernel->userspace copy plus a verdict round trip per held packet; an
# eBPF map-based hold stays in the kernel.
# ---------------------------------------------------------------------------

NETFILTER_QUEUE_DELAY = 15e-6  # packet copy to the userspace consumer
NETFILTER_VERDICT_DELAY = 15e-6  # verdict syscall back into the kernel
EBPF_QUEUE_DELAY = 1.5e-6  # map update + ring-buffer notification
EBPF_VERDICT_DELAY = 1.0e-6  # map-driven release, no context switch

# ---------------------------------------------------------------------------
# KV store (repro.kvstore).  Fig. 5(b): "The time to read one record only
# takes less than 500 us, and the time to write one record takes roughly
# 1 ms ... the write operation takes approximately 2.5x longer than the
# read ... less than 1 ms to read roughly 70 records, and 200 ms for up to
# 10K records.  For writing records, it takes less than 2 ms for 10
# records, and ~500 ms for 10K packets."
#
# Model: a batched operation of n records costs base + n * per_record on
# the server, plus one network round trip.  base+1*per+RTT reproduces the
# single-record numbers; the linear term reproduces the 10K-record totals.
# ---------------------------------------------------------------------------

KV_READ_BASE = 300e-6
KV_READ_PER_RECORD = 19e-6  # 10K reads ~= 190 ms + base (paper: ~200 ms)
KV_WRITE_BASE = 850e-6
KV_WRITE_PER_RECORD = 48e-6  # 10K writes ~= 480 ms + base (paper: ~500 ms)
KV_KEY_BYTES = 90  # "a 90B key": 16B VRF prefix + 36B four-tuple + 38B ids
KV_VALUE_BYTES_MAX = 4096  # "maximum size limit of 4 KB" per BGP message

# ---------------------------------------------------------------------------
# BGP daemon processing profiles (repro.baselines / repro.core).
# Fig. 6(a): ~40 ms floor at 100 updates; linear past ~10K updates; FRR
# fastest, GoBGP ~ BIRD, TENSOR slowest ("at least 5 seconds for any
# open-sourced implementation" at 500K updates; TENSOR's overhead "less
# than one second to receive tens of thousands of routing updates").
# Per-update CPU costs below put FRR at 5.0 s / 500K and TENSOR's *CPU*
# at 7.0 s / 500K before replication stalls, which the simulation adds.
# ---------------------------------------------------------------------------

BGP_SESSION_SETUP_COST = 0.035  # connection + OPEN exchange + first run
RECEIVE_COST_PER_UPDATE = {
    "frr": 10.0e-6,
    "bird": 12.5e-6,
    "gobgp": 13.0e-6,
    "tensor": 14.0e-6,  # + replication (DB writes, delayed ACKs) in-sim
}
# Fig. 6(b): sending is cheaper and near-identical across implementations
# (GoBGP modestly slower even to a single peer).
SEND_COST_PER_UPDATE = {
    "frr": 7.5e-6,
    "bird": 8.0e-6,
    "gobgp": 12.0e-6,
    "tensor": 8.5e-6,  # + one pipelined DB write per message in-sim
}
# Fig. 6(c): update packing ("the BGP update message for many peers will be
# largely the same except for the header information").  A packed copy for
# an extra peer only costs a header rewrite; GoBGP regenerates per peer at
# full SEND_COST_PER_UPDATE, which is what produces its >=5x gap.
PACKED_COPY_COST_PER_UPDATE = {
    "frr": 1.0e-6,
    "bird": 0.9e-6,
    "tensor": 1.0e-6,
}
# Per-peer session bookkeeping during fan-out.  With 100 updates per peer:
#   FRR    0.07 ms + 100*1.0 us = 0.17 ms/peer
#   BIRD   0.10 ms + 100*0.9 us = 0.19 ms/peer (+ superlinear term below)
#   TENSOR 0.14 ms + 100*1.0 us = 0.24 ms/peer
#   GoBGP  0.20 ms + 100*12  us = 1.40 ms/peer  (~8x FRR: ">=5x" per paper)
PER_PEER_SESSION_COST = {
    "frr": 0.07e-3,
    "bird": 0.10e-3,
    "gobgp": 0.20e-3,
    "tensor": 0.14e-3,
}
# BIRD's per-peer bookkeeping grows with the total peer count; the quadratic
# term overtakes TENSOR's flat 0.05 ms/peer premium at n = 0.05e-3/8.3e-8
# ~= 600 peers — the Fig. 6(c) crossover.
BIRD_PER_PEER_SUPERLINEAR = 8.3e-8  # seconds per peer^2

# ---------------------------------------------------------------------------
# Containers (repro.containers).  §3.2.1: config loading dominates boot:
# "~10K or ~100K [configurations] ... may take up to ~20 minutes" for a
# monolithic gateway; containerized boot is "~20 seconds".
# Fig. 6(d): "Supporting 100 containers only costs 25 GB of memory and
# 5.6% of the CPU" => 250 MB and 0.056% per container, linear.
# ---------------------------------------------------------------------------

CONFIG_LOAD_TIME_PER_ENTRY = 12e-3  # 100K entries -> 1200 s (~20 min)
CONTAINER_BASE_BOOT_TIME = 1.0  # image start + namespaces + veth plumbing
CONTAINER_PREHEAT_RESUME_TIME = 0.35  # preheated: processes up, state stale
CONTAINER_MEMORY_BASE = 18 * 2**20
CONTAINER_MEMORY_PER_CONFIG = 230 * 2**10  # ~1000 configs -> ~250 MB total
CONTAINER_CPU_FRACTION = 0.056 / 100  # of one host, per container (idle)

# ---------------------------------------------------------------------------
# BFD (repro.bfd).  §3.3.2: "its timeout interval is usually less than 1
# second -- 100 ms x 3 is adopted in Tencent's cloud gateway."
# ---------------------------------------------------------------------------

BFD_TX_INTERVAL = 0.1
BFD_DETECT_MULT = 3

# ---------------------------------------------------------------------------
# Controller / failure localization (repro.control).  §3.3.3 and Table 1.
# ---------------------------------------------------------------------------

APP_MONITOR_INTERVAL = 0.01  # in-container supervisor poll (detect ~0.01 s)
DOCKER_MONITOR_INTERVAL = 0.25  # host process monitor (container detect ~0.3 s)
GRPC_HEARTBEAT_INTERVAL = 0.1
GRPC_HEARTBEAT_TIMEOUT = 0.3
IPSLA_PROBE_INTERVAL = 0.1
IPSLA_PROBE_TIMEOUT = 0.25
HOST_FAILURE_CONFIRM_TIMER = 3.0  # "a 3-second timer will be given"
CONTROLLER_DECISION_TIME = 0.1  # "Initiates NSR Migration" ~0.1-0.2 s

# Table 1 recovery-phase calibration for TENSOR (simulated mechanisms must
# land near these; see benchmarks/bench_table1_failure_recovery.py):
#   application: 0.01 / 0.10 / 1.09 / 1.06 / 2.26
#   container:   0.31 / 0.10 / 1.19 / 1.01 / 2.61
#   host:        3.30 / 0.20 / 4.50 / 1.05 / 9.05
#   host net:    3.30 / 0.21 / 4.45 / 1.21 / 9.17
APP_RESTART_TIME = 1.08  # restart BGP+BFD processes inside the container
PROCESS_START_TIME = 0.8  # start BGP+BFD inside a freshly booted container
TCP_REPAIR_RESUME_TIME = 1.0  # socket repair + BGP table download + resync
HOST_MIGRATION_STAGGER = 0.15  # per-container serialization on mass move
CONTROLLER_DECISION_TIME_MACHINE = 0.2  # planning a whole-machine migration

# Recovery watchdog: a migration that has not completed this long after
# the decision is abandoned and detection is re-armed (the per-entry
# config-load term is added by the controller for full-table pairs, so a
# legitimately slow cold boot is never falsely abandoned).  Generously
# above the worst Table-1 recovery total (~9.2 s) plus confirm timers.
RECOVERY_DEADLINE = 30.0

# Replicated controller panel (DESIGN.md §15).
PANEL_TICK = 0.5  # leadership-lease maintenance cadence
PANEL_LIE_INTERVAL = 0.9  # corrupted-monitor fabrication cadence

# Baseline (FRR/GoBGP/BIRD, Table 1 bracketed numbers): manual operations.
BASELINE_MANUAL_DETECT = {"application": 1.0, "host_machine": 15.0, "host_network": 5.0}
BASELINE_MANUAL_REBOOT = {"application": 20.0, "host_machine": 200.0, "host_network": 5.0}
BASELINE_TCP_RECONNECT = {"application": 1.0, "host_machine": 5.0, "host_network": 5.0}
BASELINE_BGP_RECOVERY = {"application": 5.0, "host_machine": 10.0, "host_network": 10.0}

# Failure mix (Table 1 "Frequency" column).
FAILURE_FREQUENCIES = {
    "application": 0.03,
    "container": 0.13,
    "host_machine": 0.19,
    "host_network": 0.65,
}

# ---------------------------------------------------------------------------
# Operational model (Fig. 7).  §4.4: mean per-link throughput > 37 Gbps,
# median ~64 Mbps, "Over 30% of the links ... carry over 1 Gb of data per
# second"; "roughly 34 TB of data is impacted every month" pre-TENSOR.
#
# A single lognormal cannot satisfy (median 64 Mbps, mean 37 Gbps, P[>1G] >
# 0.3) simultaneously, so we use a two-component lognormal mixture:
# 60% "small" links (median ~17 Mbps, sigma 1.5) and 40% "large" links
# (median 5.3 Gbps, sigma 2.4).  Checks:
#   P[>1G]  = 0.4*P(Z > -0.70) + 0.6*P(Z > 2.35) ~= 0.303 + 0.006 = 0.31
#   mean    = 0.4*5.3e9*e^(2.4^2/2) + tiny      ~= 37.7 Gbps
#   median: P[<64M] = 0.6*P(Z < 0.88) + 0.4*P(Z < -1.84) ~= 0.50
# ---------------------------------------------------------------------------

TRAFFIC_MIX_SMALL_WEIGHT = 0.60
TRAFFIC_SMALL_MEDIAN_BPS = 17.1e6
TRAFFIC_SMALL_SIGMA = 1.5
TRAFFIC_LARGE_MEDIAN_BPS = 5.3e9
TRAFFIC_LARGE_SIGMA = 2.4

FLEET_SERVERS = 400  # "a fleet of 400 servers"
FLEET_BGP_CONNECTIONS = 31000  # "over 31,000 BGP peering connections"
FLEET_PEERING_ASES = 6000  # "span over 6,000 ASes"

# ---------------------------------------------------------------------------
# Cost models (Table 2).
# ---------------------------------------------------------------------------

SOLUTION_COSTS = {
    "frr/gobgp/bird": {
        "recovery": "(Offline) Tens of Seconds to Minutes",
        "dev_time_months": 0,
        "dev_labor_man_months": 0,
        "loc": "70K-418K",
        "deploy_cost_usd": 3000,
        "maintenance_man_hours_per_month": 72,
    },
    "nsr_router": {
        "recovery": "(Online) Seconds",
        "dev_time_months": 50,
        "dev_labor_man_months": 500,
        "loc": "+50K",
        "deploy_cost_usd": 15000,
        "maintenance_man_hours_per_month": 110,
    },
    "tensor": {
        "recovery": "(Online) Seconds",
        "dev_time_months": 12,
        "dev_labor_man_months": 25,
        "loc": "+8K",
        "deploy_cost_usd": 3000,
        "maintenance_man_hours_per_month": 10,
    },
}
