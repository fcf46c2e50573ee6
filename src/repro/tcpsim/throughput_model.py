"""Analytic model of TCP throughput under a delayed acknowledgment.

Used to cross-check the Fig. 5(a) simulation.  Steady-state maximum
throughput of a loss-free connection is the minimum of three caps:

1. the sender CPU: R segments/s, each carrying up to ``min(write_size,
   MSS)`` useful bytes (writes larger than the MSS split into ceil(w/MSS)
   segments averaging w/ceil(w/MSS) bytes);
2. the window: W bytes per effective round trip, where the delayed
   acknowledgment adds ``ack_delay`` to the path RTT;
3. the link bandwidth.

The threshold the paper observes — "the maximum delay which does not
affect the TCP performance decreases as the packet size increases" — is
the ack_delay at which cap (2) dips below cap (1):
``d* = W / (R * avg_segment_bytes) - RTT``.
"""

import math

from repro.sim.calibration import (
    PEERING_LINK_BANDWIDTH,
    TCP_MSS,
    TCP_RECEIVE_WINDOW,
    TCP_SENDER_SEGMENT_RATE,
)


def average_segment_bytes(write_size):
    """Useful payload bytes per segment for an app writing ``write_size``."""
    if write_size <= 0:
        raise ValueError("write_size must be positive")
    segments = math.ceil(write_size / TCP_MSS)
    return write_size / segments


def max_throughput(write_size, ack_delay, rtt):
    """Maximum steady-state throughput in bits/second."""
    seg_bytes = average_segment_bytes(write_size)
    cpu_cap = TCP_SENDER_SEGMENT_RATE * seg_bytes * 8.0
    window_cap = TCP_RECEIVE_WINDOW * 8.0 / (rtt + ack_delay)
    return min(cpu_cap, window_cap, PEERING_LINK_BANDWIDTH)


def delay_threshold(write_size, rtt):
    """The largest ack delay that does not reduce throughput (Fig. 5a).

    Returns 0.0 when even an undelayed ACK path is window-limited.
    """
    seg_bytes = average_segment_bytes(write_size)
    cpu_rate = TCP_SENDER_SEGMENT_RATE * seg_bytes
    threshold = TCP_RECEIVE_WINDOW / cpu_rate - rtt
    return max(threshold, 0.0)
