"""Reno-style congestion control.

The congestion window is what turns a delayed acknowledgment into a
throughput cap (Fig. 5(a)): with a window of W bytes and an effective
round trip of RTT + ack_delay, steady-state throughput is bounded by
W / (RTT + ack_delay).  Slow start, congestion avoidance, fast retransmit
halving and timeout collapse follow RFC 5681.
"""

from repro.sim.calibration import TCP_INITIAL_CWND_SEGMENTS


class RenoCongestionControl:
    """RFC 5681 congestion control, byte-counted."""

    def __init__(self, mss):
        self.mss = mss
        self.cwnd = TCP_INITIAL_CWND_SEGMENTS * mss
        self.ssthresh = float("inf")
        self.fast_recovery = False
        self._avoidance_acc = 0
        # counters for tests/diagnostics
        self.loss_events = 0
        self.timeout_events = 0

    @property
    def in_slow_start(self):
        return self.cwnd < self.ssthresh

    def on_ack(self, acked_bytes):
        """New data acknowledged."""
        if self.fast_recovery:
            # Full ACK after fast retransmit: deflate to ssthresh.
            self.fast_recovery = False
            self.cwnd = max(self.ssthresh, 2 * self.mss)
            return
        if self.in_slow_start:
            self.cwnd += min(acked_bytes, self.mss)
        else:
            # Congestion avoidance: one MSS per cwnd of acked bytes.
            self._avoidance_acc += acked_bytes
            if self._avoidance_acc >= self.cwnd:
                self._avoidance_acc = 0
                self.cwnd += self.mss

    def on_fast_retransmit(self):
        """Triple duplicate ACK: multiplicative decrease, fast recovery."""
        self.loss_events += 1
        self.ssthresh = max(self.cwnd / 2.0, 2 * self.mss)
        self.cwnd = self.ssthresh + 3 * self.mss
        self.fast_recovery = True

    def on_duplicate_ack_in_recovery(self):
        """Window inflation while in fast recovery."""
        if self.fast_recovery:
            self.cwnd += self.mss

    def on_timeout(self):
        """RTO expiry: collapse to one segment and re-enter slow start."""
        self.timeout_events += 1
        self.ssthresh = max(self.cwnd / 2.0, 2 * self.mss)
        self.cwnd = self.mss
        self.fast_recovery = False
        self._avoidance_acc = 0

    def __repr__(self):
        phase = "ss" if self.in_slow_start else "ca"
        return f"<Reno cwnd={self.cwnd:.0f} ssthresh={self.ssthresh} {phase}>"
