"""A from-scratch userspace TCP over the simulated network.

TENSOR's NSR mechanism needs three things from TCP that a simple message
pipe cannot provide: real sequence/ACK numbers a remote peer tracks
(§3.1.2 "Matching ACK numbers"), an egress interception point for ACK
packets (the Netfilter OUTPUT hook), and TCP_REPAIR-style state export /
import so a backup can adopt a live connection.  This package implements a
compact but genuine TCP: 3-way handshake, cumulative ACKs, out-of-order
reassembly, retransmission with RTO backoff and fast retransmit, Reno
congestion control, flow control, FIN/RST teardown, and repair mode.

Simplifications (documented here once): sequence numbers are unbounded
Python ints (no 2^32 wraparound), the advertised window is not capped at
16 bits (no window-scale option needed), and there are no SACK/timestamps.
None of these affect the mechanisms the paper evaluates.
"""

from repro.tcpsim.segment import Segment
from repro.tcpsim.state import TcpState
from repro.tcpsim.congestion import RenoCongestionControl
from repro.tcpsim.connection import TcpConnection
from repro.tcpsim.stack import TcpStack
from repro.tcpsim.repair import TcpRepairState, import_tcp_state
from repro.tcpsim.throughput_model import max_throughput

__all__ = [
    "Segment",
    "TcpState",
    "RenoCongestionControl",
    "TcpConnection",
    "TcpStack",
    "TcpRepairState",
    "import_tcp_state",
    "max_throughput",
]
