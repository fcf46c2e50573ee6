"""The TCP connection state machine.

One :class:`TcpConnection` is one end of a connection.  It owns the send
and receive buffers, the retransmission machinery and the congestion
controller, and talks to the wire exclusively through its
:class:`~repro.tcpsim.stack.TcpStack`, whose egress path runs the Netfilter
OUTPUT chain — the interception point TENSOR's ``tcp_queue`` relies on.
"""

from repro.sim.calibration import (
    TCP_MAX_RTO,
    TCP_MIN_RTO,
    TCP_MSS,
    TCP_RECEIVE_WINDOW,
    TCP_USER_TIMEOUT,
)
from repro.sim.process import Timer
from repro.tcpsim.congestion import RenoCongestionControl
from repro.tcpsim.segment import Segment
from repro.tcpsim.state import TcpState

#: Time spent in TIME_WAIT (2*MSL).  Kept short so simulations that churn
#: many connections stay fast; it only needs to exceed realistic segment
#: lifetimes on the simulated fabric.
TIME_WAIT_DURATION = 1.0


class TcpConnection:
    """One endpoint of a TCP connection.

    Application callbacks (all optional):

    - ``on_established(conn)`` — handshake completed.
    - ``on_data(conn, data)``  — in-order bytes arrived.
    - ``on_close(conn)``       — orderly teardown finished.
    - ``on_reset(conn, reason)`` — connection aborted (RST, user timeout).
    """

    def __init__(self, stack, local_port, remote_addr, remote_port):
        self.stack = stack
        self.engine = stack.engine
        self.local_port = local_port
        self.remote_addr = remote_addr
        self.remote_port = remote_port

        self.state = TcpState.CLOSED
        self.mss = TCP_MSS
        #: Optional application-imposed segment size cap (the iperf workload
        #: of Fig. 5(a) uses TCP_NODELAY small writes, which emit write-size
        #: segments instead of MSS-coalesced ones).
        self.mss_limit = None
        self.rcv_wnd = TCP_RECEIVE_WINDOW

        # Sequence variables (RFC 793 names).  Unbounded ints, see package
        # docstring for the no-wraparound simplification.
        self.iss = stack.next_isn()
        self.irs = None
        self.snd_una = self.iss
        self.snd_nxt = self.iss
        self.snd_wnd = self.mss  # until the peer advertises
        self.rcv_nxt = None

        self._send_buffer = bytearray()  # bytes in [snd_una, write edge)
        self._ooo_segments = {}  # seq -> payload, beyond rcv_nxt
        self._fin_pending = False
        self._fin_seq = None  # sequence number our FIN occupies

        self.cc = RenoCongestionControl(self.mss)

        # RTO estimation (RFC 6298).
        self.srtt = None
        self.rttvar = None
        self.rto = 1.0
        self._rtt_sample_seq = None
        self._rtt_sample_time = None

        self._rexmit_timer = Timer(self.engine, self._on_rexmit_timeout, "tcp-rexmit")
        self._rexmit_started = None
        self._persist_timer = Timer(self.engine, self._on_persist_timeout, "tcp-persist")
        self._time_wait_timer = Timer(self.engine, self._on_time_wait_done, "time-wait")
        self._dupacks = 0

        self.on_established = None
        self.on_data = None
        self.on_close = None
        self.on_reset = None

        # Statistics (read by tests and benchmarks).
        self.segments_sent = 0
        self.retransmissions = 0
        self.bytes_delivered = 0
        self.established_at = None

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    @property
    def local_addr(self):
        return self.stack.host.address

    @property
    def four_tuple(self):
        return (self.local_addr, self.local_port, self.remote_addr, self.remote_port)

    @property
    def bytes_in_flight(self):
        return self.snd_nxt - self.snd_una

    @property
    def bytes_unsent(self):
        return len(self._send_buffer) - self.bytes_in_flight

    # ------------------------------------------------------------------
    # opening
    # ------------------------------------------------------------------

    def open_active(self):
        """Send SYN (active open)."""
        self.state = TcpState.SYN_SENT
        self._emit(Segment(self.iss, 0, Segment.SYN, self.rcv_wnd, mss=self.mss))
        self.snd_nxt = self.iss + 1
        self._arm_rexmit()

    def open_passive(self, syn_segment):
        """React to a received SYN (stack calls this for listeners)."""
        self.state = TcpState.SYN_RCVD
        self.irs = syn_segment.seq
        self.rcv_nxt = syn_segment.seq + 1
        if syn_segment.mss:
            self.mss = min(self.mss, syn_segment.mss)
            self.cc.mss = self.mss
        self.snd_wnd = syn_segment.window
        self._emit(
            Segment(
                self.iss,
                self.rcv_nxt,
                Segment.SYN | Segment.ACK,
                self.rcv_wnd,
                mss=self.mss,
            )
        )
        self.snd_nxt = self.iss + 1
        self._arm_rexmit()

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def send(self, data):
        """Queue application bytes and transmit as windows allow."""
        if not self.state.can_send_data():
            raise ConnectionError(
                f"send() in state {self.state.value} on {self.four_tuple}"
            )
        if not data:
            return
        self._send_buffer.extend(data)
        self._try_send()

    def close(self):
        """Orderly close: FIN after all queued data is sent."""
        if self.state in (TcpState.CLOSED, TcpState.TIME_WAIT):
            return
        if self.state in (TcpState.SYN_SENT, TcpState.SYN_RCVD):
            self._teardown(notify_close=True)
            return
        self._fin_pending = True
        self._maybe_send_fin()

    def abort(self):
        """Send RST and drop all state."""
        if self.state.is_synchronized():
            self._emit(Segment(self.snd_nxt, self.rcv_nxt or 0, Segment.RST | Segment.ACK, 0))
        self._teardown(notify_close=False)

    def _maybe_send_fin(self):
        if not self._fin_pending or self._fin_seq is not None:
            return
        if self.bytes_unsent > 0:
            return  # data still queued; FIN goes after it
        self._fin_seq = self.snd_nxt
        self._emit(Segment(self.snd_nxt, self.rcv_nxt, Segment.FIN | Segment.ACK, self.rcv_wnd))
        self.snd_nxt += 1
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.FIN_WAIT_1
        elif self.state is TcpState.CLOSE_WAIT:
            self.state = TcpState.LAST_ACK
        self._arm_rexmit()

    def _effective_window(self):
        return min(self.cc.cwnd, self.snd_wnd)

    def _try_send(self):
        """Transmit new data as the congestion and peer windows allow."""
        if not self.state.can_send_data() and self.state is not TcpState.FIN_WAIT_1:
            return
        while True:
            window = self._effective_window()
            room = window - self.bytes_in_flight
            unsent = self.bytes_unsent
            if unsent <= 0:
                break
            seg_cap = self.mss if self.mss_limit is None else min(self.mss, self.mss_limit)
            chunk = int(min(seg_cap, room, unsent))
            if chunk <= 0:
                if self.snd_wnd == 0:
                    self._arm_persist()
                break
            offset = self.bytes_in_flight
            payload = bytes(self._send_buffer[offset : offset + chunk])
            seg = Segment(self.snd_nxt, self.rcv_nxt, Segment.ACK, self.rcv_wnd, payload)
            self._emit(seg)
            self._take_rtt_sample(self.snd_nxt + chunk)
            self.snd_nxt += chunk
            if not self._rexmit_timer.armed:
                self._arm_rexmit()
        self._maybe_send_fin()

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------

    def on_segment(self, seg):
        """Entry point for every segment the stack demuxes to us."""
        if seg.rst:
            self._handle_rst(seg)
            return
        handler = {
            TcpState.SYN_SENT: self._segment_in_syn_sent,
            TcpState.SYN_RCVD: self._segment_in_syn_rcvd,
        }.get(self.state)
        if handler is not None:
            handler(seg)
            return
        if self.state is TcpState.TIME_WAIT:
            # Retransmitted FIN: re-ack it.
            if seg.fin:
                self._send_pure_ack()
            return
        if self.state.is_synchronized():
            self._segment_in_synchronized(seg)

    def _handle_rst(self, seg):
        # Accept RST only if it is within the window (blind-RST guard).
        if self.state.is_synchronized() and self.rcv_nxt is not None:
            if not (self.rcv_nxt <= seg.seq <= self.rcv_nxt + self.rcv_wnd):
                return
        self._teardown(notify_close=False, reset_reason="rst")

    def _segment_in_syn_sent(self, seg):
        if not (seg.syn and seg.has_ack):
            return
        if seg.ack != self.iss + 1:
            self._emit(Segment(seg.ack, 0, Segment.RST, 0))
            return
        self.irs = seg.seq
        self.rcv_nxt = seg.seq + 1
        self.snd_una = seg.ack
        self.snd_wnd = seg.window
        if seg.mss:
            self.mss = min(self.mss, seg.mss)
            self.cc.mss = self.mss
        self._rexmit_timer.stop()
        self.state = TcpState.ESTABLISHED
        self.established_at = self.engine.now
        self._send_pure_ack()
        if self.on_established:
            self.on_established(self)
        self._try_send()

    def _segment_in_syn_rcvd(self, seg):
        if seg.syn and not seg.has_ack:
            # Duplicate SYN: retransmit SYN-ACK.
            self._emit(
                Segment(self.iss, self.rcv_nxt, Segment.SYN | Segment.ACK, self.rcv_wnd, mss=self.mss)
            )
            return
        if seg.has_ack and seg.ack == self.iss + 1:
            self.snd_una = seg.ack
            self.snd_wnd = seg.window
            self._rexmit_timer.stop()
            self.state = TcpState.ESTABLISHED
            self.established_at = self.engine.now
            self.stack.notify_accepted(self)
            if self.on_established:
                self.on_established(self)
            if seg.payload or seg.fin:
                self._segment_in_synchronized(seg)

    def _segment_in_synchronized(self, seg):
        if seg.has_ack:
            self._process_ack(seg)
        if seg.payload:
            self._process_payload(seg)
        if seg.fin:
            self._process_fin(seg)

    # -- ACK processing -------------------------------------------------

    def _process_ack(self, seg):
        if seg.ack > self.snd_nxt:
            return  # acks something we never sent; ignore
        if seg.ack > self.snd_una:
            acked = seg.ack - self.snd_una
            fin_acked = self._fin_seq is not None and seg.ack > self._fin_seq
            data_acked = acked - (1 if fin_acked else 0)
            if data_acked > 0:
                del self._send_buffer[:data_acked]
                self.cc.on_ack(data_acked)
            self.snd_una = seg.ack
            self.snd_wnd = seg.window
            self._dupacks = 0
            self._complete_rtt_sample(seg.ack)
            self._rexmit_started = None
            # Forward progress collapses exponential backoff (as Linux
            # does): without this, a peer recovering from a long outage
            # drips at one segment per maxed-out RTO.
            if self.srtt is not None:
                self.rto = min(max(self.srtt + 4 * self.rttvar, TCP_MIN_RTO), TCP_MAX_RTO)
            else:
                self.rto = 1.0
            if self.bytes_in_flight > 0 or (
                self._fin_seq is not None and not fin_acked
            ):
                self._arm_rexmit()
            else:
                self._rexmit_timer.stop()
            if fin_acked:
                self._fin_acked()
            self._try_send()
        elif seg.ack == self.snd_una:
            self.snd_wnd = seg.window
            if self.bytes_in_flight > 0 and not seg.payload and not seg.fin:
                self._dupacks += 1
                if self._dupacks == 3:
                    self.retransmissions += 1
                    self.cc.on_fast_retransmit()
                    self._retransmit_head()
                elif self._dupacks > 3:
                    self.cc.on_duplicate_ack_in_recovery()
                    self._try_send()
            else:
                self._try_send()

    def _fin_acked(self):
        if self.state is TcpState.FIN_WAIT_1:
            self.state = TcpState.FIN_WAIT_2
        elif self.state is TcpState.CLOSING:
            self._enter_time_wait()
        elif self.state is TcpState.LAST_ACK:
            self._teardown(notify_close=True)

    # -- payload processing ----------------------------------------------

    def _process_payload(self, seg):
        if not self.state.can_receive_data():
            self._send_pure_ack()
            return
        seq, payload = seg.seq, seg.payload
        if seq > self.rcv_nxt:
            # Out of order: stash and send a duplicate ACK.
            if seq - self.rcv_nxt <= self.rcv_wnd:
                self._ooo_segments[seq] = payload
            self._send_pure_ack()
            return
        if seq < self.rcv_nxt:
            # Partially or fully old (retransmission overlap): trim.
            overlap = self.rcv_nxt - seq
            if overlap >= len(payload):
                self._send_pure_ack()
                return
            payload = payload[overlap:]
            seq = self.rcv_nxt
        delivered = bytearray(payload)
        self.rcv_nxt = seq + len(payload)
        # Absorb any contiguous out-of-order segments.
        while self.rcv_nxt in self._ooo_segments:
            chunk = self._ooo_segments.pop(self.rcv_nxt)
            delivered.extend(chunk)
            self.rcv_nxt += len(chunk)
        self._send_pure_ack()
        self.bytes_delivered += len(delivered)
        if self.on_data:
            self.on_data(self, bytes(delivered))

    def _process_fin(self, seg):
        fin_seq = seg.seq + len(seg.payload)
        if fin_seq != self.rcv_nxt:
            return  # FIN beyond a gap; the dup-ACK already asked for data
        self.rcv_nxt += 1
        self._send_pure_ack()
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.CLOSE_WAIT
        elif self.state is TcpState.FIN_WAIT_1:
            self.state = TcpState.CLOSING
        elif self.state is TcpState.FIN_WAIT_2:
            self._enter_time_wait()
        if self.on_close and self.state is TcpState.CLOSE_WAIT:
            self.on_close(self)

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------

    def _arm_rexmit(self):
        if self._rexmit_started is None:
            self._rexmit_started = self.engine.now
        self._rexmit_timer.restart(self.rto)

    def _on_rexmit_timeout(self):
        if self.state in (TcpState.CLOSED, TcpState.TIME_WAIT):
            return
        # explicit None check: a timer first armed at t=0.0 is falsy
        started = (
            self._rexmit_started if self._rexmit_started is not None else self.engine.now
        )
        if self.engine.now - started > TCP_USER_TIMEOUT:
            self._teardown(notify_close=False, reset_reason="user-timeout")
            return
        self.retransmissions += 1
        self.rto = min(self.rto * 2, TCP_MAX_RTO)
        self._rtt_sample_seq = None  # Karn: no samples from retransmits
        if self.state is TcpState.SYN_SENT:
            self._emit(Segment(self.iss, 0, Segment.SYN, self.rcv_wnd, mss=self.mss))
        elif self.state is TcpState.SYN_RCVD:
            self._emit(
                Segment(self.iss, self.rcv_nxt, Segment.SYN | Segment.ACK, self.rcv_wnd, mss=self.mss)
            )
        else:
            self.cc.on_timeout()
            self._retransmit_head()
        self._rexmit_timer.restart(self.rto)

    def _retransmit_head(self):
        """Retransmit the first unacknowledged chunk (or our FIN)."""
        if self.bytes_in_flight == 0 and self._fin_seq is not None:
            self._emit(Segment(self._fin_seq, self.rcv_nxt, Segment.FIN | Segment.ACK, self.rcv_wnd))
            return
        if self.bytes_in_flight <= 0:
            return
        chunk = int(min(self.mss, self.bytes_in_flight))
        payload = bytes(self._send_buffer[:chunk])
        self._emit(Segment(self.snd_una, self.rcv_nxt, Segment.ACK, self.rcv_wnd, payload))

    def _arm_persist(self):
        if not self._persist_timer.armed:
            self._persist_timer.start(max(self.rto, TCP_MIN_RTO))

    def _on_persist_timeout(self):
        """Zero-window probe: one byte past the window."""
        if self.state in (TcpState.CLOSED, TcpState.TIME_WAIT):
            return
        if self.snd_wnd == 0 and self.bytes_unsent > 0:
            offset = self.bytes_in_flight
            probe = bytes(self._send_buffer[offset : offset + 1])
            self._emit(Segment(self.snd_nxt, self.rcv_nxt, Segment.ACK, self.rcv_wnd, probe))
            self.snd_nxt += 1
            self._arm_persist()
        else:
            self._try_send()

    def _enter_time_wait(self):
        self.state = TcpState.TIME_WAIT
        self._rexmit_timer.stop()
        self._persist_timer.stop()
        self._time_wait_timer.start(TIME_WAIT_DURATION)

    def _on_time_wait_done(self):
        self._teardown(notify_close=True)

    # ------------------------------------------------------------------
    # RTT estimation (RFC 6298)
    # ------------------------------------------------------------------

    def _take_rtt_sample(self, seq_end):
        if self._rtt_sample_seq is None:
            self._rtt_sample_seq = seq_end
            self._rtt_sample_time = self.engine.now

    def _complete_rtt_sample(self, ack):
        if self._rtt_sample_seq is None or ack < self._rtt_sample_seq:
            return
        sample = self.engine.now - self._rtt_sample_time
        self._rtt_sample_seq = None
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(max(self.srtt + 4 * self.rttvar, TCP_MIN_RTO), TCP_MAX_RTO)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _send_pure_ack(self):
        self._emit(Segment(self.snd_nxt, self.rcv_nxt, Segment.ACK, self.rcv_wnd))

    def _emit(self, segment):
        self.segments_sent += 1
        self.stack.emit(self, segment)

    def _teardown(self, notify_close, reset_reason=None):
        was_synchronized = self.state.is_synchronized()
        self.state = TcpState.CLOSED
        self._rexmit_timer.stop()
        self._persist_timer.stop()
        self._time_wait_timer.stop()
        self._send_buffer.clear()
        self._ooo_segments.clear()
        self.stack.forget(self)
        if reset_reason is not None and self.on_reset:
            self.on_reset(self, reset_reason)
        elif notify_close and was_synchronized and self.on_close:
            self.on_close(self)

    def __repr__(self):
        return (
            f"<TcpConnection {self.local_addr}:{self.local_port}->"
            f"{self.remote_addr}:{self.remote_port} {self.state.value}>"
        )
