"""Datagram sockets and a request/response RPC layer.

The KV-store protocol, the controller's gRPC-style channels and the IP SLA
probes all need the same primitive: send a request to an address, get a
reply or a timeout.  This module provides it over the simulated fabric.
Everything is callback-based (the simulator has no coroutines), and every
exchange really crosses the network, so failures of hosts, NICs and links
produce timeouts exactly where the paper's failure-localization logic
expects them.
"""

import itertools
from functools import partial

from repro.sim.engine import SimulationError
from repro.sim.network import Packet


class DatagramSocket:
    """A connectionless socket bound to (protocol, port) on a host.

    ``on_receive(packet)`` gets each datagram as the packet itself: its
    ``src``, ``sport`` and ``payload`` are read where they are needed.
    """

    def __init__(self, host, port, protocol="udp"):
        self.host = host
        self.port = port
        self.protocol = protocol
        self.on_receive = None
        host.bind(protocol, port, self._deliver)
        self._closed = False

    def sendto(self, dst_addr, dst_port, payload, size=256, src_override=None):
        """Send a datagram.  Returns False when the local stack is down.

        ``src_override`` spoofs the source address — the agent server's
        BFD relay uses it to transmit keepalives that appear to come from
        the (down) primary's service address, which the shared VXLAN
        underlay makes legitimate in the real deployment.
        """
        if self._closed:
            raise SimulationError("sendto on closed socket")
        host = self.host
        return host.send(Packet(src_override or host.address, dst_addr,
                                self.protocol, self.port, dst_port, payload,
                                size))

    def _deliver(self, packet):
        if self.on_receive is not None:
            self.on_receive(packet)

    def close(self):
        if not self._closed:
            self.host.unbind(self.protocol, self.port)
            self._closed = True


class _RpcFrame:
    """Wire frame for the RPC layer.

    ``trace`` carries the caller's trace context — the serializable
    ``(trace_id, span_id)`` reference of the span ambient at ``call``
    time — across the process boundary, the way a real RPC layer ships
    trace ids in request metadata.
    """

    __slots__ = ("kind", "req_id", "method", "body", "trace")

    def __init__(self, kind, req_id, method, body, trace=None):
        self.kind = kind  # "req" | "rep" | "refused"
        self.req_id = req_id
        self.method = method
        self.body = body
        self.trace = trace


class RefusalResponder:
    """Models the OS answering a closed port with a reset.

    A request to a host whose server process has *exited* (socket
    unbound) should fail fast with a connection-refused error rather
    than a timeout — the distinction the KV failover client logic needs
    to tell a dead-but-reachable endpoint from a partition.  Installed
    as the protocol-wide wildcard handler, so it only sees requests that
    no bound socket claimed first.
    """

    def __init__(self, engine, host):
        self.engine = engine
        self.host = host
        self.refusals = 0
        host.bind("rpc", None, self._on_packet)

    def _on_packet(self, packet):
        frame = packet.payload
        if not isinstance(frame, _RpcFrame) or frame.kind != "req":
            return
        self.refusals += 1
        reply = _RpcFrame("refused", frame.req_id, frame.method, None)
        self.host.send(Packet(
            src=self.host.address,
            dst=packet.src,
            protocol="rpc",
            sport=packet.dport,
            dport=packet.sport,
            payload=reply,
            size=64,
        ))


class RpcServer:
    """Serves requests on (host, port).

    ``handler(method, body, respond)`` runs application logic and must
    call ``respond(reply_body)`` exactly once, then or later — possibly
    after further network round trips (the KV store's synchronous
    replication replies only once its replica has confirmed the write).
    A ``service_time(method, body) -> seconds`` hook models server-side
    processing cost (the KV store uses it for its calibrated op costs):
    the handler then runs on an event of its own once the service time
    has passed, under the server's trace span.  A server without the
    hook runs the handler inside the event that delivered the request,
    in that event's trace context — one engine event per RPC direction,
    not two.
    """

    def __init__(self, engine, host, port, handler, service_time=None, protocol="rpc"):
        self.engine = engine
        self.host = host
        self.port = port
        self.handler = handler
        self.service_time = service_time
        self.socket = DatagramSocket(host, port, protocol=protocol)
        self.socket.on_receive = self._on_frame
        self.requests_served = 0

    def _on_frame(self, packet):
        frame = packet.payload
        if frame.kind != "req":
            return
        if self.service_time is None:
            self._serve(packet, self.engine.now)
            return
        self.engine.schedule(
            self.service_time(frame.method, frame.body),
            self._serve, packet, self.engine.now
        )

    def _serve(self, packet, received_at):
        frame = packet.payload
        tracer = self.engine._trace_hook
        span = None
        if tracer is not None:
            span = tracer.begin_from(
                frame.trace, "rpc.server." + frame.method, port=self.port
            )
            span.begin = received_at  # service time counts as server work
        respond = partial(self._respond, packet, span)
        if span is None or self.service_time is None:
            self.handler(frame.method, frame.body, respond)
            return
        # On its own event the handler (and any replica round trip it
        # starts, e.g. the KV store's synchronous replication) runs under
        # the propagated context.
        with tracer.activate(span):
            self.handler(frame.method, frame.body, respond)

    def _respond(self, packet, span, reply_body):
        if span is not None:
            span.finish()
        if self.socket._closed:
            return  # server exited mid-request (e.g. failover demotion)
        self.requests_served += 1
        frame = packet.payload
        reply = _RpcFrame("rep", frame.req_id, frame.method, reply_body)
        self.socket.sendto(packet.src, packet.sport, reply,
                           size=_body_size(reply_body))

    def close(self):
        self.socket.close()


class RpcClient:
    """Issues requests to a fixed server address.

    ``call(method, body, on_reply, on_timeout=..., timeout=...)`` — the
    reply callback receives the reply body; the timeout callback fires if
    no reply arrives in time (lost packets, dead server, partition).
    """

    def __init__(self, engine, host, server_addr, server_port, protocol="rpc"):
        self.engine = engine
        self.host = host
        self.server_addr = server_addr
        self.server_port = server_port
        # engine-scoped allocation: a client's port must not depend on
        # which other simulations share this OS process (determinism
        # across parallel-runtime worker placements)
        port = engine.next_id("rpc.client_port", 40000)
        self.socket = DatagramSocket(host, port, protocol=protocol)
        self.socket.on_receive = self._on_frame
        self._req_counter = itertools.count(1)
        self._pending = {}
        self.timeouts = 0
        self.replies = 0
        self.refusals = 0

    def call(self, method, body, on_reply, on_timeout=None, timeout=1.0,
             on_refused=None):
        """Fire a request.  Exactly one of the callbacks will run.

        ``on_refused`` fires when the endpoint actively refuses the
        request (a :class:`RefusalResponder` answered for a closed
        port, or :meth:`retarget` abandoned the old endpoint); without
        it, refusals fall back to ``on_timeout``.  A call on a closed
        client raises before anything is recorded or scheduled.
        """
        sock, engine = self.socket, self.engine
        if sock._closed:
            raise SimulationError("call on closed RpcClient")
        req_id = next(self._req_counter)
        tracer = engine._trace_hook
        if tracer is not None:
            span = tracer.begin("rpc." + method, server=self.server_addr)
            frame = _RpcFrame(
                "req", req_id, method, body,
                trace=(span.trace_id, span.span_id),
            )
        else:
            frame = _RpcFrame("req", req_id, method, body)
            span = None
        timer = engine.schedule(timeout, self._expire, req_id)
        self._pending[req_id] = (on_reply, on_timeout, on_refused, timer, span)
        sock.sendto(
            self.server_addr, self.server_port, frame, size=_body_size(body)
        )
        return req_id

    def _on_frame(self, packet):
        frame = packet.payload
        if frame.kind == "refused":
            self._refuse(frame.req_id)
            return
        if frame.kind != "rep":
            return
        entry = self._pending.pop(frame.req_id, None)
        if entry is None:
            return  # reply after timeout: drop
        on_reply, _on_timeout, _on_refused, timer, span = entry
        timer.cancel()
        self.replies += 1
        if span is not None:
            span.finish(outcome="reply")
        on_reply(frame.body)

    def _expire(self, req_id):
        entry = self._pending.pop(req_id, None)
        if entry is None:
            return
        _on_reply, on_timeout, _on_refused, _timer, span = entry
        self.timeouts += 1
        if span is not None:
            span.finish(outcome="timeout")
        if on_timeout is not None:
            on_timeout()

    def _refuse(self, req_id):
        entry = self._pending.pop(req_id, None)
        if entry is None:
            return
        on_reply_, on_timeout, on_refused, timer, span = entry
        timer.cancel()
        self.refusals += 1
        if span is not None:
            span.finish(outcome="refused")
        if on_refused is not None:
            on_refused()
        elif on_timeout is not None:
            on_timeout()

    def retarget(self, server_addr, server_port=None):
        """Point the client at a different endpoint (failover repoint).

        Every in-flight request to the old endpoint is failed through
        its refused/timeout callback *now* — silently cancelling them
        would wedge callers (a write coalescer's in-flight flag, a held
        ACK) waiting on a callback that never comes.
        """
        self.server_addr = server_addr
        if server_port is not None:
            self.server_port = server_port
        abandoned = list(self._pending)
        for req_id in abandoned:
            self._refuse(req_id)

    def cancel_all(self):
        """Drop all in-flight requests without firing callbacks."""
        for _on_reply, _on_timeout, _on_refused, timer, span in self._pending.values():
            timer.cancel()
            if span is not None:
                span.finish(outcome="cancelled")
        self._pending.clear()

    def close(self):
        self.cancel_all()
        self.socket.close()


def _body_size(body):
    """Estimate the wire size of an RPC body (256 bytes when it is
    neither bytes nor a dict).  A dict counts its top-level keys only."""
    if isinstance(body, dict):
        total = 64
        if not body:
            return total  # the health and echo request: most RPC traffic
        for key, value in body.items():
            total += len(key if type(key) is str else str(key))
            if isinstance(value, (bytes, bytearray, str)):
                total += len(value)
            else:
                total += 8
        return total
    if isinstance(body, (bytes, bytearray)):
        return 64 + len(body)
    return 256
