"""gRPC-style channels: health servers and heartbeat clients.

"the controller will set up gRPC channels to all the containers, their
host machines, and the agent server.  The gRPC channels will send gRPC
heartbeats for health monitoring." (§3.3.2)
"""

from repro.sim.calibration import GRPC_HEARTBEAT_INTERVAL, GRPC_HEARTBEAT_TIMEOUT
from repro.sim.process import Process
from repro.sim.rpc import RpcClient, RpcServer

GRPC_PORT_BASE = 50051

#: Consecutive heartbeat timeouts before a channel reports unhealthy.
GRPC_MISS_THRESHOLD = 2


class HealthServer:
    """The gRPC health endpoint running on a monitored entity.

    ``status_fn()`` returns a dict (a machine's container states) included
    in every heartbeat reply; the controller's application-layer
    management reads it.  Without one the reply carries an empty status.
    """

    def __init__(self, engine, host, status_fn=None, port=GRPC_PORT_BASE):
        self.engine = engine
        self.host = host
        self.port = port
        self.status_fn = status_fn or dict
        self.rpc = RpcServer(engine, host, port, self._handle, protocol="grpc")

    def _handle(self, method, _body, respond):
        if method == "health":
            respond({"ok": True, "status": self.status_fn()})
        else:
            respond({"ok": False})

    def close(self):
        self.rpc.close()


class GrpcChannel:
    """A controller-side heartbeat channel to one health server.

    A heartbeat goes out every ``GRPC_HEARTBEAT_INTERVAL``.  After
    :data:`GRPC_MISS_THRESHOLD` consecutive timeouts the channel reports
    unhealthy via ``on_unhealthy(channel)``; a later success reports
    ``on_healthy(channel)``.  Healthy replies stream their status dict to
    ``on_status(channel, status)``.
    """

    def __init__(
        self,
        engine,
        local_host,
        target_name,
        target_addr,
        target_port=GRPC_PORT_BASE,
        on_unhealthy=None,
        on_healthy=None,
        on_status=None,
    ):
        self.engine = engine
        self.target_name = target_name
        self.target_addr = target_addr
        self.on_unhealthy = on_unhealthy
        self.on_healthy = on_healthy
        self.on_status = on_status
        self.client = RpcClient(engine, local_host, target_addr, target_port, protocol="grpc")
        self.process = Process(engine, f"grpc:{target_name}")
        self.consecutive_misses = 0
        self.healthy = True
        self.last_reply_at = None

    def start(self):
        self.process.every(GRPC_HEARTBEAT_INTERVAL, self._beat)

    def _beat(self):
        self.client.call(
            "health",
            {},
            on_reply=self._on_reply,
            on_timeout=self._on_miss,
            timeout=GRPC_HEARTBEAT_TIMEOUT,
        )

    def _on_reply(self, reply):
        self.consecutive_misses = 0
        self.last_reply_at = self.engine.now
        if not self.healthy:
            self.healthy = True
            if self.on_healthy is not None:
                self.on_healthy(self)
        if self.on_status is not None:
            self.on_status(self, reply["status"])

    def _on_miss(self):
        self.consecutive_misses += 1
        if self.healthy and self.consecutive_misses >= GRPC_MISS_THRESHOLD:
            self.healthy = False
            if self.on_unhealthy is not None:
                self.on_unhealthy(self)

    def stop(self):
        self.process.kill()
        self.client.close()

    def __repr__(self):
        state = "healthy" if self.healthy else "UNHEALTHY"
        return f"<GrpcChannel to {self.target_name} {state}>"


def next_grpc_port(engine):
    """Distinct port per health server co-hosted on one endpoint.

    Engine-scoped so that allocations in one simulation are independent
    of any other simulation sharing the process (parallel-runtime
    determinism across worker placements).
    """
    return GRPC_PORT_BASE + engine.next_id("grpc.port") % 1000
