"""The KV server process.

Single-threaded like Redis: requests serialize behind one CPU, so bursts
of replication writes from many BGP containers queue — which is one of
the pressures the containerized design spreads across time and, in a real
deployment, across database shards.

A server can replicate writes synchronously to a replica server; replies
are then withheld until the replica confirms (see
:mod:`repro.kvstore.replication`).
"""

from repro.sim.rpc import RpcClient, RpcServer
from repro.kvstore.store import (
    KeyValueStore,
    fixed_latency,
    record_count_of,
    server_cpu_cost,
)

KV_PORT = 6379
WRITE_METHODS = frozenset(("set", "mset", "delete"))


class KvServer:
    """One KV node: store + RPC front end + optional sync replication."""

    def __init__(self, engine, host, port=KV_PORT):
        self.engine = engine
        self.host = host
        self.port = port
        self.store = KeyValueStore()
        self._busy_until = 0.0
        self._replica_client = None
        self.rpc = RpcServer(
            engine, host, port, self._handle, service_time=self._service_time
        )
        self.failed = False
        self._permanent = False
        # Fencing floor: writes stamped with an older cluster epoch are
        # rejected instead of applied.  0 means "never part of a managed
        # cluster" — every stamped write passes (raw-server back-compat).
        self.epoch = 0
        self.fenced_writes = 0

    # -- replication wiring ----------------------------------------------

    def attach_replica(self, replica_addr, replica_port=KV_PORT):
        """Synchronously replicate writes to another KV server."""
        self._replica_client = RpcClient(
            self.engine, self.host, replica_addr, replica_port
        )

    def detach_replica(self):
        """Stop replicating (demotion: the old primary must not keep a
        replication channel to its successor, or stale clients' writes
        would leak into the new primary's store)."""
        if self._replica_client is not None:
            self._replica_client.close()
            self._replica_client = None

    # -- request processing ----------------------------------------------

    def _service_time(self, method, body):
        """Calibrated service time (Fig. 5(b)).

        Only the CPU share serializes behind other clients' requests; the
        protocol/syscall base overlaps across concurrent clients, like a
        real single-threaded Redis saturating at ~100K ops/s while each
        client still observes sub-millisecond round trips.
        """
        records = record_count_of(method, body)
        cpu = server_cpu_cost(method, records)
        now = self.engine.now
        start = max(now, self._busy_until)
        self._busy_until = start + cpu
        return (self._busy_until - now) + fixed_latency(method)

    def _handle(self, method, body, respond):
        if self.failed:
            return  # dead server: requests time out at the client
        if method in WRITE_METHODS:
            claimed = body.get("epoch")
            if claimed is not None and claimed < self.epoch:
                # Stale-epoch write: the cluster moved on while this
                # client still points here.  Reject without applying —
                # the fence that keeps a rebooted old primary from
                # silently diverging (DESIGN.md §12).
                self.fenced_writes += 1
                respond({"fenced": True, "epoch": self.epoch})
                return
        result = self._apply(method, body)
        needs_replication = (
            method in WRITE_METHODS and self._replica_client is not None
        )
        if not needs_replication:
            respond(result)
            return
        self._replica_client.call(
            method,
            body,
            on_reply=lambda _rep: respond(result),
            on_timeout=lambda: respond(result),  # degrade to async, stay up
            timeout=0.5,
        )

    def _apply(self, method, body):
        if method == "get":
            return {"value": self.store.get(body["key"])}
        if method == "mget":
            return {"values": self.store.mget(body["keys"])}
        if method == "set":
            self.store.set(body["key"], body["value"])
            return {"ok": True}
        if method == "mset":
            self.store.mset(body["items"])
            return {"ok": True}
        if method == "delete":
            return {"removed": self.store.delete(body["keys"])}
        if method == "scan":
            return {"pairs": self.store.scan(body["prefix"])}
        if method == "ping":
            return {"pong": True}
        return {"error": f"unknown method {method!r}"}

    # -- failure levers ----------------------------------------------------

    def fail(self, permanent=False):
        """Kill the server.  ``permanent=True`` marks it beyond the reach
        of :meth:`recover` (a chaos blip's scheduled recovery must not
        resurrect a primary the failover machinery already wrote off)."""
        self.failed = True
        self._permanent = self._permanent or permanent

    def recover(self):
        if self._permanent:
            return
        self.failed = False

    def close(self):
        self.rpc.close()
        if self._replica_client is not None:
            self._replica_client.close()
