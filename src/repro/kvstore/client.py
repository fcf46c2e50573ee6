"""The KV client used by BGP processes and the recovery path.

All calls are asynchronous: callbacks fire when the server replies.  A
failed server or a partition surfaces as the ``on_error`` callback after
the timeout — the BGP process treats that as "replication unavailable"
and keeps ACKs held, which is the fail-safe direction (§3.1.1: releasing
an ACK before replication is the inconsistency to avoid).

``on_error(method, cause)`` carries a structured cause so callers can
react differently to a slow/partitioned endpoint (``CAUSE_TIMEOUT``), a
dead-but-reachable one (``CAUSE_REFUSED``: fail fast, retry) and a
fenced write (``CAUSE_FENCED``: this endpoint was demoted — hold the
write and wait for the controller's repoint push).
"""

from repro.kvstore.server import KV_PORT, WRITE_METHODS
from repro.sim.rpc import RpcClient

DEFAULT_TIMEOUT = 1.0

CAUSE_TIMEOUT = "timeout"
CAUSE_REFUSED = "refused"
CAUSE_FENCED = "fenced"


def _ignore_reply(_rep):
    """Shared no-op reply sink for fire-and-forget operations."""


class KvClient:
    """Asynchronous client bound to one KV endpoint.

    When created through :meth:`TensorSystem.kv_client` the client is
    epoch-aware: writes carry the cluster epoch they were issued under,
    and the controller's failover monitor calls :meth:`repoint` to move
    it to the promoted primary.  ``endpoint_generation`` increments on
    every repoint so retry loops can tell "same endpoint, still failing"
    from "new endpoint, fresh budget".
    """

    def __init__(self, engine, host, server_addr, server_port=KV_PORT,
                 epoch=None):
        self.engine = engine
        self.rpc = RpcClient(engine, host, server_addr, server_port)
        self.server_addr = server_addr
        self.epoch = epoch
        self.endpoint_generation = 0
        self.on_repoint = None

    def repoint(self, server_addr, epoch=None, server_port=None):
        """Move the client to a new endpoint (controller failover push).

        In-flight requests to the old endpoint fail immediately through
        their error callbacks (cause ``refused``), so callers holding
        state on them — the write coalescer's in-flight batch, a held
        ACK's verify read — get to retry against the new endpoint.
        """
        self.server_addr = server_addr
        if epoch is not None:
            self.epoch = epoch
        self.endpoint_generation += 1
        self.rpc.retarget(server_addr, server_port)
        if self.on_repoint is not None:
            self.on_repoint()

    def _call(self, method, body, on_done, on_error, timeout):
        if self.epoch is not None and method in WRITE_METHODS:
            body["epoch"] = self.epoch

        # Only build the error closures when somebody is listening;
        # fire-and-forget calls (async remote writes) then cost one
        # less allocation each.
        on_timeout = None
        on_refused = None
        if on_error is not None:
            def on_timeout():
                on_error(method, CAUSE_TIMEOUT)

            def on_refused():
                on_error(method, CAUSE_REFUSED)

        def on_reply(rep):
            if isinstance(rep, dict) and rep.get("fenced"):
                # The server refused to apply: our epoch is stale.  Never
                # surface this through on_done — the caller would treat
                # the write as durable.
                if on_error is not None:
                    on_error(method, CAUSE_FENCED)
                return
            on_done(rep)

        self.rpc.call(
            method, body, on_reply=on_reply, on_timeout=on_timeout,
            on_refused=on_refused, timeout=timeout,
        )

    # -- operations --------------------------------------------------------

    def get(self, key, on_done, on_error=None):
        """``on_done(value_or_None)``"""
        self._call("get", {"key": key}, lambda rep: on_done(rep["value"]),
                   on_error, DEFAULT_TIMEOUT)

    def mget(self, keys, on_done):
        """``on_done(list_of_values)``"""
        self._call("mget", {"keys": list(keys)},
                   lambda rep: on_done(rep["values"]), None, DEFAULT_TIMEOUT)

    def set(self, key, value, on_done):
        """``on_done()`` after the write (and its sync replication) commit."""
        self._call("set", {"key": key, "value": value},
                   lambda _rep: on_done(), None, DEFAULT_TIMEOUT)

    def mset(self, items, on_done, on_error=None):
        """Batched write of ``[(key, value), ...]``; ``on_done()``."""
        self._call("mset", {"items": list(items)}, lambda _rep: on_done(),
                   on_error, DEFAULT_TIMEOUT)

    def delete(self, keys, on_done=None, on_error=None):
        """``on_done(removed_count)`` (callback optional for fire-and-forget)."""
        done = (lambda rep: on_done(rep["removed"])) if on_done else _ignore_reply
        self._call("delete", {"keys": list(keys)}, done, on_error,
                   DEFAULT_TIMEOUT)

    def scan(self, prefix, on_done, on_error=None, estimated=64):
        """``on_done(sorted_pairs)`` for keys under ``prefix``."""
        self._call("scan", {"prefix": prefix, "estimated": estimated},
                   lambda rep: on_done(rep["pairs"]), on_error,
                   DEFAULT_TIMEOUT)

    def ping(self, on_done, on_error=None, timeout=DEFAULT_TIMEOUT):
        self._call("ping", {}, lambda _rep: on_done(), on_error, timeout)

    def close(self):
        self.rpc.close()
