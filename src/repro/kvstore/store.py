"""The in-memory data structure and its calibrated operation costs.

The store is a flat ordered map with prefix scans — everything the TENSOR
recovery path needs.  Values are opaque Python objects (the simulated
server never serializes them; sizes are accounted separately for the
storage-bound invariant of §3.1.2).

Operation costs reproduce Fig. 5(b): a batched operation over n records
costs ``base + n * per_record`` of server CPU, with writes ≈2.5× reads.
"""

from repro.sim.calibration import (
    KV_READ_BASE,
    KV_READ_PER_RECORD,
    KV_WRITE_BASE,
    KV_WRITE_PER_RECORD,
)


class KeyValueStore:
    """The data plane of one KV node."""

    def __init__(self):
        self._data = {}

    # -- data operations ------------------------------------------------

    def get(self, key):
        return self._data.get(key)

    def mget(self, keys):
        return [self._data.get(key) for key in keys]

    def set(self, key, value):
        self._data[key] = value

    def mset(self, items):
        for key, value in items:
            self._data[key] = value

    def delete(self, keys):
        removed = 0
        for key in keys:
            if key in self._data:
                del self._data[key]
                removed += 1
        return removed

    def scan(self, prefix):
        """All (key, value) pairs whose key starts with ``prefix``, sorted."""
        return sorted(
            (key, value) for key, value in self._data.items() if key.startswith(prefix)
        )

    def __len__(self):
        return len(self._data)

    def __contains__(self, key):
        return key in self._data

    def size_bytes(self, prefix=""):
        """Approximate stored bytes under ``prefix`` (keys + value sizes)."""
        total = 0
        for key, value in self._data.items():
            if not key.startswith(prefix):
                continue
            total += len(key)
            if isinstance(value, (bytes, bytearray, str)):
                total += len(value)
            elif isinstance(value, dict):
                total += sum(
                    len(v) if isinstance(v, (bytes, bytearray, str)) else 8
                    for v in value.values()
                )
            else:
                total += 8
        return total


#: The serializing (single-threaded CPU) share of the per-operation base;
#: the rest is protocol/syscall latency that overlaps across clients.
#: Real Redis sustains ~100K simple ops/s on one core, i.e. ~10-50 us of
#: CPU per command, while a client still observes ~0.4-1 ms round trips.
KV_CPU_BASE_FRACTION = 0.08


def server_cpu_cost(method, record_count):
    """The serializing share: queues behind other clients' requests."""
    n = max(record_count, 1)
    if method in ("get", "mget", "scan"):
        return KV_READ_BASE * KV_CPU_BASE_FRACTION + n * KV_READ_PER_RECORD
    if method in ("set", "mset", "delete"):
        return KV_WRITE_BASE * KV_CPU_BASE_FRACTION + n * KV_WRITE_PER_RECORD
    return KV_READ_BASE * KV_CPU_BASE_FRACTION


def fixed_latency(method):
    """The non-serializing share: overlaps across concurrent clients."""
    if method in ("set", "mset", "delete"):
        return KV_WRITE_BASE * (1.0 - KV_CPU_BASE_FRACTION)
    return KV_READ_BASE * (1.0 - KV_CPU_BASE_FRACTION)


def record_count_of(method, body):
    """How many records an RPC body touches, for cost accounting."""
    if method in ("get",):
        return 1
    if method == "mget":
        return len(body["keys"])
    if method == "set":
        return 1
    if method == "mset":
        return len(body["items"])
    if method == "delete":
        return len(body["keys"])
    if method == "scan":
        return max(body.get("estimated", 16), 1)
    return 1
