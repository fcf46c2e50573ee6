"""The in-memory data structure and its calibrated operation costs.

The store is a flat ordered map with prefix scans — everything the TENSOR
recovery path needs.  Values are opaque Python objects (the simulated
server never serializes them; sizes are accounted separately for the
storage-bound invariant of §3.1.2).

Stored bytes are counted per key *namespace* — a key's text through
its third colon, ``tensor:<pair>:msg:`` — from the first
:meth:`KeyValueStore.size_bytes` call on, so the storage-bound check
reads a few counters instead of walking every record.  Values must not
be edited in place once stored (the count is taken at ``set``).

Operation costs reproduce Fig. 5(b): a batched operation over n records
costs ``base + n * per_record`` of server CPU, with writes ≈2.5× reads.
"""

from repro.sim.calibration import (
    KV_READ_BASE,
    KV_READ_PER_RECORD,
    KV_WRITE_BASE,
    KV_WRITE_PER_RECORD,
)


#: Colons in a key namespace: ``tensor:<pair>:msg:``.
NAMESPACE_DEPTH = 3


def namespace(key):
    """``key`` through its :data:`NAMESPACE_DEPTH`-th colon, or all of it."""
    parts = key.split(":", NAMESPACE_DEPTH)
    if len(parts) <= NAMESPACE_DEPTH:
        return key
    return key[:len(key) - len(parts[-1])]


def entry_size(key, value):
    """Approximate stored bytes of one record (key + value sizes)."""
    if isinstance(value, (bytes, bytearray, str)):
        return len(key) + len(value)
    if isinstance(value, dict):
        return len(key) + sum(
            len(v) if isinstance(v, (bytes, bytearray, str)) else 8
            for v in value.values())
    return len(key) + 8


class KeyValueStore:
    """The data plane of one KV node."""

    def __init__(self):
        self._data = {}
        #: namespace -> stored bytes, kept from the first size_bytes on
        self._sizes = None

    # -- data operations ------------------------------------------------

    def get(self, key):
        return self._data.get(key)

    def mget(self, keys):
        return [self._data.get(key) for key in keys]

    def set(self, key, value):
        if self._sizes is not None:
            self._count(key, value)
        self._data[key] = value

    def mset(self, items):
        counting = self._sizes is not None
        for key, value in items:
            if counting:
                self._count(key, value)
            self._data[key] = value

    def _count(self, key, value):
        """Move ``key``'s namespace count to ``value`` from what it holds."""
        size = entry_size(key, value)
        if key in self._data:
            size -= entry_size(key, self._data[key])
        space = namespace(key)
        self._sizes[space] = self._sizes.get(space, 0) + size

    def delete(self, keys):
        removed = 0
        sizes = self._sizes
        for key in keys:
            if key in self._data:
                value = self._data.pop(key)
                if sizes is not None:
                    sizes[namespace(key)] -= entry_size(key, value)
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
        """Approximate stored bytes under ``prefix`` (keys + value sizes).

        A prefix that ends a namespace or an ancestor of one (``""``,
        ``tensor:``, ``tensor:<pair>:``, ``tensor:<pair>:msg:``) sums
        the counts of the namespaces under it; any other walks the
        records.
        """
        sizes = self._sizes
        if sizes is None:
            sizes = self._sizes = {}
            for key, value in self._data.items():
                space = namespace(key)
                sizes[space] = sizes.get(space, 0) + entry_size(key, value)
        if prefix[-1:] in ("", ":") and prefix.count(":") <= NAMESPACE_DEPTH:
            return sum(size for space, size in sizes.items()
                       if space.startswith(prefix))
        return sum(entry_size(key, value) for key, value in self._data.items()
                   if key.startswith(prefix))


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
