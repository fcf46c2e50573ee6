"""Per-message locks for multi-threaded database access.

§3.1.2: "Race conditions may occur when both [main and keepalive] threads
write to the database at the same time ... we choose to implement a
per-message lock to support multi-threading read and write from/to the
database.  Note that the ordering of the database operations is only
required for messages within a BGP connection but not required for
messages across different BGP connections."

The lock manager therefore keys locks by BGP connection: writers for the
same connection serialize FIFO; writers for different connections never
contend.  Grants are callbacks (the simulation has no blocking threads).
"""

import collections


class LockManager:
    """FIFO locks keyed by an arbitrary hashable (the BGP connection id)."""

    def __init__(self):
        self._holders = {}
        self._waiters = collections.defaultdict(collections.deque)
        self.contentions = 0

    def acquire(self, key, owner, granted):
        """Request the lock for ``key``; ``granted()`` fires when held.

        The grant is synchronous when the lock is free — the caller must
        tolerate ``granted`` running before ``acquire`` returns.
        """
        if key not in self._holders:
            self._holders[key] = owner
            granted()
            return
        self.contentions += 1
        self._waiters[key].append((owner, granted))

    def release(self, key, owner):
        """Release the lock and grant the next FIFO waiter, if any."""
        if self._holders.get(key) != owner:
            raise RuntimeError(
                f"lock {key!r} released by {owner!r} but held by"
                f" {self._holders.get(key)!r}"
            )
        waiters = self._waiters.get(key)
        if waiters:
            next_owner, granted = waiters.popleft()
            if not waiters:
                del self._waiters[key]
            self._holders[key] = next_owner
            granted()
        else:
            del self._holders[key]

    def holder(self, key):
        return self._holders.get(key)

    def held_keys(self):
        return set(self._holders)
