"""Forwarding information base: the RIB's data-plane shadow.

The FIB holds longest-prefix-match entries derived from a Loc-RIB's best
routes: a plain dict keyed by prefix plus a census of its prefix lengths,
matched by :func:`repro.bgp.prefixes.longest_match` like every other
table.  A :class:`FibSyncer` models the RIB->FIB download path: it
periodically diffs the Loc-RIB against the programmed FIB, so data-plane
convergence lags control-plane convergence by (at most) one sync period —
and, crucially for NSR, the FIB keeps forwarding from its last programmed
state while the control plane is dead or migrating.
"""

from repro.bgp.prefixes import (
    longest_match,
    note_length,
    parse_prefix,
    prefix_text,
)
from repro.sim.process import Process

#: default RIB->FIB download period (hardware programming latency class)
DEFAULT_SYNC_INTERVAL = 0.05


class FibEntry:
    """One programmed forwarding entry."""

    __slots__ = ("prefix", "next_hop", "programmed_at")

    def __init__(self, prefix, next_hop, programmed_at):
        self.prefix = prefix
        self.next_hop = next_hop
        self.programmed_at = programmed_at

    def __repr__(self):
        return f"<FibEntry {prefix_text(self.prefix)} -> {self.next_hop}>"


class Fib:
    """Longest-prefix-match forwarding table."""

    def __init__(self, name="fib"):
        self.name = name
        self._table = {}  # prefix -> FibEntry
        self._lengths = ([], [])  # the census of the table's lengths
        self.lookups = 0
        self.misses = 0

    def program(self, prefix, next_hop, now=0.0):
        self._table[prefix] = FibEntry(prefix, next_hop, now)
        note_length(self._lengths, prefix)

    def unprogram(self, prefix):
        self._table.pop(prefix, None)

    def lookup(self, address):
        """Longest-prefix match for a destination address string."""
        self.lookups += 1
        match = longest_match(self._table, self._lengths,
                              parse_prefix(address))
        if match is None:
            self.misses += 1
            return None
        return match[1]

    def entries(self):
        """``{prefix: FibEntry}`` in ascending prefix order."""
        table = self._table
        return {prefix: table[prefix] for prefix in sorted(table)}

    def __len__(self):
        return len(self._table)

    def __contains__(self, prefix):
        return prefix in self._table


class FibSyncer:
    """Keeps a FIB converged to a Loc-RIB provider.

    ``loc_rib_provider()`` returns the current Loc-RIB (or None while the
    control plane is down — the FIB then simply keeps its programmed
    state, which is the DSR behaviour that makes NSR's zero-loss story
    work on the data plane).
    """

    def __init__(self, engine, fib, loc_rib_provider):
        self.engine = engine
        self.fib = fib
        self.loc_rib_provider = loc_rib_provider
        self.process = Process(engine, f"fib-sync:{fib.name}")

    def start(self):
        self.process.every(DEFAULT_SYNC_INTERVAL, self.sync_now)

    def sync_now(self):
        """One diff-and-program pass; returns the number of changes."""
        loc_rib = self.loc_rib_provider()
        if loc_rib is None:
            return 0  # control plane down: hold the programmed state
        desired = {
            prefix: path.attributes.next_hop
            for prefix, path in loc_rib.items()
            if path.attributes.next_hop is not None
        }
        changes = 0
        for prefix, entry in list(self.fib.entries().items()):
            if prefix not in desired:
                self.fib.unprogram(prefix)
                changes += 1
            elif desired[prefix] != entry.next_hop:
                self.fib.program(prefix, desired[prefix], self.engine.now)
                changes += 1
        for prefix, next_hop in desired.items():
            if prefix not in self.fib:
                self.fib.program(prefix, next_hop, self.engine.now)
                changes += 1
        return changes

    def stop(self):
        self.process.kill()
