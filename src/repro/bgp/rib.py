"""Routing information bases: Adj-RIB-In, Loc-RIB, Adj-RIB-Out.

Per RFC 4271 §3.2: routes learned from each peer land in that peer's
Adj-RIB-In; the decision process selects one best route per prefix into
the Loc-RIB; per-peer Adj-RIB-Out holds what has been advertised.

The Loc-RIB owns its per-prefix state (candidates, MED-group counts)
in an exact-match dict, the only structure ``offer``/``retract`` touch.
Longest-prefix match, covered-subtree walks and sorted iteration come
from a pluggable prefix store — a path-compressed radix trie by default
(:class:`repro.bgp.radix.RadixTrie`) — derived from that dict at the
first ordered query (DESIGN.md §14).  ``use_prefix_store`` swaps the
backend (e.g. the seed-equivalent flat dict) for differential testing.
"""

import contextlib

from repro.bgp.decision import best_path, med_group, prefer
from repro.bgp.prefixes import Prefix
from repro.bgp.radix import DictPrefixStore, RadixTrie

__all__ = [
    "Route", "AdjRibIn", "LocRib", "AdjRibOut",
    "use_prefix_store", "default_prefix_store",
    "RadixTrie", "DictPrefixStore",
]

_store_factory = RadixTrie


def default_prefix_store():
    """Construct a prefix store with the currently-selected backend."""
    return _store_factory()


@contextlib.contextmanager
def use_prefix_store(factory):
    """Temporarily back new Loc-RIBs with ``factory`` (e.g.
    :class:`repro.bgp.radix.DictPrefixStore` for differential runs
    against the seed dict semantics)."""
    global _store_factory
    previous = _store_factory
    _store_factory = factory
    try:
        yield
    finally:
        _store_factory = previous


def _prefix_order(prefix):
    return prefix.afi, prefix.value, prefix.length


class _PrefixSlot:
    """Per-prefix Loc-RIB state, shared with the prefix store as its value.

    ``best`` mirrors the LocRib-level ``_best`` dict so trie queries
    (LPM, covered walks) can answer with the selected route without a
    second lookup; the dict stays authoritative for iteration order.
    """

    __slots__ = ("candidates", "best", "med_counts")

    def __init__(self):
        self.candidates = {}  # peer_id -> Route
        self.best = None
        # first_as -> member count; lets offer/retract decide in O(1)
        # whether MED is in play for a candidate (None groups — no AS
        # path — never compare MED and are not counted).
        self.med_counts = {}


class Route:
    """One path for one prefix, learned from (or destined to) a peer."""

    __slots__ = ("prefix", "attributes", "peer_id", "source_kind")

    def __init__(self, prefix, attributes, peer_id, source_kind="ebgp"):
        self.prefix = prefix
        self.attributes = attributes
        self.peer_id = peer_id
        self.source_kind = source_kind  # "ebgp" | "ibgp" | "local"

    def __eq__(self, other):
        return isinstance(other, Route) and (
            self.prefix,
            self.attributes,
            self.peer_id,
            self.source_kind,
        ) == (other.prefix, other.attributes, other.peer_id, other.source_kind)

    def __hash__(self):
        # Defining __eq__ alone would set __hash__ to None and make
        # routes silently unusable in sets/dicts; hash by the same value
        # identity __eq__ compares.
        return hash((self.prefix, self.attributes, self.peer_id, self.source_kind))

    def __repr__(self):
        return f"<Route {self.prefix} via {self.peer_id} ({self.source_kind})>"


class AdjRibIn:
    """Routes received from one peer, post-inbound-policy."""

    def __init__(self, peer_id):
        self.peer_id = peer_id
        self._routes = {}  # prefix -> Route

    def update(self, route):
        """Insert/replace; returns the displaced route or None."""
        old = self._routes.get(route.prefix)
        self._routes[route.prefix] = route
        return old

    def withdraw(self, prefix):
        """Remove; returns the removed route or None."""
        return self._routes.pop(prefix, None)

    def get(self, prefix):
        return self._routes.get(prefix)

    def prefixes(self):
        return self._routes.keys()

    def routes(self):
        return self._routes.values()

    def clear(self):
        doomed = list(self._routes.keys())
        self._routes.clear()
        return doomed

    def __len__(self):
        return len(self._routes)


class LocRib:
    """The selected best route per prefix, plus all candidate paths."""

    def __init__(self, local_as=0, router_id=0, store=None):
        self.local_as = local_as
        self.router_id = router_id
        # Insertion-ordered best map.  Advertisement batching iterates
        # it, so its mutation pattern is part of the simulation's
        # deterministic trajectory — it stays a plain dict regardless
        # of the store backend.
        self._best = {}  # prefix -> Route
        # prefix -> _PrefixSlot for every prefix with >= 1 candidate:
        # the owner of the table, and all the per-update path touches.
        self._slots = {}
        # The structural index over the same slot objects (LPM, covered
        # walks, sorted iteration).  The backend is captured here but
        # stays empty until the first ordered query asks for it (see
        # :attr:`store`); only from then on do offer/retract mirror
        # into it.
        self._store = store if store is not None else default_prefix_store()
        self._indexed = False
        #: Number of best-path selections actually executed: incremental
        #: challenger-vs-incumbent comparisons and full re-scans.  No-op
        #: retracts and trivial single-candidate adoptions do not count.
        self.decision_runs = 0
        #: Monotone change counter for incremental snapshots; bumped on
        #: every candidate-set mutation (see export_entries_since).
        self.export_seq = 0
        self._changed = {}  # prefix -> export_seq of last mutation

    def _touch(self, prefix):
        self.export_seq += 1
        self._changed[prefix] = self.export_seq

    def offer(self, route):
        """Add/replace a candidate path and re-run selection for its prefix.

        Returns (old_best, new_best); identical values mean no change.

        Selection is incremental: a candidate from a new peer is appended
        to the prefix's candidate order, so one comparison against the
        incumbent best finishes the :func:`best_path` linear scan.  A
        full re-scan runs only when the incumbent itself is displaced
        (the offering peer *is* the best's peer) or when the challenger
        joins a populated MED group, where pairwise preference is not
        decisive (see :func:`repro.bgp.decision.best_path`).
        """
        prefix = route.prefix
        self._touch(prefix)
        slot = self._slots.get(prefix)
        if slot is None:
            slot = _PrefixSlot()
            self._slots[prefix] = slot
            if self._indexed:
                self._store.insert(prefix, slot)
        candidates = slot.candidates
        previous = candidates.get(route.peer_id)
        candidates[route.peer_id] = route
        group = med_group(route)
        prev_group = None
        counts = slot.med_counts
        if previous is None:
            if group is not None:
                counts[group] = counts.get(group, 0) + 1
        elif previous is not route:
            prev_group = med_group(previous)
            if prev_group != group:
                if prev_group is not None:
                    self._group_drop(counts, prev_group)
                if group is not None:
                    counts[group] = counts.get(group, 0) + 1
        old = self._best.get(prefix)
        if old is None:
            # First (or only) candidate: trivially best, nothing to compare.
            self._best[prefix] = slot.best = route
            return None, route
        if route.peer_id == old.peer_id:
            if len(candidates) == 1:
                # Replaced the lone candidate: still trivially best.
                self._best[prefix] = slot.best = route
                return old, route
            return self._full_reselect(prefix, slot)
        if group is not None and counts[group] > 1:
            # MED in play: the challenger can displace its group's
            # winner without beating the incumbent pairwise (and vice
            # versa), so one comparison cannot decide.
            return self._full_reselect(prefix, slot)
        if (prev_group is not None and prev_group != group
                and counts.get(prev_group)
                and self._evicts_group_winner(candidates, previous,
                                              prev_group)):
            # The replaced route was its old MED group's winner; its
            # eviction restores a weaker-in-group finalist that may
            # still beat the incumbent MED-blind.
            return self._full_reselect(prefix, slot)
        self.decision_runs += 1
        if prefer(route, old):
            self._best[prefix] = slot.best = route
            return old, route
        return old, old

    def retract(self, prefix, peer_id):
        """Drop a peer's candidate and re-run selection for the prefix.

        Removing a non-best candidate leaves the best untouched; only
        losing the best itself triggers a full re-scan.
        """
        slot = self._slots.get(prefix)
        if slot is None or peer_id not in slot.candidates:
            return self._best.get(prefix), self._best.get(prefix)
        candidates = slot.candidates
        removed = candidates.pop(peer_id)
        self._touch(prefix)
        old = self._best.get(prefix)
        group = med_group(removed)
        counts = slot.med_counts
        if group is not None:
            self._group_drop(counts, group)
        if not candidates:
            del self._slots[prefix]
            if self._indexed:
                self._store.remove(prefix)
            self._best.pop(prefix, None)
            return old, None
        if old is not None and old.peer_id != peer_id:
            if (group is None or not counts.get(group)
                    or not self._evicts_group_winner(candidates, removed,
                                                     group)):
                # Best untouched: the removed route was neither the
                # overall best nor a MED group winner whose eviction
                # could restore a stronger finalist.
                return old, old
        return self._full_reselect(prefix, slot)

    @staticmethod
    def _group_drop(counts, group):
        remaining = counts.get(group, 1) - 1
        if remaining:
            counts[group] = remaining
        else:
            counts.pop(group, None)

    @staticmethod
    def _evicts_group_winner(candidates, departed, group):
        """True when ``departed`` was the winner of its (still-populated)
        MED group — its eviction promotes a weaker-in-group route into
        the finalists, which the MED-blind pass may rank higher."""
        return not any(
            prefer(other, departed)
            for other in candidates.values()
            if med_group(other) == group
        )

    def _full_reselect(self, prefix, slot=None):
        self.decision_runs += 1
        old = self._best.get(prefix)
        if slot is None:
            slot = self._slots.get(prefix)
        candidates = slot.candidates if slot is not None else None
        new = best_path(list(candidates.values())) if candidates else None
        if new is None:
            self._best.pop(prefix, None)
        else:
            self._best[prefix] = new
        if slot is not None:
            slot.best = new
        return old, new

    def best(self, prefix):
        return self._best.get(prefix)

    def best_routes(self):
        return self._best.values()

    def prefixes(self):
        return self._best.keys()

    def candidates(self, prefix):
        slot = self._slots.get(prefix)
        return dict(slot.candidates) if slot is not None else {}

    def __len__(self):
        return len(self._best)

    # -- trie-backed queries ------------------------------------------------

    @property
    def store(self):
        """The prefix store (read-only use: aggregation, snapshot
        walks).  Values are :class:`_PrefixSlot` instances.

        Built here, once, from the exact-match dict in sorted prefix
        order — so what it holds depends on the table alone, never on
        the offer/retract history that produced it — and maintained
        incrementally afterwards.
        """
        store = self._store
        if not self._indexed:
            self._indexed = True
            slots = self._slots
            for prefix in sorted(slots, key=_prefix_order):
                store.insert(prefix, slots[prefix])
        return store

    def lookup(self, prefix):
        """Longest-prefix match over *selected* routes: the best route
        of the most specific prefix covering ``prefix``, or None.

        More-specific-wins receiver semantics — the property that makes
        DRAGON deaggregation holes sound (DESIGN.md §14).
        """
        store = self.store
        match = store.longest_match(prefix)
        while match is not None:
            matched, slot = match
            if slot.best is not None:
                return slot.best
            # Candidate-less slots never exist, but a slot whose best
            # is mid-withdrawal falls back to the next-shorter cover.
            if matched.length == 0:
                return None
            shorter = Prefix(matched.value, matched.length - 1, matched.afi)
            match = store.longest_match(shorter)
        return None

    def covered_best(self, prefix):
        """(prefix, best route) for selected routes within ``prefix``,
        in ascending prefix order (includes ``prefix`` itself)."""
        return [
            (stored, slot.best)
            for stored, slot in self.store.covered(prefix)
            if slot.best is not None
        ]

    def covering_best(self, prefix):
        """(prefix, best route) for selected routes covering ``prefix``,
        shortest first (includes ``prefix`` itself)."""
        return [
            (stored, slot.best)
            for stored, slot in self.store.covering(prefix)
            if slot.best is not None
        ]

    # -- snapshot support (TENSOR backs the table up in the database) ------

    def export_entries(self):
        """Serializable view of every candidate path (sorted for determinism)."""
        entries = []
        for prefix, slot in self.store.walk():
            entries.extend(self._slot_entries(prefix, slot))
        return entries

    def export_prefix_entries(self, prefix):
        """The :meth:`export_entries` records for one prefix (possibly [])."""
        slot = self._slots.get(prefix)
        if slot is None:
            return []
        return self._slot_entries(prefix, slot)

    @staticmethod
    def _slot_entries(prefix, slot):
        return [
            {
                "prefix": str(prefix),
                "peer_id": peer_id,
                "source_kind": route.source_kind,
                "attributes": route.attributes.to_wire(),
            }
            for peer_id, route in sorted(slot.candidates.items(),
                                         key=lambda kv: str(kv[0]))
        ]

    def export_entries_since(self, seq):
        """Incremental snapshot: what changed after change-counter ``seq``.

        Returns ``(export_seq, dirty)`` where ``dirty`` maps each prefix
        mutated since ``seq`` to its *current* entry list (empty when the
        prefix no longer has candidates).  Single-consumer protocol: the
        caller passes back the returned ``export_seq`` next time, and
        change records at or below the consumed watermark are pruned.
        """
        dirty = {}
        if seq >= self.export_seq:
            return self.export_seq, dirty
        changed = self._changed
        stale = []
        for prefix, changed_at in changed.items():
            if changed_at > seq:
                dirty[prefix] = self.export_prefix_entries(prefix)
            else:
                stale.append(prefix)
        for prefix in stale:
            del changed[prefix]
        return self.export_seq, dirty

    @classmethod
    def import_entries(cls, entries, local_as=0, router_id=0):
        """Rebuild a LocRib from :meth:`export_entries` output."""
        from repro.bgp.attributes import PathAttributes
        from repro.bgp.prefixes import Prefix

        rib = cls(local_as=local_as, router_id=router_id)
        for entry in entries:
            route = Route(
                Prefix.parse(entry["prefix"]),
                PathAttributes.from_wire(entry["attributes"]),
                entry["peer_id"],
                entry["source_kind"],
            )
            rib.offer(route)
        return rib


class AdjRibOut:
    """What has been advertised to one peer."""

    def __init__(self, peer_id):
        self.peer_id = peer_id
        self._routes = {}  # prefix -> PathAttributes as advertised

    def advertised(self, prefix):
        return self._routes.get(prefix)

    def record_advertise(self, prefix, attributes):
        self._routes[prefix] = attributes

    def record_withdraw(self, prefix):
        self._routes.pop(prefix, None)

    def prefixes(self):
        return self._routes.keys()

    def __len__(self):
        return len(self._routes)
