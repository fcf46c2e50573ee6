"""Routing information bases: Adj-RIB-In, Loc-RIB, Adj-RIB-Out.

Per RFC 4271 §3.2: routes learned from each peer land in that peer's
Adj-RIB-In; the decision process selects one best route per prefix into
the Loc-RIB; per-peer Adj-RIB-Out holds what has been advertised.

The Loc-RIB is a table plus a record of the contests (DESIGN.md §14).
The table — prefix to selected route, insertion-ordered — is all a
prefix with one path owns: that path *is* its best route and its only
candidate, so storing it is one dict store and it adds no object beyond
the ``Route`` itself.  Only a prefix with a choice to remember — a
second peer offered it — also has an entry in the contested map, a bare
``{peer_id: Route}`` dict created on that offer and dropped by the
retract that leaves one path.  MED-group membership is read off that
dict by scanning it when a decision needs it; nothing is counted ahead.
``offer``/``retract`` touch these two dicts and nothing else.

Longest-prefix match, covered-subtree walks and sorted iteration come
from a prefix store — the path-compressed radix trie
(:class:`repro.bgp.radix.RadixTrie`), or whatever ``LocRib(store=...)``
is handed — holding the table's *keys*, derived from it at the first
ordered query; whatever it matches is then read from the table.

Every table here is keyed by the packed prefix int of
:mod:`repro.bgp.prefixes`: hashed, compared and sorted natively.
"""

from repro.bgp.decision import (
    best_path,
    evicts_group_winner,
    med_group,
    med_group_shared,
    prefer,
)
from repro.bgp.prefixes import parse_prefix, prefix_text
from repro.bgp.radix import RadixTrie

__all__ = ["Route", "AdjRibIn", "LocRib", "AdjRibOut", "RadixTrie"]


def _peer_order(route):
    return str(route.peer_id)


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
        return (f"<Route {prefix_text(self.prefix)} via {self.peer_id}"
                f" ({self.source_kind})>")


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

    def store(self, route):
        """Insert/replace, for the caller with no use for what it
        displaced (one dict store, no probe)."""
        self._routes[route.prefix] = route

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
        # The table: every prefix with at least one path, mapped to its
        # selected route — for a single-path prefix, the path itself.
        # Insertion-ordered: advertisement batching iterates it, so its
        # mutation pattern is part of the simulation's deterministic
        # trajectory.
        self._best = {}  # prefix -> Route
        # Candidate bookkeeping, only where there is a choice to record:
        # an entry appears when a second peer offers a prefix and goes
        # when a retract leaves one path.
        self._contested = {}  # prefix -> {peer_id: Route}, >= 2 paths
        # The structural index over the table's keys (LPM, covered
        # walks, sorted iteration).  It stays empty until the first
        # ordered query asks for it (see :attr:`store`); only from then
        # on do offer/retract mirror prefix arrivals and departures
        # into it.
        self._store = store if store is not None else RadixTrie()
        self._indexed = False
        #: Number of best-path selections actually executed: incremental
        #: challenger-vs-incumbent comparisons and full re-scans.  No-op
        #: retracts and trivial single-candidate adoptions do not count.
        self.decision_runs = 0
        #: Monotone change counter for incremental snapshots; bumped on
        #: every candidate-set mutation (see path_counts_since).
        self.export_seq = 0
        self._changed = {}  # prefix -> export_seq of last mutation

    def offer(self, route):
        """Add/replace a candidate path and re-run selection for its prefix.

        Returns (old_best, new_best); identical values mean no change.

        Selection is incremental.  The lone path of an uncontested
        prefix is stored or replaced with nothing to compare.  A path
        from a new peer that loses to the incumbent pairwise changes
        nothing: in the incumbent's MED group it loses that group to
        it, and in any other it either fails to win its group or joins
        the finalists and loses the MED-blind pass to the route that
        already won it.  Otherwise one comparison decides, unless MED
        is in play — the challenger shares a MED group with another
        candidate, or replaces the winner of a group it left — or the
        incumbent itself is displaced; then pairwise preference is not
        decisive and a full re-scan runs (see
        :func:`repro.bgp.decision.best_path`).
        """
        prefix = route.prefix
        self.export_seq = self._changed[prefix] = self.export_seq + 1
        best = self._best
        old = best.get(prefix)
        if old is None:
            best[prefix] = route
            if self._indexed:
                self._store.insert(prefix, None)
            return None, route
        peer_id = route.peer_id
        candidates = self._contested.get(prefix)
        if candidates is None:
            if peer_id == old.peer_id:
                # Replaced the lone path: still trivially best.
                best[prefix] = route
                return old, route
            candidates = self._contested[prefix] = {old.peer_id: old,
                                                    peer_id: route}
            previous = None
        else:
            previous = candidates.get(peer_id)
            candidates[peer_id] = route
        self.decision_runs += 1
        if peer_id != old.peer_id:
            wins = prefer(route, old)
            if previous is None and not wins:
                return old, old
            paths = candidates.values()
            med_in_play = med_group_shared(paths, route) or (
                previous is not None and previous is not route
                and med_group(previous) != med_group(route)
                and evicts_group_winner(paths, previous))
            if not med_in_play:
                if wins:
                    best[prefix] = route
                    return old, route
                return old, old
        new = best[prefix] = best_path(list(candidates.values()))
        return old, new

    def retract(self, prefix, peer_id):
        """Drop a peer's candidate and re-run selection for the prefix.

        Removing a non-best candidate leaves the best untouched unless
        it was a MED group winner whose eviction restores a stronger
        finalist; only then, or on losing the best itself, does a full
        re-scan run.
        """
        best = self._best
        old = best.get(prefix)
        candidates = self._contested.get(prefix)
        if candidates is None:
            if old is None or old.peer_id != peer_id:
                return old, old
            self.export_seq = self._changed[prefix] = self.export_seq + 1
            del best[prefix]
            if self._indexed:
                self._store.remove(prefix)
            return old, None
        removed = candidates.pop(peer_id, None)
        if removed is None:
            return old, old
        self.export_seq = self._changed[prefix] = self.export_seq + 1
        if len(candidates) == 1:
            del self._contested[prefix]
        if (old.peer_id != peer_id
                and not evicts_group_winner(candidates.values(), removed)):
            return old, old
        self.decision_runs += 1
        new = best[prefix] = best_path(list(candidates.values()))
        return old, new

    def best(self, prefix):
        return self._best.get(prefix)

    def best_routes(self):
        return self._best.values()

    def prefixes(self):
        return self._best.keys()

    def candidates(self, prefix):
        contested = self._contested.get(prefix)
        if contested is not None:
            return dict(contested)
        route = self._best.get(prefix)
        return {} if route is None else {route.peer_id: route}

    def __len__(self):
        return len(self._best)

    # -- trie-backed queries ------------------------------------------------

    @property
    def store(self):
        """The prefix store (read-only use: aggregation, snapshot
        walks).  It holds the table's keys only; read :meth:`best` or
        :meth:`candidates` for a matched prefix.

        Built here, once, from the table in sorted prefix order — so
        what it holds depends on the table alone, never on the
        offer/retract history that produced it — and maintained
        incrementally afterwards.
        """
        store = self._store
        if not self._indexed:
            self._indexed = True
            for prefix in sorted(self._best):
                store.insert(prefix, None)
        return store

    def lookup(self, prefix):
        """Longest-prefix match over *selected* routes: the best route
        of the most specific prefix covering ``prefix``, or None.

        More-specific-wins receiver semantics — the property that makes
        DRAGON deaggregation holes sound (DESIGN.md §14).
        """
        match = self.store.longest_match(prefix)
        return self._best[match[0]] if match is not None else None

    def covered_best(self, prefix):
        """(prefix, best route) for selected routes within ``prefix``,
        in ascending prefix order (includes ``prefix`` itself)."""
        best = self._best
        return [(stored, best[stored])
                for stored, _ in self.store.covered(prefix)]

    def covering_best(self, prefix):
        """(prefix, best route) for selected routes covering ``prefix``,
        shortest first (includes ``prefix`` itself)."""
        best = self._best
        return [(stored, best[stored])
                for stored, _ in self.store.covering(prefix)]

    # -- snapshot support (TENSOR backs the table up in the database) ------

    def export_entries(self):
        """Serializable view of every candidate path (sorted for determinism)."""
        entries = []
        for prefix in self.store:
            entries.extend(self.export_prefix_entries(prefix))
        return entries

    def export_prefix_entries(self, prefix):
        """The :meth:`export_entries` records for one prefix (possibly [])."""
        contested = self._contested.get(prefix)
        if contested is not None:
            routes = sorted(contested.values(), key=_peer_order)
        else:
            route = self._best.get(prefix)
            if route is None:
                return []
            routes = (route,)
        text = prefix_text(prefix)
        return [
            {
                "prefix": text,
                "peer_id": route.peer_id,
                "source_kind": route.source_kind,
                "attributes": route.attributes.to_wire(),
            }
            for route in routes
        ]

    def export_paths(self, prefixes):
        """Bulk read for the snapshot chunk encoder: every path of the
        set ``prefixes``, each of which must be in the table.

        Returns ``(lone, contested)``: an iterator over the routes of
        the single-path prefixes, and one peer-ordered route list per
        contested prefix — the routes :meth:`export_prefix_entries`
        would render, in no particular prefix order.
        """
        contested = self._contested
        shared = contested.keys() & prefixes if contested else ()
        if shared:
            prefixes = prefixes - shared
        return (map(self._best.__getitem__, prefixes),
                [sorted(contested[prefix].values(), key=_peer_order)
                 for prefix in shared])

    def path_counts_since(self, seq):
        """Incremental snapshot: what changed after change-counter ``seq``.

        Returns ``(export_seq, counts)`` where ``counts`` maps each prefix
        mutated since ``seq`` to its *current* number of paths (0 when
        the prefix no longer has candidates).  Single-consumer protocol:
        the caller passes back the returned ``export_seq`` next time, and
        change records at or below the consumed watermark are pruned.
        """
        if seq >= self.export_seq:
            return self.export_seq, {}
        changed = self._changed
        for prefix in [prefix for prefix, changed_at in changed.items()
                       if changed_at <= seq]:
            del changed[prefix]
        best, contested = self._best, self._contested
        counts = {prefix: 1 if prefix in best else 0 for prefix in changed}
        for prefix in contested.keys() & counts.keys():
            counts[prefix] = len(contested[prefix])
        return self.export_seq, counts

    def export_entries_since(self, seq):
        """:meth:`path_counts_since` with each changed prefix mapped to
        its current entry list instead of the list's length."""
        export_seq, counts = self.path_counts_since(seq)
        return export_seq, {prefix: self.export_prefix_entries(prefix)
                            for prefix in counts}

    @classmethod
    def import_entries(cls, entries, local_as=0, router_id=0):
        """Rebuild a LocRib from :meth:`export_entries` output."""
        from repro.bgp.attributes import PathAttributes

        rib = cls(local_as=local_as, router_id=router_id)
        for entry in entries:
            route = Route(
                parse_prefix(entry["prefix"]),
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

    def record_advertised(self, prefixes, attributes):
        """One UPDATE's worth: ``prefixes`` all went out with
        ``attributes``."""
        self._routes.update(dict.fromkeys(prefixes, attributes))

    def record_withdraw(self, prefix):
        self._routes.pop(prefix, None)

    def prefixes(self):
        return self._routes.keys()

    def __len__(self):
        return len(self._routes)
