"""Routing information bases: Adj-RIB-In, Loc-RIB, Adj-RIB-Out.

Per RFC 4271 §3.2: routes learned from each peer land in that peer's
Adj-RIB-In; the decision process selects one best route per prefix into
the Loc-RIB; per-peer Adj-RIB-Out holds what has been advertised.

A route here is a key and a path (DESIGN.md §14).  The key is the
packed prefix int of :mod:`repro.bgp.prefixes` — hashed, compared and
sorted natively — and the :class:`Path` is everything else: attributes,
the peer it came from and how.  Routes that differ only by prefix share
one path object: whoever stores a batch of them (one UPDATE's run, one
snapshot record, one originated attribute set) makes one path and hands
it to every key, so a table of N routes holds N keys and a handful of
paths — nothing per route the collector has to walk.  :class:`Route`,
a path bound to its prefix, exists only at the edges that hand one out
(:meth:`LocRib.lookup`, :meth:`LocRib.best_routes`).

The Loc-RIB is a table plus a record of the contests.  The table — key
to selected path, insertion-ordered — is all a prefix with one path
owns: that path *is* its best route and its only candidate, so storing
it is one dict store.  Only a prefix with a choice to remember — a
second peer offered it — also has an entry in the contested map, a bare
``{peer_id: Path}`` dict created on that offer and dropped by the
retract that leaves one path.  MED-group membership is read off that
dict by scanning it when a decision needs it; nothing is counted ahead.

There is no second index over the table.  A whole-table read walks
``sorted(table)``: packed keys sort in C as ``(afi, value, length)``.
Longest-prefix match is :func:`repro.bgp.prefixes.longest_match` over
the table, with a census of its prefix lengths taken by the first
:meth:`LocRib.lookup` and kept up to date by ``offer`` from then on.
"""

from repro.bgp.decision import (
    best_path,
    evicts_group_winner,
    med_group,
    med_group_shared,
    prefer,
)
from repro.bgp.prefixes import (
    longest_match,
    note_length,
    prefix_lengths,
    prefix_text,
)

__all__ = ["Path", "Route", "AdjRibIn", "LocRib", "AdjRibOut"]


def _peer_order(path):
    return str(path.peer_id)


def _entry(text, path):
    """One :meth:`LocRib.export_entries` record."""
    return {
        "prefix": text,
        "peer_id": path.peer_id,
        "source_kind": path.source_kind,
        "attributes": path.attributes.to_wire(),
    }


class Path:
    """What a route is apart from its prefix, shared by every prefix
    that has it: attributes, the peer it came from (or goes to) and how
    it was learned."""

    __slots__ = ("attributes", "peer_id", "source_kind")

    def __init__(self, attributes, peer_id, source_kind="ebgp"):
        self.attributes = attributes
        self.peer_id = peer_id
        self.source_kind = source_kind  # "ebgp" | "ibgp" | "local"

    def at(self, prefix):
        """This path bound to ``prefix``: a :class:`Route`."""
        return Route(prefix, self.attributes, self.peer_id, self.source_kind)

    def __eq__(self, other):
        return isinstance(other, Path) and (
            self.attributes, self.peer_id, self.source_kind,
        ) == (other.attributes, other.peer_id, other.source_kind)

    def __hash__(self):
        return hash((self.attributes, self.peer_id, self.source_kind))

    def __repr__(self):
        return f"<Path via {self.peer_id} ({self.source_kind})>"


class Route:
    """One path for one prefix: the type handed out at the edges."""

    __slots__ = ("prefix", "attributes", "peer_id", "source_kind")

    def __init__(self, prefix, attributes, peer_id, source_kind):
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
    """Paths received from one peer, post-inbound-policy, by prefix."""

    def __init__(self, peer_id):
        self.peer_id = peer_id
        self._routes = {}  # prefix -> Path

    def store(self, prefix, path):
        """Insert/replace (one dict store, no probe)."""
        self._routes[prefix] = path

    def store_run(self, prefixes, path):
        """Insert/replace every prefix of one run with its shared path,
        in one dict update."""
        self._routes.update(dict.fromkeys(prefixes, path))

    def withdraw(self, prefix):
        """Remove; returns the removed path or None."""
        return self._routes.pop(prefix, None)

    def get(self, prefix):
        return self._routes.get(prefix)

    def prefixes(self):
        return self._routes.keys()

    def items(self):
        """``(prefix, path)`` pairs, in arrival order."""
        return self._routes.items()

    def clear(self):
        doomed = list(self._routes.keys())
        self._routes.clear()
        return doomed

    def __len__(self):
        return len(self._routes)


class LocRib:
    """The selected best path per prefix, plus all candidate paths."""

    def __init__(self, local_as=0, router_id=0):
        self.local_as = local_as
        self.router_id = router_id
        # The table: every prefix with at least one path, mapped to its
        # selected path — for a single-path prefix, its only one.
        # Insertion-ordered: advertisement batching iterates it, so its
        # mutation pattern is part of the simulation's deterministic
        # trajectory.
        self._best = {}  # prefix -> Path
        # Candidate bookkeeping, only where there is a choice to record:
        # an entry appears when a second peer offers a prefix and goes
        # when a retract leaves one path.
        self._contested = {}  # prefix -> {peer_id: Path}, >= 2 paths
        # The census of the table's prefix lengths (prefix_lengths):
        # None until the first lookup takes it, then grown by offer.
        self._lengths = None
        #: Number of best-path selections actually executed: incremental
        #: challenger-vs-incumbent comparisons and full re-scans.  No-op
        #: retracts and trivial single-candidate adoptions do not count.
        self.decision_runs = 0
        #: Monotone change counter for incremental snapshots; bumped on
        #: every candidate-set mutation (see path_counts_since).
        self.export_seq = 0
        # prefix -> export_seq of its last mutation, kept only from the
        # first path_counts_since call on: a table no snapshot reads
        # records nothing.
        self._changed = None

    def offer(self, prefix, path):
        """Add/replace ``prefix``'s candidate from ``path.peer_id`` and
        re-run selection for it.

        Returns ``(old_best, new_best)``, and ``old_best is new_best``
        exactly when the offer left the selection alone.  Offering the
        path that is already the prefix's best — the same object, as a
        prefix repeated in one NLRI block is — re-stores it, and counts
        as a change like any re-announce: it returns ``(None, path)``.

        Selection is incremental.  The lone path of an uncontested
        prefix is stored or replaced with nothing to compare.  A path
        from a new peer that loses to the incumbent pairwise changes
        nothing: in the incumbent's MED group it loses that group to
        it, and in any other it either fails to win its group or joins
        the finalists and loses the MED-blind pass to the path that
        already won it.  Otherwise one comparison decides, unless MED
        is in play — the challenger shares a MED group with another
        candidate, or replaces the winner of a group it left — or the
        incumbent itself is displaced; then pairwise preference is not
        decisive and a full re-scan runs (see
        :func:`repro.bgp.decision.best_path`).
        """
        self.export_seq += 1
        if self._changed is not None:
            self._changed[prefix] = self.export_seq
        best = self._best
        old = best.get(prefix)
        if old is None:
            best[prefix] = path
            if self._lengths is not None:
                note_length(self._lengths, prefix)
            return None, path
        peer_id = path.peer_id
        candidates = self._contested.get(prefix)
        if candidates is None:
            if peer_id == old.peer_id:
                # Replaced the lone path: still trivially best.
                best[prefix] = path
                return (None if old is path else old), path
            candidates = self._contested[prefix] = {old.peer_id: old,
                                                    peer_id: path}
            previous = None
        else:
            previous = candidates.get(peer_id)
            candidates[peer_id] = path
        self.decision_runs += 1
        if peer_id != old.peer_id:
            wins = prefer(path, old)
            if previous is None and not wins:
                return old, old
            paths = candidates.values()
            med_in_play = med_group_shared(paths, path) or (
                previous is not None and previous is not path
                and med_group(previous) != med_group(path)
                and evicts_group_winner(paths, previous))
            if not med_in_play:
                if wins:
                    best[prefix] = path
                    return old, path
                return old, old
        new = best[prefix] = best_path(list(candidates.values()))
        return (None if old is path else old), new

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
            self.export_seq += 1
            if self._changed is not None:
                self._changed[prefix] = self.export_seq
            del best[prefix]
            return old, None
        removed = candidates.pop(peer_id, None)
        if removed is None:
            return old, old
        self.export_seq += 1
        if self._changed is not None:
            self._changed[prefix] = self.export_seq
        if len(candidates) == 1:
            del self._contested[prefix]
        if (old.peer_id != peer_id
                and not evicts_group_winner(candidates.values(), removed)):
            return old, old
        self.decision_runs += 1
        new = best[prefix] = best_path(list(candidates.values()))
        return old, new

    def best(self, prefix):
        """The selected path of ``prefix``, or None."""
        return self._best.get(prefix)

    def items(self):
        """``(prefix, selected path)`` pairs, in table order."""
        return self._best.items()

    def best_routes(self):
        """Every selected path bound to its prefix, in table order: a
        :class:`Route` per prefix, made on the call."""
        return [path.at(prefix) for prefix, path in self._best.items()]

    def prefixes(self):
        return self._best.keys()

    def candidates(self, prefix):
        """``{peer_id: path}`` of every candidate path of ``prefix``."""
        contested = self._contested.get(prefix)
        if contested is not None:
            return dict(contested)
        path = self._best.get(prefix)
        return {} if path is None else {path.peer_id: path}

    def paths_from(self, peer_id):
        """``(prefix, path)`` for every candidate path ``peer_id``
        supplied, in table order: one pass over the table, reading the
        contested map only for the prefixes it holds."""
        contested = self._contested
        for prefix, path in self._best.items():
            candidates = contested.get(prefix) if contested else None
            if candidates is not None:
                path = candidates.get(peer_id)
                if path is not None:
                    yield prefix, path
            elif path.peer_id == peer_id:
                yield prefix, path

    def __len__(self):
        return len(self._best)

    def lookup(self, prefix):
        """Longest-prefix match over *selected* routes: the best route
        of the most specific prefix covering ``prefix``, or None.

        More-specific-wins receiver semantics — the property that makes
        DRAGON deaggregation holes sound (DESIGN.md §14).  One table
        probe per prefix length present in the family, longest first.
        """
        lengths = self._lengths
        if lengths is None:
            lengths = self._lengths = prefix_lengths(self._best)
        match = longest_match(self._best, lengths, prefix)
        return None if match is None else match[1].at(match[0])

    # -- snapshot support (TENSOR backs the table up in the database) ------

    def entry_paths(self):
        """``(prefix, path)`` for every candidate path, in export order:
        ascending prefix, a contested prefix's paths by peer."""
        best, contested = self._best, self._contested
        for prefix in sorted(best):
            paths = contested.get(prefix) if contested else None
            if paths is None:
                yield prefix, best[prefix]
            else:
                for path in sorted(paths.values(), key=_peer_order):
                    yield prefix, path

    def export_entries(self):
        """Serializable view of every candidate path (sorted for determinism)."""
        return [_entry(prefix_text(prefix), path)
                for prefix, path in self.entry_paths()]

    def digest(self):
        """Every candidate path as a ``(prefix text, peer id text,
        source kind, attributes wire)`` row, in export order: one RIB's
        slice of ``TensorSystem.rib_digest``."""
        return tuple((prefix_text(prefix), str(path.peer_id), path.source_kind,
                      path.attributes.to_wire())
                     for prefix, path in self.entry_paths())

    def export_prefix_entries(self, prefix):
        """The :meth:`export_entries` records for one prefix (possibly [])."""
        contested = self._contested.get(prefix)
        if contested is not None:
            paths = sorted(contested.values(), key=_peer_order)
        else:
            path = self._best.get(prefix)
            if path is None:
                return []
            paths = (path,)
        text = prefix_text(prefix)
        return [_entry(text, path) for path in paths]

    def export_paths(self, prefixes):
        """Bulk read for the snapshot chunk encoder: every path of the
        set ``prefixes``, each of which must be in the table.

        Returns ``(lone, contested)``: an iterator over the ``(prefix,
        path)`` pairs of the single-path prefixes, and a ``(prefix,
        peer-ordered path list)`` pair per contested prefix — the paths
        :meth:`export_prefix_entries` would render, in no particular
        prefix order.
        """
        contested = self._contested
        shared = contested.keys() & prefixes if contested else ()
        if shared:
            prefixes = prefixes - shared
        return (zip(prefixes, map(self._best.__getitem__, prefixes)),
                [(prefix, sorted(contested[prefix].values(), key=_peer_order))
                 for prefix in shared])

    def path_counts_since(self, seq):
        """Incremental snapshot: what changed after change-counter ``seq``.

        Returns ``(export_seq, counts)`` where ``counts`` maps each prefix
        mutated since ``seq`` to its *current* number of paths (0 when
        the prefix no longer has candidates).  Single-consumer protocol:
        the caller passes back the returned ``export_seq`` next time, and
        change records at or below the consumed watermark are pruned.

        The change record starts at the first call, which must read from
        0: at counter 0 the table was empty, so a read from 0 answers
        with the present table's path counts — exactly what a first, full
        compaction folds — and, unlike a later read, lists no prefix
        whose history ended at 0 paths.  Until that call, offer and
        retract only bump the counter.
        """
        if seq >= self.export_seq:
            return self.export_seq, {}
        best, contested = self._best, self._contested
        if not seq:
            if self._changed is None:
                self._changed = {}
            counts = dict.fromkeys(best, 1)
            rivals = contested.keys()
        else:
            changed = self._changed
            for prefix in [prefix for prefix, changed_at in changed.items()
                           if changed_at <= seq]:
                del changed[prefix]
            counts = {prefix: 1 if prefix in best else 0 for prefix in changed}
            rivals = contested.keys() & counts.keys()
        for prefix in rivals:
            counts[prefix] = len(contested[prefix])
        return self.export_seq, counts

    def export_entries_since(self, seq):
        """:meth:`path_counts_since` with each changed prefix mapped to
        its current entry list instead of the list's length."""
        export_seq, counts = self.path_counts_since(seq)
        return export_seq, {prefix: self.export_prefix_entries(prefix)
                            for prefix in counts}


class AdjRibOut:
    """What has been advertised to one peer."""

    def __init__(self, peer_id):
        self.peer_id = peer_id
        self._routes = {}  # prefix -> PathAttributes as advertised

    def advertised(self, prefix):
        return self._routes.get(prefix)

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
