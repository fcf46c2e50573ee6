"""DRAGON-style route aggregation (DESIGN.md §14).

Two independent, opt-in layers, both default-off so every existing
scenario stays bit-identical:

**Snapshot aggregation** (lossless, KV path): complete uniform dyadic
subtrees in a Loc-RIB snapshot chunk — every length-M prefix under a
root P present with a single candidate sharing (peer, source kind,
attributes) — collapse into one ``{"aggregate", "member_length", ...}``
record; recovery expands it back to the identical member set.  Purely
an encoding: the replicated byte count shrinks, the recovered RIB is
bit-identical.  Chunk bucketing keys on each prefix's aggregate root so
siblings co-locate in a chunk and stay collapsible under incremental
compaction.  :func:`encode_chunk` writes every snapshot chunk, collapsing
or not, and touches each route once (DESIGN.md §14).

**Export aggregation** (DRAGON route-consistency mode, speaker path):
for configured aggregate prefixes, advertise one aggregate route when
the covered more-specifics share attributes, suppress the uniform
members, and punch deaggregation holes — advertise the divergent
more-specifics individually — so the receiver's longest-prefix match
still forwards every destination exactly as the unaggregated table
would (more-specific wins; the uniform remainder falls through to the
aggregate, whose attributes equal the suppressed members').  Aggregates
never enter the Loc-RIB: the transformation lives entirely at the
export boundary, which keeps ``rib_digest`` and the convergence oracles
blind to it.  The safety argument requires export policies that are
pure functions of attributes (equal attributes in, equal attributes
out); prefix-matching export policies can tell members apart and are
rejected by construction nowhere — documented, not enforced (§14).
"""

from repro.bgp.attributes import PathAttributes
from repro.bgp.prefixes import (
    AFI_IPV4,
    parse_prefix,
    prefix_ancestor,
    prefix_contains,
    prefix_fields,
    prefix_key,
    prefix_text,
)
from repro.bgp.rib import Path

#: Aggregate-root span for snapshot chunk bucketing: prefixes bucket by
#: their ancestor at this length, so a /16's /24s co-locate in a chunk.
AGGREGATE_ROOT_LEN = 16

#: An export aggregate activates only with at least this many covered
#: more-specifics (a 1-member "aggregate" would just rename the route).
MIN_AGGREGATE_MEMBERS = 2


def aggregate_root(prefix, span=AGGREGATE_ROOT_LEN):
    """The chunk-bucketing root for ``prefix``: its ancestor at ``span``
    (or the prefix itself when already shorter)."""
    return prefix_ancestor(prefix, span)


# ---------------------------------------------------------------------------
# snapshot aggregation (lossless encode/decode of chunk entries)
# ---------------------------------------------------------------------------

def encode_chunk(loc_rib, prefixes, collapse):
    """Encode one snapshot chunk: the Loc-RIB entries of the set
    ``prefixes``, complete uniform subtrees collapsed when ``collapse``.

    Each route is read once and only what survives is rendered.
    Contested prefixes always pass through as plain records.  With
    ``collapse`` the other members group by signature — (afi, length,
    peer, source kind, attribute bytes) — and sibling pairs inside a
    group merge bottom-up on plain ints: two complete subtrees at the
    same position length combine into their parent's complete subtree
    (a leaf is the trivially complete subtree of its own prefix), so
    each level keeps what found no sibling and hands the rest up.
    Returns ``(records, routes)``: the records ordered by text — where
    texts coincide, plain records (in peer order) ahead of aggregates
    (by member length) — and the number of routes they encode.
    """
    lone, contested = loc_rib.export_paths(prefixes)
    plain = [(prefix, path) for prefix, paths in contested for path in paths]
    routes = len(prefixes) - len(contested) + len(plain)
    aggregates = []  # (member length, text, record)
    if collapse:
        groups = {}  # signature -> {prefix value: (prefix, path)}
        for prefix, path in lone:
            afi, value, length = prefix_fields(prefix)
            signature = (afi, length, path.peer_id, path.source_kind,
                         path.attributes.to_wire())
            group = groups.get(signature)
            if group is None:
                groups[signature] = {value: (prefix, path)}
            else:
                group[value] = (prefix, path)
        for signature, leaves in groups.items():
            afi, member_length, peer_id, source_kind, wire = signature
            bits = 32 if afi == AFI_IPV4 else 128
            length, level = member_length, leaves
            while level:
                # No value has the bit above the address width, so the
                # default route finds no sibling.
                bit = 1 << (bits - length)
                parents = {value for value in level
                           if not value & bit and value | bit in level}
                unmerged = level if not parents else [
                    value for value in level if value & ~bit not in parents]
                if level is leaves:
                    plain.extend(map(leaves.__getitem__, unmerged))
                else:
                    for value in unmerged:
                        text = prefix_text(prefix_key(value, length, afi))
                        aggregates.append((member_length, text, {
                            "aggregate": text,
                            "member_length": member_length,
                            "peer_id": peer_id,
                            "source_kind": source_kind,
                            "attributes": wire,
                        }))
                length, level = length - 1, parents
    else:
        plain.extend(lone)
    texts = [prefix_text(prefix) for prefix, _path in plain]
    records = [{"prefix": text,
                "peer_id": path.peer_id,
                "source_kind": path.source_kind,
                "attributes": path.attributes.to_wire()}
               for text, (_prefix, path) in zip(texts, plain)]
    # The sort below is stable and on text alone: it keeps a contested
    # prefix's records in peer order, plain records ahead of aggregates
    # and aggregates in member-length order.
    for _member_length, text, record in sorted(aggregates):
        texts.append(text)
        records.append(record)
    order = sorted(range(len(texts)), key=texts.__getitem__)
    return [records[index] for index in order], routes


def _aggregate_members(entry):
    """The member prefixes of one aggregate record, ascending."""
    afi, value, length = prefix_fields(parse_prefix(entry["aggregate"]))
    member_length = entry["member_length"]
    stride = 1 << ((32 if afi == AFI_IPV4 else 128) - member_length)
    for index in range(1 << (member_length - length)):
        yield prefix_key(value + index * stride, member_length, afi)


def expand_snapshot_entry(entry):
    """Decode one snapshot record into plain per-prefix records.

    Plain records yield themselves; an aggregate record enumerates its
    complete member set."""
    if "aggregate" not in entry:
        yield entry
        return
    for member in _aggregate_members(entry):
        yield {
            "prefix": prefix_text(member),
            "peer_id": entry["peer_id"],
            "source_kind": entry["source_kind"],
            "attributes": entry["attributes"],
        }


def expand_snapshot_entries(entries):
    for entry in entries:
        yield from expand_snapshot_entry(entry)


def expand_snapshot_paths(entries):
    """Decode snapshot records straight into ``(prefix, path)`` pairs,
    in the order :func:`expand_snapshot_entries` lists them: only a
    plain record's prefix is parsed from text, and every record of one
    call with the same (attributes, peer, source kind) — an aggregate's
    members and plain records alike — shares one
    :class:`~repro.bgp.rib.Path`, decoded on its first sight."""
    paths = {}  # (attributes wire, peer_id, source_kind) -> Path
    for entry in entries:
        key = entry["attributes"], entry["peer_id"], entry["source_kind"]
        path = paths.get(key)
        if path is None:
            path = paths[key] = Path(PathAttributes.from_wire(key[0]),
                                     key[1], key[2])
        if "aggregate" in entry:
            for member in _aggregate_members(entry):
                yield member, path
        else:
            yield parse_prefix(entry["prefix"]), path


# ---------------------------------------------------------------------------
# export aggregation (DRAGON route-consistency mode)
# ---------------------------------------------------------------------------

class ExportAggregator:
    """Per-speaker aggregate-export engine.

    Owns the configured aggregate prefixes and, per (peer, aggregate),
    the advertised state — the aggregate's current attributes and the
    holes punched through it — so each flush emits only deltas.  The
    Loc-RIB stays untouched; callers splice the emitted changes into
    the normal advertisement flow, where Adj-RIB-Out bookkeeping and
    MRAI pacing apply unchanged.
    """

    def __init__(self, speaker_name, aggregates,
                 min_members=MIN_AGGREGATE_MEMBERS):
        self.aggregates = tuple(sorted(aggregates))
        self.min_members = min_members
        self.peer_id = f"aggregate:{speaker_name}"
        # session peer_id -> {aggregate: {"attrs", "holes": {prefix: attrs},
        #                                 "suppressed": set()}}
        self._state = {}
        self.aggregates_advertised = 0
        self.holes_punched = 0
        self.members_suppressed = 0

    def covering_aggregate(self, prefix):
        """The configured aggregate covering ``prefix``, if any (the
        shortest wins when nested aggregates overlap)."""
        for aggregate in self.aggregates:
            if prefix_contains(aggregate, prefix) and aggregate != prefix:
                return aggregate
        return None

    def drop_session(self, peer_id):
        self._state.pop(peer_id, None)

    # -- evaluation ---------------------------------------------------------

    def _members(self, loc_rib, aggregate, session):
        members = []
        for prefix, route in loc_rib.covered_best(aggregate):
            if prefix == aggregate:
                continue
            if route.peer_id == session.peer_id:
                continue  # split horizon: never back to the member's source
            if route.source_kind == "ibgp" and session.source_kind == "ibgp":
                continue  # iBGP split horizon, as in _queue_change
            members.append((prefix, route))
        return members

    def _evaluate(self, loc_rib, aggregate, session):
        """Current export decision for one aggregate toward one peer.

        Returns ``None`` (inert: a real route exists at the aggregate's
        own prefix, or too few members) or ``(attrs, holes, suppressed)``
        where ``holes`` maps divergent member prefixes to their routes
        and ``suppressed`` maps uniform member prefixes to theirs.
        """
        if loc_rib.best(aggregate) is not None:
            return None
        members = self._members(loc_rib, aggregate, session)
        if len(members) < self.min_members:
            return None
        # Deterministic representative: the first member in prefix
        # order carries the aggregate's attributes.
        chosen = members[0][1].attributes
        holes, suppressed = {}, {}
        for prefix, route in members:
            if route.attributes == chosen:
                suppressed[prefix] = route
            else:
                holes[prefix] = route
        return chosen, holes, suppressed

    # -- change-flow transform ---------------------------------------------

    def transform_changes(self, loc_rib, session, changes):
        """Rewrite one session's pending change map through aggregation.

        Changes to prefixes under no configured aggregate pass through.
        A change under an aggregate marks it dirty; the dirty
        aggregates re-evaluate and emit delta announcements/withdrawals
        against the per-session advertised state.
        """
        out = {}
        dirty = set()
        for prefix, route in changes.items():
            aggregate = self.covering_aggregate(prefix)
            if aggregate is None:
                out[prefix] = route
            else:
                dirty.add(aggregate)
        for aggregate in sorted(dirty):
            self._emit(loc_rib, session, aggregate, out)
        return out

    def transform_table(self, loc_rib, session, routes):
        """Rewrite a full-table advertisement (session establishment).

        Resets the session's aggregate state, then collapses the route
        list: uniform members drop out, aggregates and holes go in.
        """
        self._state[session.peer_id] = {}
        passthrough = [
            (prefix, attributes) for prefix, attributes in routes
            if self.covering_aggregate(prefix) is None
        ]
        synthesized = []
        for aggregate in self.aggregates:
            changes = {}
            self._emit(loc_rib, session, aggregate, changes)
            for prefix, route in sorted(changes.items()):
                if route is not None:
                    synthesized.append((prefix, route.attributes))
        return passthrough + synthesized

    def _emit(self, loc_rib, session, aggregate, out):
        """Delta between the session's advertised state for ``aggregate``
        and its current evaluation, appended to ``out``."""
        state = self._state.setdefault(session.peer_id, {})
        previous = state.get(aggregate)
        evaluation = self._evaluate(loc_rib, aggregate, session)
        if evaluation is None:
            if previous is not None:
                # Completeness broke (or a real aggregate-prefix route
                # appeared): withdraw the aggregate, re-export every
                # surviving member individually — in prefix order: ``out``
                # is walked in insertion order to build the UPDATEs.
                out[aggregate] = None
                for prefix in sorted(set(previous["holes"])
                                     | previous["suppressed"]):
                    best = loc_rib.best(prefix)
                    out[prefix] = best if (
                        best is not None and best.peer_id != session.peer_id
                    ) else None
                del state[aggregate]
            else:
                # Never aggregated: the member changes flow as-is.
                for prefix, route in self._member_changes(
                        loc_rib, session, aggregate):
                    out[prefix] = route
            return
        attrs, holes, suppressed = evaluation
        if previous is None or previous["attrs"] != attrs:
            out[aggregate] = Path(attrs, self.peer_id, "local")
            self.aggregates_advertised += 1
        known_holes = previous["holes"] if previous else {}
        tracked = (set(known_holes) | previous["suppressed"]) if previous else set()
        for prefix, route in holes.items():
            if known_holes.get(prefix) != route.attributes:
                out[prefix] = route
                self.holes_punched += 1
        for prefix in suppressed:
            if prefix not in tracked or prefix in known_holes:
                # Newly uniform: withdraw any individual advertisement
                # (the aggregate now covers it).  _flush_pending skips
                # the withdrawal when nothing was ever advertised.
                out[prefix] = None
                self.members_suppressed += 1
        for prefix in sorted(tracked - set(holes) - set(suppressed)):
            out[prefix] = None  # member left the table entirely
        state[aggregate] = {
            "attrs": attrs,
            "holes": {prefix: route.attributes
                      for prefix, route in holes.items()},
            "suppressed": set(suppressed),
        }

    def _member_changes(self, loc_rib, session, aggregate):
        """Pass-through emission when an aggregate is inert: the
        members' current best routes (the caller lost the original
        change records when it marked the aggregate dirty)."""
        for prefix, route in self._members(loc_rib, aggregate, session):
            yield prefix, route
        # Members withdrawn from the table need explicit withdrawal;
        # covered_best no longer lists them, but Adj-RIB-Out does.
        for prefix in session.adj_rib_out.prefixes():
            if (prefix_contains(aggregate, prefix) and prefix != aggregate
                    and loc_rib.best(prefix) is None):
                yield prefix, None
