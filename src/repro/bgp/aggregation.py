"""DRAGON-style snapshot aggregation (DESIGN.md §14), opt-in and
default-off so every existing scenario stays bit-identical.

Complete uniform dyadic subtrees in a Loc-RIB snapshot chunk — every
length-M prefix under a root P present with a single candidate sharing
(peer, source kind, attributes) — collapse into one ``{"aggregate",
"member_length", ...}`` record; recovery expands it back to the
identical member set.  Purely an encoding: the replicated byte count
shrinks, the recovered RIB is bit-identical.  Chunk bucketing keys on
each prefix's aggregate root so siblings co-locate in a chunk and stay
collapsible under incremental compaction.  :func:`encode_chunk` builds
every snapshot chunk, collapsing or not, and touches each route once;
:class:`SnapshotChunk` keeps what it built and patches it one changed
prefix at a time (DESIGN.md §14).
"""

from bisect import bisect_left

from repro.bgp.attributes import PathAttributes
from repro.bgp.prefixes import (
    AFI_IPV4,
    AFI_SHIFT,
    parse_prefix,
    prefix_ancestor,
    prefix_fields,
    prefix_key,
    prefix_text,
)
from repro.bgp.rib import Path

#: Aggregate-root span for snapshot chunk bucketing: prefixes bucket by
#: their ancestor at this length, so a /16's /24s co-locate in a chunk.
AGGREGATE_ROOT_LEN = 16


def aggregate_root(prefix):
    """The chunk-bucketing root for ``prefix``: its ancestor at
    ``AGGREGATE_ROOT_LEN`` (or the prefix itself when already shorter)."""
    return prefix_ancestor(prefix, AGGREGATE_ROOT_LEN)


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
    Returns ``(records, keys, routes)``: the records ordered by text —
    where texts coincide, plain records (in peer order) ahead of
    aggregates (by member length) — each record's block key (the key of
    its prefix or aggregate block) and the number of routes they encode.
    """
    lone, contested = loc_rib.export_paths(prefixes)
    plain = [(prefix, path) for prefix, paths in contested for path in paths]
    routes = len(prefixes) - len(contested) + len(plain)
    aggregates = []  # (member length, text, key, record)
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
                        key = prefix_key(value, length, afi)
                        text = prefix_text(key)
                        aggregates.append((member_length, text, key, {
                            "aggregate": text,
                            "member_length": member_length,
                            "peer_id": peer_id,
                            "source_kind": source_kind,
                            "attributes": wire,
                        }))
                length, level = length - 1, parents
    else:
        plain.extend(lone)
    keys = [prefix for prefix, _path in plain]
    texts = list(map(prefix_text, keys))
    records = [{"prefix": text,
                "peer_id": path.peer_id,
                "source_kind": path.source_kind,
                "attributes": path.attributes.to_wire()}
               for text, (_prefix, path) in zip(texts, plain)]
    # The sort below is stable and on text alone: it keeps a contested
    # prefix's records in peer order, plain records ahead of aggregates
    # and aggregates in member-length order — :func:`_stored_order`.
    for _member_length, text, key, record in sorted(aggregates):
        texts.append(text)
        keys.append(key)
        records.append(record)
    order = sorted(range(len(texts)), key=texts.__getitem__)
    return ([records[index] for index in order],
            [keys[index] for index in order], routes)


def _text(record):
    return record.get("prefix") or record["aggregate"]


def _stored_order(record):
    """Where ``record`` sits in a chunk: by text; at one text, plain
    records in peer order ahead of aggregates in member-length order."""
    text = record.get("prefix")
    if text is None:
        return record["aggregate"], 1, record["member_length"]
    return text, 0, str(record["peer_id"])


def _block_record(key, member_length, like):
    """The record of block ``key`` of length-``member_length`` members
    with ``like``'s peer, source kind and attributes: a plain record
    when the block is a single prefix."""
    if key & 255 == member_length:
        return {"prefix": prefix_text(key),
                "peer_id": like["peer_id"],
                "source_kind": like["source_kind"],
                "attributes": like["attributes"]}
    return {"aggregate": prefix_text(key),
            "member_length": member_length,
            "peer_id": like["peer_id"],
            "source_kind": like["source_kind"],
            "attributes": like["attributes"]}


class SnapshotChunk:
    """One written snapshot chunk's encoding, kept between compactions
    so an incremental compaction patches it one dirty prefix at a time
    instead of re-encoding it (DESIGN.md §14, "The kept chunk encoding").

    ``records`` is the chunk in stored order, ``blocks`` maps each
    record's block key to the record — or to a tuple of the records that
    share the key: a contested prefix's, or a plain record and
    aggregates spelling one text — and ``routes`` counts the routes the
    chunk encodes.  Under collapse, each signature's lone routes are
    held as their maximal complete uniform blocks.  That set is unique,
    so a patched chunk equals what :func:`encode_chunk` makes of the same
    table whatever order its prefixes were patched in.

    ``records`` is mutated in place: hand out copies of it.  Records
    themselves are never mutated; a patch replaces them.
    """

    __slots__ = ("records", "blocks", "routes")

    def __init__(self, records, keys, routes):
        self.records = records
        self.routes = routes
        self.blocks = blocks = {}
        for key, record in zip(keys, records):
            held = blocks.setdefault(key, record)
            if held is not record:
                blocks[key] = ((held, record) if type(held) is dict
                               else held + (record,))

    def patch(self, prefix, entries, collapse):
        """Replace ``prefix``'s part of the chunk with ``entries``, its
        :meth:`~repro.bgp.rib.LocRib.export_prefix_entries` now (empty
        when it left the table)."""
        own = [record for record in self._held(prefix) if "prefix" in record]
        for record in own:
            self._remove(prefix, record)
        removed = len(own)
        if not removed and collapse:
            removed = self._split(prefix)
        self.routes += len(entries) - removed
        if collapse and len(entries) == 1:
            self._merge(prefix, entries[0])
        else:
            for record in entries:
                self._add(prefix, record)

    def _split(self, prefix):
        """Take lone ``prefix`` out of the aggregate it is a member of:
        the aggregate gives way to the sibling blocks on the path from
        it down to ``prefix``.  Returns the routes removed, 1 or 0."""
        length = prefix & 255
        shift = (128 if prefix >> AFI_SHIFT else 32) + 8
        node = prefix
        for at in range(length, 0, -1):
            node = (node & ~(1 << shift - at)) - 1  # the parent, at - 1 long
            for record in self._held(node):
                if record.get("member_length") == length:
                    self._remove(node, record)
                    for down in range(at, length + 1):
                        sibling = (prefix_ancestor(prefix, down)
                                   ^ 1 << shift - down)
                        self._add(sibling,
                                  _block_record(sibling, length, record))
                    return 1
        return 0

    def _merge(self, prefix, record):
        """Insert lone ``prefix``'s ``record``, merging upward while the
        sibling block holds exactly one record of the same member length
        and signature."""
        length = prefix & 255
        shift = (128 if prefix >> AFI_SHIFT else 32) + 8
        signature = record["peer_id"], record["source_kind"], record["attributes"]
        key, at = prefix, length
        while at:  # the default route has no sibling
            bit = 1 << shift - at
            sibling = key ^ bit
            twins = [twin for twin in self._held(sibling)
                     if twin.get("member_length", at) == length]
            if len(twins) != 1 or (twins[0]["peer_id"], twins[0]["source_kind"],
                                   twins[0]["attributes"]) != signature:
                break
            self._remove(sibling, twins[0])
            key, at = (key & ~bit) - 1, at - 1
        self._add(key, record if at == length
                  else _block_record(key, length, record))

    def _held(self, key):
        held = self.blocks.get(key)
        return () if held is None else (held,) if type(held) is dict else held

    def _add(self, key, record):
        blocks, records = self.blocks, self.records
        held = blocks.get(key)
        blocks[key] = (record if held is None else (held, record)
                       if type(held) is dict else held + (record,))
        records.insert(self._slot(record), record)

    def _remove(self, key, record):
        blocks, records = self.blocks, self.records
        rest = tuple(held for held in self._held(key) if held is not record)
        if not rest:
            del blocks[key]
        else:
            blocks[key] = rest[0] if len(rest) == 1 else rest
        del records[self._slot(record)]

    def _slot(self, record):
        """The index ``record`` has, or takes, in ``records``: a bisect
        on text, then a step past the records of that text ordered
        ahead of it (a contested prefix's, or an aggregate's twin)."""
        records, text = self.records, _text(record)
        index = bisect_left(records, text, key=_text)
        if index < len(records) and _text(records[index]) == text:
            order = _stored_order(record)
            while (index < len(records) and _text(records[index]) == text
                   and _stored_order(records[index]) < order):
                index += 1
        return index


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
