"""DRAGON-style snapshot aggregation (DESIGN.md §14), opt-in and
default-off so every existing scenario stays bit-identical.

Complete uniform dyadic subtrees in a Loc-RIB snapshot chunk — every
length-M prefix under a root P present with a single candidate sharing
(peer, source kind, attributes) — collapse into one ``{"aggregate",
"member_length", ...}`` record; recovery expands it back to the
identical member set.  Purely an encoding: the replicated byte count
shrinks, the recovered RIB is bit-identical.  Chunk bucketing keys on
each prefix's aggregate root so siblings co-locate in a chunk and stay
collapsible under incremental compaction.  :func:`encode_snapshot`
builds every chunk of a snapshot, collapsing or not, in one walk of the
table; :class:`SnapshotChunk` keeps what it built and patches it one
changed prefix at a time (DESIGN.md §14).
"""

import zlib
from bisect import bisect_left

from repro.bgp.attributes import PathAttributes
from repro.bgp.prefixes import (
    AFI_IPV4,
    AFI_SHIFT,
    KEY_SHAPE,
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


def _root_shift(shape, collapse):
    """The right shift that leaves a key of ``shape`` only the address
    bits of its chunk root — its :func:`aggregate_root` under
    ``collapse``, so siblings share a chunk and can merge — or 0 when
    the key is its own root: without ``collapse``, or no longer than
    the root.  The shift depends on the family alone, so what is left
    names one root of either family."""
    if not collapse or shape & 255 <= AGGREGATE_ROOT_LEN:
        return 0
    return (128 if shape >> AFI_SHIFT else 32) - AGGREGATE_ROOT_LEN + 8


def chunk_assigner(buckets, collapse):
    """``assign(prefix)``: the snapshot chunk of ``prefix`` among
    ``buckets`` chunks.

    Must be deterministic across processes and runs (recovery re-reads
    chunks written by an earlier incarnation), so Python's randomized
    ``hash()`` is out; CRC-32 of the chunk root's text is stable and
    cheap.  A root that other prefixes share is rendered once and its
    chunk remembered for the assigner's life, one compaction.
    """
    crc32 = zlib.crc32
    shifts, by_root = {}, {}

    def assign(prefix):
        shape = prefix & KEY_SHAPE
        shift = shifts.get(shape)
        if shift is None:
            shift = shifts[shape] = _root_shift(shape, collapse)
        if not shift:  # its own root: no other prefix shares the text
            return crc32(prefix_text(prefix).encode()) % buckets
        chunk = by_root.get(prefix >> shift)
        if chunk is None:
            chunk = by_root[prefix >> shift] = crc32(
                prefix_text(aggregate_root(prefix)).encode()) % buckets
        return chunk

    return assign


def encode_snapshot(loc_rib, buckets, collapse):
    """Every chunk of a snapshot of ``loc_rib`` in ``buckets`` chunks,
    as :class:`SnapshotChunk` s, from one walk of the table.

    The walk puts each route in its chunk (:func:`chunk_assigner`).  A
    contested prefix's routes pass through as plain records in peer
    order, and so does every route without ``collapse``.  Under it, a
    lone route whose sibling prefix is in the table joins a group keyed
    by the chunk, its path's signature — (peer, source kind, attribute
    bytes), built once per path object, found by its identity — and its
    key's shape (family and length); any other lone route has nothing
    to merge with and passes through.  In a group sibling pairs merge
    bottom-up on the keys: two complete subtrees at the same position
    length combine into their parent's complete subtree (a leaf is the
    trivially complete subtree of its own prefix), so each level keeps
    what found no sibling and hands the rest up.  Each chunk holds its
    records ordered by text — where texts coincide, plain records (in
    peer order) ahead of aggregates (by member length).
    """
    assign = chunk_assigner(buckets, collapse)
    plain_keys = [[] for _ in range(buckets)]
    plain_signatures = [[] for _ in range(buckets)]  # one per plain key
    # per chunk: (member length, text, key, record) of each aggregate
    aggregates = [[] for _ in range(buckets)]
    routes = [0] * buckets  # the routes aggregates stand for
    contested = loc_rib.contested_paths()
    for prefix, paths in contested.items():
        chunk = assign(prefix)
        plain_keys[chunk].extend([prefix] * len(paths))
        plain_signatures[chunk].extend(
            (path.peer_id, path.source_kind, path.attributes.to_wire())
            for path in paths)
    present = loc_rib.prefixes()
    siblings = {}  # shape -> the bit a key's sibling differs in (0: none)
    index_of = {}  # id(path) -> its signature's index in signatures
    indexes, signatures = {}, []
    groups = {}  # (chunk, signature index, shape) -> lone keys
    for prefix, path in loc_rib.items():
        if prefix in contested:
            continue
        index = index_of.get(id(path))
        if index is None:
            signature = (path.peer_id, path.source_kind,
                         path.attributes.to_wire())
            index = index_of[id(path)] = indexes.setdefault(
                signature, len(indexes))
            if index == len(signatures):
                signatures.append(signature)
        chunk = assign(prefix)
        shape = prefix & KEY_SHAPE
        sibling = siblings.get(shape)
        if sibling is None:
            length = shape & 255
            sibling = siblings[shape] = collapse and length and 1 << (
                (128 if shape >> AFI_SHIFT else 32) + 8 - length)
        if sibling and prefix ^ sibling in present:
            group = chunk, index, shape
            members = groups.get(group)
            if members is None:
                groups[group] = [prefix]
            else:
                members.append(prefix)
        else:
            plain_keys[chunk].append(prefix)
            plain_signatures[chunk].append(signatures[index])
    for (chunk, index, shape), members in groups.items():
        signature = signatures[index]
        peer_id, source_kind, wire = signature
        member_length = length = shape & 255
        shift = (128 if shape >> AFI_SHIFT else 32) + 8
        level = set(members)
        while level:
            # At length 0 the bit lies above the address: no IPv4 key
            # has it and every IPv6 key does (the family bit), so a
            # block there finds no sibling.
            bit = 1 << shift - length
            parents = {key - 1 for key in level
                       if not key & bit and key | bit in level}
            unmerged = level if not parents else [
                key for key in level if (key & ~bit) - 1 not in parents]
            if length == member_length:
                plain_keys[chunk].extend(unmerged)
                plain_signatures[chunk].extend([signature] * len(unmerged))
            elif unmerged:
                routes[chunk] += len(unmerged) << member_length - length
                for key in unmerged:
                    text = prefix_text(key)
                    aggregates[chunk].append((member_length, text, key, {
                        "aggregate": text,
                        "member_length": member_length,
                        "peer_id": peer_id,
                        "source_kind": source_kind,
                        "attributes": wire,
                    }))
            length, level = length - 1, parents
    chunks = []
    for chunk in range(buckets):
        keys = plain_keys[chunk]
        texts = list(map(prefix_text, keys))
        records = [{"prefix": text,
                    "peer_id": peer_id,
                    "source_kind": source_kind,
                    "attributes": wire}
                   for text, (peer_id, source_kind, wire)
                   in zip(texts, plain_signatures[chunk])]
        routes[chunk] += len(records)
        # The sort below is stable and on text alone: it keeps a
        # contested prefix's records in peer order, plain records ahead
        # of aggregates and aggregates in member-length order —
        # :func:`_stored_order`.
        for _member_length, text, key, record in sorted(aggregates[chunk]):
            texts.append(text)
            keys.append(key)
            records.append(record)
        order = sorted(range(len(texts)), key=texts.__getitem__)
        chunks.append(SnapshotChunk(
            [records[index] for index in order],
            [texts[index] for index in order],
            [keys[index] for index in order], routes[chunk]))
    return chunks


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

    ``records`` is the chunk in stored order and ``texts`` each
    record's text beside it, the column a patch bisects; ``blocks`` maps
    each record's block key to the record — or to a tuple of the records
    that share the key: a contested prefix's, or a plain record and
    aggregates spelling one text — and ``routes`` counts the routes the
    chunk encodes.  Under collapse, each signature's lone routes are
    held as their maximal complete uniform blocks.  That set is unique,
    so a patched chunk equals what :func:`encode_snapshot` makes of the
    same table whatever order its prefixes were patched in.

    ``records`` is mutated in place: hand out copies of it.  Records
    themselves are never mutated; a patch replaces them.
    """

    __slots__ = ("records", "texts", "blocks", "routes")

    def __init__(self, records, texts, keys, routes):
        """``records`` in stored order, each one's text and block key
        beside it in ``texts`` and ``keys``."""
        self.records = records
        self.texts = texts
        self.routes = routes
        self.blocks = blocks = dict(zip(keys, records))
        if len(blocks) < len(records):  # some key holds several records
            blocks.clear()
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
        blocks = self.blocks
        held = blocks.get(key)
        blocks[key] = (record if held is None else (held, record)
                       if type(held) is dict else held + (record,))
        text = _text(record)
        index = self._slot(text, record)
        self.records.insert(index, record)
        self.texts.insert(index, text)

    def _remove(self, key, record):
        blocks = self.blocks
        rest = tuple(held for held in self._held(key) if held is not record)
        if not rest:
            del blocks[key]
        else:
            blocks[key] = rest[0] if len(rest) == 1 else rest
        index = self._slot(_text(record), record)
        del self.records[index]
        del self.texts[index]

    def _slot(self, text, record):
        """The index ``record``, of text ``text``, has or takes in
        ``records``: a bisect of the text column, then a step past the
        records of that text ordered ahead of it (a contested prefix's,
        or an aggregate's twin)."""
        records, texts = self.records, self.texts
        index = bisect_left(texts, text)
        if index < len(texts) and texts[index] == text:
            order = _stored_order(record)
            while (index < len(texts) and texts[index] == text
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
