"""Path-compressed binary radix (Patricia) trie keyed by packed prefix
ints (:mod:`repro.bgp.prefixes`).

The structural index behind prefix lists and the FIB.  A flat dict
answers exact-match queries but nothing else; a prefix list and a
forwarding table need the order-dependent queries too: longest-prefix
match (which entry covers a destination), covered walks (every
more-specific under an aggregate), covering chains (every less-specific
over a prefix), and sorted iteration.  The Loc-RIB keeps no such index:
it sorts its keys for a whole-table read and probes one hash per prefix
length for a match (:mod:`repro.bgp.rib`).

Structure
---------
One root per AFI at position ``(value=0, length=0)``.  Every node sits
at a bit position — a (masked value, length) pair — and its two children
extend that position by at least one bit, branching on the first bit
past the parent's length.  Path compression: chain nodes with a single
child and no entry are never materialized, so the trie holds at most
``2n - 1`` nodes for ``n`` entries and descent is bounded by the AFI
width, not the entry count.

Exact-match queries never walk the tree: an intrusive ``prefix -> node``
index dict gives O(1) lookup, and nodes carry parent pointers so removal
prunes locally.  Descent (insert, LPM, covering, covered) runs on the
nodes' plain-int ``value``/``length`` with shifts and xors.  The shape
is canonical for the key set: whatever order entries arrive in, the same
nodes result.

Iteration order is pre-order (node, 0-child, 1-child), which for this
bit layout is exactly ascending ``(value, length)`` — a parent's value
is its child's value with trailing bits cleared, so the parent sorts
first, and the 0-subtree's values all precede the 1-subtree's.  Walking
AFIs in ascending order makes the full walk equal ``sorted(keys)`` —
the keys' native int order, the order the Loc-RIB exports in
(property-tested against sorted() in test_radix_properties.py, whose
flat-dict reference store lives in tests/rib_reference.py).
"""

from repro.bgp.prefixes import AFI_IPV4, AFI_IPV6, prefix_fields

#: Address width per AFI; descent shifts against it on plain ints.
_BITS = {AFI_IPV4: 32, AFI_IPV6: 128}


class RadixNode:
    """One trie position; carries an entry only when ``prefix`` is set.

    The position is the plain-int pair ``(value, length)``.  ``prefix``
    is the stored key: None on a pure fork, which is what tells an
    entry whose value is None from no entry at all (and the default
    route's key is 0, so test it with ``is None``).
    """

    __slots__ = ("value", "length", "parent", "zero", "one",
                 "prefix", "entry")

    def __init__(self, value, length, parent=None):
        self.value = value
        self.length = length
        self.parent = parent
        self.zero = None
        self.one = None
        self.prefix = None
        self.entry = None

    def __repr__(self):
        mark = "*" if self.prefix is not None else ""
        return f"<RadixNode {self.value:#x}/{self.length}{mark}>"


class RadixTrie:
    """Prefix -> value map with LPM, covered/covering walks, sorted order."""

    def __init__(self):
        self._roots = {afi: RadixNode(0, 0) for afi in _BITS}
        self._index = {}  # prefix -> RadixNode (entry-bearing nodes only)

    # -- exact-match surface (all O(1) via the index) ------------------------

    def __len__(self):
        return len(self._index)

    def __contains__(self, prefix):
        return prefix in self._index

    def __iter__(self):
        return (prefix for prefix, _value in self.walk())

    def get(self, prefix, default=None):
        node = self._index.get(prefix)
        return node.entry if node is not None else default

    def insert(self, prefix, value):
        """Insert or replace; returns the node holding the entry."""
        node = self._index.get(prefix)
        if node is None:
            node = self._index[prefix] = self._attach(prefix)
            node.prefix = prefix
        node.entry = value
        return node

    def remove(self, prefix):
        """Remove an exact entry; returns True if it existed."""
        node = self._index.pop(prefix, None)
        if node is None:
            return False
        node.prefix = node.entry = None
        self._prune(node)
        return True

    # -- structural insert/remove ------------------------------------------

    def _attach(self, prefix):
        """Find or create the node at ``prefix``'s position."""
        afi, value, length = prefix_fields(prefix)
        bits = _BITS[afi]
        node = self._roots[afi]
        while True:
            # Invariant: node's position covers prefix.
            at = node.length
            if at == length:
                return node
            bit = (value >> (bits - 1 - at)) & 1
            child = node.one if bit else node.zero
            if child is None:
                child = RadixNode(value, length, node)
            else:
                common = bits - (child.value ^ value).bit_length()
                reach = child.length
                if reach <= common and reach <= length:
                    node = child  # child still covers prefix: keep descending
                    continue
                # Diverged inside the compressed edge: split at the fork,
                # which is prefix's own position when prefix covers child.
                if common > length:
                    common = length
                keep = bits - common
                mid = RadixNode(value >> keep << keep, common, node)
                if (child.value >> (keep - 1)) & 1:
                    mid.one = child
                else:
                    mid.zero = child
                child.parent = mid
                child = mid
            if bit:
                node.one = child
            else:
                node.zero = child
            node = child  # a new leaf, or the fork to hang it under

    def _prune(self, node):
        """Splice out now-useless chain nodes after an entry removal."""
        while node.prefix is None and node.parent is not None:
            kid = node.zero
            if kid is None:
                kid = node.one
            elif node.one is not None:
                return  # still a fork point
            parent = node.parent
            if kid is not None:
                kid.parent = parent
            if parent.zero is node:
                parent.zero = kid
            else:
                parent.one = kid
            node.parent = None
            node = parent

    # -- tree queries -------------------------------------------------------

    def longest_match(self, prefix):
        """Most specific entry covering ``prefix`` (itself included).

        Returns ``(stored_prefix, value)`` or None.
        """
        match = None
        for match in self.covering(prefix):
            pass
        return match

    def covering(self, prefix):
        """Entries covering ``prefix`` (itself included), shortest first."""
        afi, value, length = prefix_fields(prefix)
        bits = _BITS[afi]
        node = self._roots[afi]
        while True:
            if node.prefix is not None:
                yield node.prefix, node.entry
            at = node.length
            if at >= length:
                return
            node = node.one if (value >> (bits - 1 - at)) & 1 else node.zero
            if (node is None or node.length > length
                    or (node.value ^ value) >> (bits - node.length)):
                return

    def covered(self, prefix):
        """Entries within ``prefix`` (itself included), in sorted order."""
        top = self._subtree_top(prefix)
        if top is not None:
            yield from self._walk_from(top)

    def _subtree_top(self, prefix):
        """The shallowest node whose subtree holds exactly the entries
        covered by ``prefix`` — or None when no entry is covered."""
        afi, value, length = prefix_fields(prefix)
        bits = _BITS[afi]
        node = self._roots[afi]
        while node.length < length:
            node = (node.one if (value >> (bits - 1 - node.length)) & 1
                    else node.zero)
            if node is None:
                return None
            # The edge must stay inside prefix as far as both reach; a
            # child at or past prefix's position then tops the subtree.
            reach = node.length if node.length < length else length
            if (node.value ^ value) >> (bits - reach):
                return None
        return node

    # -- iteration ----------------------------------------------------------

    def walk(self):
        """All ``(prefix, value)`` entries in ascending key order."""
        for afi in sorted(self._roots):
            yield from self._walk_from(self._roots[afi])

    @staticmethod
    def _walk_from(top):
        # Iterative pre-order: entry before children, 0-subtree before
        # 1-subtree.  Recursion would be fine for IPv4 depth but an
        # explicit stack keeps IPv6 worst cases off the interpreter
        # stack and is faster in CPython anyway.
        stack = [top]
        while stack:
            node = stack.pop()
            if node.prefix is not None:
                yield node.prefix, node.entry
            if node.one is not None:
                stack.append(node.one)
            if node.zero is not None:
                stack.append(node.zero)
