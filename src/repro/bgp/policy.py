"""Routing policy: prefix lists and route maps.

A :class:`RouteMap` is an ordered list of entries; each entry matches on
prefix lists, communities or AS-path membership and either denies the
route or permits it with attribute rewrites (local-pref, MED, community
additions, AS-path prepending).  Applied at import (Adj-RIB-In) and
export (Adj-RIB-Out) time, as the centralized controller would push them
to the gateway's BGP containers.
"""

from repro.bgp.prefixes import longest_match, note_length, parse_prefix


class PrefixList:
    """Named list of prefixes; matches a prefix that an entry covers,
    itself included.

    A longest-prefix-match table (:func:`repro.bgp.prefixes.longest_match`),
    so a match costs one probe per entry length present, whatever the
    list's size.
    """

    def __init__(self, name, entries=()):
        self.name = name
        self._table = {}  # prefix -> True
        self._lengths = ([], [])  # the census of the table's lengths
        for prefix in entries:
            self.add(prefix)

    def add(self, prefix):
        self._table[prefix] = True
        note_length(self._lengths, prefix)

    def matches(self, prefix):
        return longest_match(self._table, self._lengths, prefix) is not None


class PolicyAction:
    """Attribute rewrites applied by a permitting route-map entry."""

    def __init__(
        self,
        set_local_pref=None,
        set_med=None,
        add_communities=(),
        prepend_as=None,
        prepend_count=1,
        set_next_hop=None,
    ):
        self.set_local_pref = set_local_pref
        self.set_med = set_med
        self.add_communities = tuple(add_communities)
        self.prepend_as = prepend_as
        self.prepend_count = prepend_count
        self.set_next_hop = set_next_hop

    def apply(self, attributes):
        overrides = {}
        if self.set_local_pref is not None:
            overrides["local_pref"] = self.set_local_pref
        if self.set_med is not None:
            overrides["med"] = self.set_med
        if self.add_communities:
            merged = tuple(sorted(set(attributes.communities) | set(self.add_communities)))
            overrides["communities"] = merged
        if self.prepend_as is not None:
            overrides["as_path"] = attributes.as_path.prepend(
                self.prepend_as, self.prepend_count
            )
        if self.set_next_hop is not None:
            overrides["next_hop"] = self.set_next_hop
        return attributes.replace(**overrides) if overrides else attributes


class RouteMapEntry:
    """One clause: match conditions -> permit (with action) or deny."""

    def __init__(
        self,
        permit=True,
        match_prefix_list=None,
        match_community=None,
        match_as=None,
        action=None,
    ):
        self.permit = permit
        self.match_prefix_list = match_prefix_list
        self.match_community = match_community
        self.match_as = match_as
        self.action = action or PolicyAction()

    def matches(self, prefix, attributes):
        if self.match_prefix_list is not None and not self.match_prefix_list.matches(prefix):
            return False
        if self.match_community is not None and self.match_community not in attributes.communities:
            return False
        if self.match_as is not None and not attributes.as_path.contains(self.match_as):
            return False
        return True


class RouteMap:
    """Ordered clauses with an implicit trailing deny (like IOS/FRR)."""

    def __init__(self, name, entries=(), default_permit=False):
        self.name = name
        self.entries = list(entries)
        self.default_permit = default_permit

    def append(self, entry):
        self.entries.append(entry)
        return entry

    @property
    def prefix_independent(self):
        """True when no clause matches on a prefix list: the verdict is
        then a function of the attributes alone, so one evaluation
        covers every prefix that shares them (``evaluate(None, ...)``)."""
        return all(entry.match_prefix_list is None for entry in self.entries)

    def evaluate(self, prefix, attributes):
        """Return rewritten attributes, or None when the route is denied."""
        for entry in self.entries:
            if entry.matches(prefix, attributes):
                if not entry.permit:
                    return None
                return entry.action.apply(attributes)
        return attributes if self.default_permit else None


#: A route map that permits everything untouched (the default when a peer
#: has no policy configured).
PERMIT_ALL = RouteMap("permit-all", default_permit=True)


# ----------------------------------------------------------------------
# from a spec (deployment specs, fuzzer corpus entries)
# ----------------------------------------------------------------------

def policy_from_dict(data):
    """A :class:`RouteMap` from the JSON-safe description a deployment
    spec or a fuzzer corpus entry carries (prefix-list matches as prefix
    strings); ``None`` stays ``None`` (no policy configured)."""
    if data is None:
        return None
    entries = []
    for spec in data.get("entries", ()):
        prefix_list = None
        if spec.get("match_prefixes") is not None:
            prefix_list = PrefixList(
                f"{data['name']}-pl",
                entries=map(parse_prefix, spec["match_prefixes"]),
            )
        entries.append(RouteMapEntry(
            permit=spec.get("permit", True),
            match_prefix_list=prefix_list,
            match_community=spec.get("match_community"),
            match_as=spec.get("match_as"),
            action=PolicyAction(
                set_local_pref=spec.get("set_local_pref"),
                set_med=spec.get("set_med"),
                add_communities=tuple(spec.get("add_communities", ())),
                prepend_as=spec.get("prepend_as"),
                prepend_count=spec.get("prepend_count", 1),
            ),
        ))
    return RouteMap(
        data["name"], entries=entries,
        default_permit=data.get("default_permit", False),
    )
