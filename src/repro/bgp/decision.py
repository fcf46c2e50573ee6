"""The BGP decision process (RFC 4271 §9.1 tie-breaking).

Deterministic and order-independent: given the same candidate set in any
order, the same route wins (property-tested in
tests/test_bgp_rib_decision.py).
"""

DEFAULT_LOCAL_PREF = 100

_SOURCE_RANK = {"ebgp": 0, "local": 0, "ibgp": 1}


def _peer_tiebreak_key(route):
    """Final deterministic tie-break: lowest peer identifier."""
    return str(route.peer_id)


def med_group(route):
    """MED comparison group: the neighboring (first) AS.

    RFC 4271 §9.1.2.2 c) compares MED only between routes learned from
    the same neighboring AS; ``None`` (empty AS path, locally
    originated) never participates in a MED comparison.
    """
    return route.attributes.as_path.first_as()


def best_path(candidates):
    """Select the best route from ``candidates`` (non-empty list).

    Pairwise preference is *not transitive* once MED is in play — MED
    compares only inside a neighboring-AS group, so a route can lose to
    a same-group rival on MED while beating the cross-group incumbent
    on a later step — and a bare linear scan over such a comparator is
    order-dependent.  Selection is therefore deterministic-MED: the
    best route of each neighboring-AS group is chosen first (MED
    applies inside a group, where :func:`prefer` is a total order),
    then the group winners are compared with the MED step inert (it
    never matches across groups, so that pass is a total order too).
    The result is independent of candidate order.
    """
    if not candidates:
        return None
    groups = {}
    finalists = []
    for route in candidates:
        group = med_group(route)
        if group is None:
            finalists.append(route)
        else:
            groups.setdefault(group, []).append(route)
    for members in groups.values():
        finalists.append(_scan(members))
    return _scan(finalists)


def _scan(candidates):
    best = candidates[0]
    for challenger in candidates[1:]:
        if prefer(challenger, best):
            best = challenger
    return best


def med_group_shared(candidates, route):
    """True when another of ``candidates`` sits in ``route``'s MED group
    (:func:`med_group`, inlined here and below: these run per candidate)."""
    group = route.attributes.as_path.first_as()
    if group is None:
        return False
    for other in candidates:
        if other is not route and other.attributes.as_path.first_as() == group:
            return True
    return False


def evicts_group_winner(candidates, departed):
    """True when ``departed`` (no longer among ``candidates``) was the
    winner of a MED group that is still populated — its eviction
    promotes a weaker-in-group route into the finalists, which the
    MED-blind pass may rank above the incumbent best."""
    group = departed.attributes.as_path.first_as()
    if group is None:
        return False
    populated = False
    for other in candidates:
        if other.attributes.as_path.first_as() == group:
            if prefer(other, departed):
                return False
            populated = True
    return populated


def prefer(a, b):
    """True when route ``a`` beats route ``b`` pairwise.

    Also the Loc-RIB's incremental re-selection step, where it is only
    decisive when the challenger shares no MED group with another
    candidate for the prefix (:func:`med_group_shared`) — the Loc-RIB
    falls back to a full :func:`best_path` re-scan otherwise, because a
    same-group rival can displace a group winner without beating the
    incumbent pairwise.
    """
    attrs_a, attrs_b = a.attributes, b.attributes
    # 1. Highest LOCAL_PREF.
    lp_a = attrs_a.local_pref if attrs_a.local_pref is not None else DEFAULT_LOCAL_PREF
    lp_b = attrs_b.local_pref if attrs_b.local_pref is not None else DEFAULT_LOCAL_PREF
    if lp_a != lp_b:
        return lp_a > lp_b
    # 2. Shortest AS_PATH.
    path_a, path_b = attrs_a.as_path, attrs_b.as_path
    len_a = path_a.path_length()
    len_b = path_b.path_length()
    if len_a != len_b:
        return len_a < len_b
    # 3. Lowest ORIGIN (IGP < EGP < INCOMPLETE).
    if attrs_a.origin != attrs_b.origin:
        return attrs_a.origin < attrs_b.origin
    # 4. Lowest MED, compared only between routes from the same first AS.
    first_a = path_a.first_as()
    if first_a is not None and first_a == path_b.first_as():
        med_a = attrs_a.med if attrs_a.med is not None else 0
        med_b = attrs_b.med if attrs_b.med is not None else 0
        if med_a != med_b:
            return med_a < med_b
    # 5. eBGP over iBGP.
    rank_a, rank_b = _SOURCE_RANK[a.source_kind], _SOURCE_RANK[b.source_kind]
    if rank_a != rank_b:
        return rank_a < rank_b
    # 6. Deterministic peer tie-break (stands in for router-ID comparison;
    #    peer identifiers embed the peer address).
    return _peer_tiebreak_key(a) < _peer_tiebreak_key(b)
