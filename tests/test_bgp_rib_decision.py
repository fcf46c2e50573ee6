"""RIBs and the decision process, including order-independence properties."""

import pytest
from hypothesis import given, strategies as st

from repro.bgp import AdjRibIn, AsPath, LocRib, Origin, PathAttributes, Prefix
from repro.bgp.aggregation import expand_snapshot_paths
from repro.bgp.decision import best_path
from repro.bgp.rib import Path, Route
from repro.sim.rand import DeterministicRandom

P1 = Prefix.parse("10.0.0.0/8")
P2 = Prefix.parse("192.0.2.0/24")


def _path(peer, local_pref=None, path=(65001,), origin=Origin.IGP, med=None,
          source_kind="ebgp"):
    return Path(
        PathAttributes(
            origin=origin,
            as_path=AsPath.sequence(*path),
            next_hop="1.1.1.1",
            local_pref=local_pref,
            med=med,
        ),
        peer,
        source_kind,
    )


# -- Adj-RIB-In ---------------------------------------------------------------


def test_adj_rib_in_update_and_withdraw():
    rib = AdjRibIn("peer1")
    path = _path("peer1")
    rib.store(P1, path)
    assert rib.get(P1) is path
    replacement = _path("peer1", local_pref=50)
    rib.store(P1, replacement)
    assert list(rib.items()) == [(P1, replacement)]
    assert rib.withdraw(P1) is replacement
    assert rib.withdraw(P1) is None
    assert len(rib) == 0


def test_adj_rib_in_clear_returns_prefixes():
    rib = AdjRibIn("p")
    shared = _path("p")
    rib.store(P1, shared)
    rib.store(P2, shared)
    assert set(rib.clear()) == {P1, P2}


# -- decision process ---------------------------------------------------------


def test_higher_local_pref_wins():
    low = _path("a", local_pref=100)
    high = _path("b", local_pref=200)
    assert best_path([low, high]) is high


def test_missing_local_pref_defaults_100():
    default = _path("a")
    lower = _path("b", local_pref=50)
    assert best_path([default, lower]) is default


def test_shorter_as_path_wins():
    short = _path("a", path=(65001,))
    long = _path("b", path=(65001, 65002, 65003))
    assert best_path([long, short]) is short


def test_lower_origin_wins():
    igp = _path("a", origin=Origin.IGP)
    incomplete = _path("b", origin=Origin.INCOMPLETE)
    assert best_path([incomplete, igp]) is igp


def test_med_compared_within_same_first_as():
    low_med = _path("a", path=(65001,), med=10)
    high_med = _path("b", path=(65001,), med=50)
    assert best_path([high_med, low_med]) is low_med


def test_med_ignored_across_different_as():
    a = _path("a", path=(65001,), med=50)
    b = _path("b", path=(65002,), med=10)
    # MED skipped; falls to peer tie-break ("a" < "b")
    assert best_path([a, b]) is a


def test_med_cycle_is_order_independent():
    """Regression: pairwise preference cycles once MED is in play.

    a beats b (eBGP over iBGP), b beats c (peer tie-break), c beats a
    (same-AS MED) — a bare linear scan picked a different winner per
    candidate order.  Deterministic-MED selection first settles each
    neighboring-AS group (c evicts a on MED), then compares group
    winners MED-blind: b wins, whatever the order.
    """
    import itertools

    a = _path("a", path=(65001,), med=10, source_kind="ebgp")
    b = _path("b", path=(65002,), med=99, source_kind="ibgp")
    c = _path("c", path=(65001,), med=5, source_kind="ibgp")
    for order in itertools.permutations([a, b, c]):
        assert best_path(list(order)) is b, [r.peer_id for r in order]


def test_loc_rib_incremental_matches_med_semantics():
    """The Loc-RIB's incremental offer/retract paths agree with
    deterministic-MED best_path even when a challenger or a retracted
    route shares a MED group with other candidates."""
    import itertools

    routes = {
        "a": _path("a", path=(65001,), med=10, source_kind="ebgp"),
        "b": _path("b", path=(65002,), med=99, source_kind="ibgp"),
        "c": _path("c", path=(65001,), med=5, source_kind="ibgp"),
    }
    for order in itertools.permutations(routes):
        rib = LocRib()
        for peer in order:
            rib.offer(P1, routes[peer])
        assert rib.best(P1).peer_id == "b", order
        # evicting the MED-group winner restores the eBGP route as a
        # finalist, which then beats b — a non-best retract that must
        # still re-run selection
        rib.retract(P1, "c")
        assert rib.best(P1).peer_id == "a", order


def test_ebgp_beats_ibgp():
    ebgp = _path("z-ebgp", source_kind="ebgp")
    ibgp = _path("a-ibgp", source_kind="ibgp")
    assert best_path([ibgp, ebgp]) is ebgp


def test_deterministic_peer_tiebreak():
    a = _path("peer-a")
    b = _path("peer-b")
    assert best_path([b, a]) is a


def test_empty_candidates_returns_none():
    assert best_path([]) is None


# -- Loc-RIB ------------------------------------------------------------------


def test_loc_rib_offer_and_best():
    rib = LocRib()
    old, new = rib.offer(P1, _path("a", local_pref=100))
    assert old is None and new.peer_id == "a"
    old, new = rib.offer(P1, _path("b", local_pref=200))
    assert old.peer_id == "a" and new.peer_id == "b"
    assert rib.best(P1).peer_id == "b"
    assert len(rib) == 1


def test_reoffering_the_best_path_object_is_a_change():
    """``offer``'s identity contract: ``old is new`` means the selection
    did not change.  Re-storing the very object that is already best —
    one shared path, as for a prefix repeated in one NLRI block — is a
    re-announce, reported as ``(None, path)``; re-storing a losing path
    changes nothing."""
    rib = LocRib()
    path = _path("a")
    assert rib.offer(P1, path) == (None, path)
    old, new = rib.offer(P1, path)
    assert old is None and new is path
    rival = _path("b", local_pref=50)
    old, new = rib.offer(P1, rival)
    assert old is new is path
    old, new = rib.offer(P1, rival)
    assert old is new is path
    old, new = rib.offer(P1, path)
    assert old is None and new is path
    assert rib.best(P1) is path and rib.candidates(P1) == {"a": path,
                                                           "b": rival}


def test_loc_rib_retract_falls_back():
    rib = LocRib()
    rib.offer(P1, _path("a", local_pref=100))
    rib.offer(P1, _path("b", local_pref=200))
    old, new = rib.retract(P1, "b")
    assert old.peer_id == "b" and new.peer_id == "a"
    old, new = rib.retract(P1, "a")
    assert new is None
    assert len(rib) == 0


def test_loc_rib_retract_unknown_is_noop():
    rib = LocRib()
    rib.offer(P1, _path("a"))
    old, new = rib.retract(P1, "nobody")
    assert old is new


def test_loc_rib_candidates_view():
    rib = LocRib()
    rib.offer(P1, _path("a"))
    rib.offer(P1, _path("b"))
    assert set(rib.candidates(P1)) == {"a", "b"}


def test_loc_rib_export_import_roundtrip():
    rib = LocRib(local_as=65001, router_id=7)
    rib.offer(P1, _path("a", local_pref=100))
    rib.offer(P1, _path("b", local_pref=200))
    rib.offer(P2, _path("a"))
    # recovery's path: records decoded into paths, offered to a new table
    rebuilt = LocRib(local_as=65001, router_id=7)
    for prefix, path in expand_snapshot_paths(rib.export_entries()):
        rebuilt.offer(prefix, path)
    assert len(rebuilt) == len(rib)
    assert rebuilt.best(P1).peer_id == rib.best(P1).peer_id
    assert set(rebuilt.candidates(P1)) == set(rib.candidates(P1))


def test_route_hashable_by_value():
    a = _path("a").at(P1)
    b = _path("a").at(P1)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1  # value-equal routes collapse in a set
    assert len({a, b, _path("c").at(P1)}) == 2


def test_decision_runs_counts_offer_selections():
    rib = LocRib()
    rib.offer(P1, _path("a", local_pref=100))
    assert rib.decision_runs == 0  # first candidate: trivial adoption
    rib.offer(P1, _path("a", local_pref=150))
    assert rib.decision_runs == 0  # lone-candidate replacement: trivial
    rib.offer(P1, _path("b", local_pref=200))
    assert rib.decision_runs == 1  # challenger vs incumbent comparison
    rib.offer(P1, _path("b", local_pref=50))
    assert rib.decision_runs == 2  # best's own peer replaced: full re-scan


def test_decision_runs_counts_retract_selections():
    rib = LocRib()
    rib.offer(P1, _path("a", local_pref=100))
    rib.offer(P1, _path("b", local_pref=200))
    runs = rib.decision_runs
    rib.retract(P1, "nobody")
    assert rib.decision_runs == runs  # no-op retract: nothing to select
    rib.retract(P1, "a")
    assert rib.decision_runs == runs  # non-best retract: best untouched
    rib.retract(P1, "b")
    assert rib.decision_runs == runs  # last candidate gone: no selection
    rib.offer(P1, _path("a", local_pref=100))
    rib.offer(P1, _path("b", local_pref=200))
    runs = rib.decision_runs
    rib.retract(P1, "b")
    assert rib.decision_runs == runs + 1  # best lost: full re-scan


def test_incremental_reselect_matches_full_rescan_10k():
    """Randomized equivalence of the incremental Loc-RIB and a naive
    shadow that re-runs :func:`best_path` from scratch after every
    operation: 10K offers/retracts, byte-identical exports at the end."""

    rng = DeterministicRandom(20230817).stream("ops")
    prefixes = [Prefix(i << 12, 20) for i in range(400)]
    peers = [f"peer{i}" for i in range(8)]
    rib = LocRib()
    shadow = {}  # prefix -> {peer: Path}, mutated in the same order
    for _step in range(10_000):
        prefix = rng.choice(prefixes)
        peer = rng.choice(peers)
        if rng.random() < 0.3:
            rib.retract(prefix, peer)
            table = shadow.get(prefix)
            if table:
                table.pop(peer, None)
                if not table:
                    del shadow[prefix]
        else:
            path = _path(
                peer,
                local_pref=rng.choice((None, 50, 100, 200)),
                path=tuple(rng.sample(range(64500, 64600), rng.randint(1, 4))),
                med=rng.choice((None, 0, 10)),
                source_kind=rng.choice(("ebgp", "ibgp")),
            )
            rib.offer(prefix, path)
            shadow.setdefault(prefix, {})[peer] = path
    # Byte-identical export: every candidate path, same order, same wire.
    expected_entries = []
    for prefix in sorted(shadow):
        expected_entries.extend(
            {
                "prefix": str(prefix),
                "peer_id": peer,
                "source_kind": path.source_kind,
                "attributes": path.attributes.to_wire(),
            }
            for peer, path in sorted(shadow[prefix].items(), key=lambda kv: str(kv[0]))
        )
    assert rib.export_entries() == expected_entries
    # And the incrementally-maintained best equals a full re-scan.
    for prefix, table in shadow.items():
        expected = best_path(list(table.values()))
        assert rib.best(prefix).peer_id == expected.peer_id


# -- properties ---------------------------------------------------------------


@st.composite
def route_strategy(draw, peer_pool=("a", "b", "c", "d", "e")):
    return _path(
        draw(st.sampled_from(peer_pool)),
        local_pref=draw(st.one_of(st.none(), st.integers(0, 500))),
        path=tuple(draw(st.lists(st.integers(1, 2**16), min_size=1, max_size=5))),
        origin=Origin(draw(st.integers(0, 2))),
        med=draw(st.one_of(st.none(), st.integers(0, 100))),
        source_kind=draw(st.sampled_from(("ebgp", "ibgp"))),
    )


@given(routes=st.lists(route_strategy(), min_size=1, max_size=8),
       seed=st.randoms())
def test_decision_order_independent(routes, seed):
    """The winner is the same whatever order candidates are considered.

    Candidate sets are per-peer unique in a real Loc-RIB (a dict keyed by
    peer), so duplicate-peer routes are collapsed to the last one first.
    """
    by_peer = {route.peer_id: route for route in routes}
    unique = list(by_peer.values())
    shuffled = list(unique)
    seed.shuffle(shuffled)
    a = best_path(unique)
    b = best_path(shuffled)
    assert (a.peer_id, a.attributes.key()) == (b.peer_id, b.attributes.key())


@given(routes=st.lists(route_strategy(), min_size=1, max_size=8))
def test_loc_rib_matches_direct_selection(routes):
    """Incremental offer() converges to the same best as one-shot selection."""
    rib = LocRib()
    for route in routes:
        rib.offer(P1, route)
    last_by_peer = {}
    for route in routes:
        last_by_peer[route.peer_id] = route
    expected = best_path(list(last_by_peer.values()))
    assert rib.best(P1).peer_id == expected.peer_id
