"""Routing policy: prefix lists, route maps, actions."""

from repro.bgp import PathAttributes, PolicyAction, Prefix, RouteMap, RouteMapEntry
from repro.bgp.attributes import AsPath
from repro.bgp.policy import PERMIT_ALL, PrefixList

P_IN = Prefix.parse("10.1.0.0/16")
P_OUT = Prefix.parse("172.16.0.0/12")
ATTRS = PathAttributes(as_path=AsPath.sequence(65001), next_hop="1.1.1.1",
                       communities=(100,))


def test_prefix_list_matches_covered():
    plist = PrefixList("p", [Prefix.parse("10.0.0.0/8")])
    assert plist.matches(P_IN)
    assert not plist.matches(P_OUT)


def test_permit_all_passes_unchanged():
    assert PERMIT_ALL.evaluate(P_IN, ATTRS) is ATTRS


def test_implicit_deny():
    rmap = RouteMap("empty")
    assert rmap.evaluate(P_IN, ATTRS) is None


def test_deny_entry():
    rmap = RouteMap("m", [
        RouteMapEntry(permit=False,
                      match_prefix_list=PrefixList("p", [Prefix.parse("10.0.0.0/8")])),
        RouteMapEntry(permit=True),
    ])
    assert rmap.evaluate(P_IN, ATTRS) is None
    assert rmap.evaluate(P_OUT, ATTRS) == ATTRS


def test_set_local_pref_action():
    rmap = RouteMap("m", [RouteMapEntry(action=PolicyAction(set_local_pref=300))])
    out = rmap.evaluate(P_IN, ATTRS)
    assert out.local_pref == 300
    assert ATTRS.local_pref is None  # original untouched


def test_prepend_action():
    rmap = RouteMap("m", [
        RouteMapEntry(action=PolicyAction(prepend_as=65009, prepend_count=3))
    ])
    out = rmap.evaluate(P_IN, ATTRS)
    assert out.as_path.as_list() == [65009, 65009, 65009, 65001]


def test_add_communities_merges_sorted():
    rmap = RouteMap("m", [
        RouteMapEntry(action=PolicyAction(add_communities=(50, 100)))
    ])
    out = rmap.evaluate(P_IN, ATTRS)
    assert out.communities == (50, 100)


def test_set_med_and_next_hop():
    rmap = RouteMap("m", [
        RouteMapEntry(action=PolicyAction(set_med=5, set_next_hop="9.9.9.9"))
    ])
    out = rmap.evaluate(P_IN, ATTRS)
    assert out.med == 5 and out.next_hop == "9.9.9.9"


def test_match_community():
    rmap = RouteMap("m", [
        RouteMapEntry(match_community=100, action=PolicyAction(set_local_pref=999)),
        RouteMapEntry(permit=True),
    ])
    assert rmap.evaluate(P_IN, ATTRS).local_pref == 999
    other = ATTRS.replace(communities=())
    assert rmap.evaluate(P_IN, other).local_pref is None


def test_match_as_in_path():
    rmap = RouteMap("m", [
        RouteMapEntry(match_as=65001, permit=False),
        RouteMapEntry(permit=True),
    ])
    assert rmap.evaluate(P_IN, ATTRS) is None
    other = ATTRS.replace(as_path=AsPath.sequence(65002))
    assert rmap.evaluate(P_IN, other) is other


def test_first_match_wins_ordering():
    rmap = RouteMap("m", [
        RouteMapEntry(action=PolicyAction(set_local_pref=1)),
        RouteMapEntry(action=PolicyAction(set_local_pref=2)),
    ])
    assert rmap.evaluate(P_IN, ATTRS).local_pref == 1


def test_default_permit_route_map():
    rmap = RouteMap("m", [], default_permit=True)
    assert rmap.evaluate(P_IN, ATTRS) is ATTRS


def test_combined_match_conditions_all_required():
    entry = RouteMapEntry(
        match_prefix_list=PrefixList("p", [Prefix.parse("10.0.0.0/8")]),
        match_community=100,
    )
    assert entry.matches(P_IN, ATTRS)
    assert not entry.matches(P_OUT, ATTRS)
    assert not entry.matches(P_IN, ATTRS.replace(communities=()))
