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
    assert ATTRS.communities == (100,)  # original untouched


def test_first_match_wins_ordering():
    rmap = RouteMap("m", [
        RouteMapEntry(action=PolicyAction(add_communities=(1,))),
        RouteMapEntry(action=PolicyAction(add_communities=(2,))),
    ])
    assert rmap.evaluate(P_IN, ATTRS).communities == (1, 100)


def test_default_permit_route_map():
    rmap = RouteMap("m", [], default_permit=True)
    assert rmap.evaluate(P_IN, ATTRS) is ATTRS
