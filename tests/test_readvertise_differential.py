"""Table and change exports against the per-route reference (DESIGN.md §14).

``BgpSpeaker._plan`` is the speaker's one export planner.  Under a
policy that cannot tell prefixes apart it exports per *path*: it walks
the routes once, exports each (path, address family) on first sight and
appends every later route of that path to its shared group
(:func:`repro.bgp.packing.group_paths`).  :func:`reference_updates` is
the plan route by route: every best route the session may hear,
exported one at a time, grouped by :func:`repro.bgp.packing.group_routes`
and turned into UPDATEs — the IPv6 groups first, each cut into the
longest runs that fit one message, then the IPv4 groups, packed, or one
route per UPDATE without update packing.  The two must send the same
UPDATEs, message by message — attributes, NLRI bytes and order — through
both entry points: ``readvertise``, which skips the session's own
routes, and ``advertise_routes_to_sessions`` handed the same table as
``(prefix, path)`` pairs, which does not.  The table holds every case
the grouping distinguishes: two paths from different peers whose
different attribute objects export to one set, interleaved; IPv4 and
IPv6 under one path; an IPv6 group over the message size limit; a path
the export policy denies; the session's own routes; contested prefixes;
and a prefix-dependent policy, which takes the per-route plan.
"""

import pytest

from repro.bgp import BgpSpeaker, PeerConfig, SpeakerConfig
from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import HEADER_SIZE, MAX_MESSAGE_SIZE, UpdateMessage
from repro.bgp.multiprotocol import attach_mp_reach, mp_routes_of
from repro.bgp.packing import group_paths, group_routes, pack_group
from repro.bgp.policy import PrefixList, RouteMap, RouteMapEntry
from repro.bgp.prefixes import AFI_IPV4, AFI_IPV6, prefix_key
from repro.bgp.rib import Path
from repro.sim.rand import DeterministicRandom
from repro.tcpsim import TcpStack

LOCAL_AS = 65001
PEERS = {  # remote address -> remote AS; the first three supply routes
    "10.0.0.2": 64512,
    "10.0.0.3": 64513,
    "10.0.0.4": LOCAL_AS,  # iBGP
    "10.0.0.5": 64514,
}
DENIED = 65001 << 16 | 666  # the community the "deny-one-path" policy drops


def _attrs(first_as, local_pref, communities=(), next_hop="10.0.0.9"):
    return PathAttributes(as_path=AsPath.sequence(first_as, 64600),
                          next_hop=next_hop, local_pref=local_pref,
                          communities=communities)


def _v4(index):
    return prefix_key((10 << 24) + (index << 8), 24)


def _v6(index):
    return prefix_key((0x20010DB8 << 96) + (index << 80), 48, AFI_IPV6)


def _speaker(engine, two_hosts, packing=True):
    speaker = BgpSpeaker(engine, TcpStack(engine, two_hosts[0]),
                         SpeakerConfig("gw", LOCAL_AS, "10.0.0.1",
                                       profile="frr" if packing else "gobgp"))
    for address, remote_as in PEERS.items():
        speaker.add_peer(PeerConfig(address, remote_as), autostart=False)
    return speaker


def _load(speaker):
    """The table, in an order that interleaves every kind of path."""
    offer = speaker.vrfs["default"].loc_rib.offer
    a, b, c = (f"default:{address}" for address in list(PEERS)[:3])
    # Two peers, two attribute objects that differ in LOCAL_PREF and
    # NEXT_HOP: equal once an eBGP export drops the one, sets the other
    # and prepends our AS.
    from_a = Path(_attrs(64512, 100), a)
    from_b = Path(_attrs(64512, 200, next_hop=None), b)
    denied = Path(_attrs(64512, 100, communities=(DENIED,)), a)
    internal = Path(_attrs(64700, 120), c, "ibgp")
    for index in range(6_000):
        offer(_v4(index), (from_a, from_b, from_a, denied, internal)[index % 5])
        if index % 30 == 0:
            offer(_v6(index), from_a)  # v6 under the path v4 routes use
    rivals = [Path(_attrs(64513, local_pref), b) for local_pref in (50, 150)]
    for index in range(0, 6_000, 7):  # contested: B's rival wins at 150
        offer(_v4(index), rivals[index % 2])
    offer(_v6(6_001), from_b)
    # 700 /48s under one local path: one MP_REACH_NLRI cannot hold them.
    local = Path(_attrs(64515, 100), speaker.local_peer_id, "local")
    for index in range(7_000, 7_700):
        offer(_v6(index), local)


def _mp_update(attributes, next_hop, prefixes):
    return UpdateMessage(attributes=attach_mp_reach(attributes, next_hop,
                                                    prefixes))


def _mp_updates(attributes, next_hop, prefixes):
    """``prefixes`` in MP_REACH UPDATEs, each the longest run of the
    rest whose encoding fits one message."""
    messages = []
    while prefixes:
        fit, unfit = 1, len(prefixes) + 1  # the longest run is in [fit, unfit)
        while unfit - fit > 1:
            middle = (fit + unfit) // 2
            size = HEADER_SIZE + 4 + len(_mp_update(
                attributes, next_hop, prefixes[:middle]).attributes.to_wire())
            if size <= MAX_MESSAGE_SIZE:
                fit = middle
            else:
                unfit = middle
        messages.append(_mp_update(attributes, next_hop, prefixes[:fit]))
        prefixes = prefixes[fit:]
    return messages


def reference_updates(speaker, session, packing=True, own=None):
    """The per-route export: each best route not supplied by ``own``,
    exported on its own (policy, then the eBGP or iBGP attribute rules),
    grouped by :func:`group_routes` — the IPv6 groups' MP_REACH UPDATEs
    first, then the IPv4 groups' UPDATEs, packed or one per route."""
    policy = session.config.export_policy
    next_hop = speaker.stack.host.address
    exported = []
    for prefix, path in speaker.vrfs["default"].loc_rib.items():
        if path.peer_id == own:
            continue
        attributes = policy.evaluate(prefix, path.attributes)
        if attributes is None:
            continue
        if session.source_kind == "ebgp":
            attributes = attributes.replace(
                as_path=attributes.as_path.prepend(LOCAL_AS),
                next_hop=next_hop, local_pref=None)
        elif attributes.next_hop is None:
            attributes = attributes.replace(next_hop=next_hop)
        exported.append((prefix, attributes))
    groups = group_routes(exported)
    messages = [
        message
        for afi, attributes, prefixes in groups if afi == AFI_IPV6
        for message in _mp_updates(attributes, speaker._next_hop_v6(),
                                   prefixes)
    ]
    for afi, attributes, prefixes in groups:
        if afi == AFI_IPV4:
            messages.extend(
                pack_group(attributes, prefixes) if packing else
                [UpdateMessage(attributes=attributes, nlri=[prefix])
                 for prefix in prefixes])
    return messages


class _Counting(RouteMap):
    """A route map that remembers the prefix of every evaluation."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def evaluate(self, prefix, attributes):
        self.calls.append(prefix)
        return super().evaluate(prefix, attributes)


class _DenyCommunity(_Counting):
    """Denies the routes that carry ``DENIED``, whatever their prefix."""

    def evaluate(self, prefix, attributes):
        self.calls.append(prefix)
        return None if DENIED in attributes.communities else attributes


POLICIES = {
    "permit-all": lambda: _Counting("all", default_permit=True),
    "deny-one-path": lambda: _DenyCommunity("deny"),
    "prefix-dependent": lambda: _Counting("pl", [
        RouteMapEntry(permit=False, match_prefix_list=PrefixList(
            "some", [_v4(index) for index in range(0, 6_000, 11)])),
    ], default_permit=True),
}


def _wire(message):
    return (message.attributes.to_wire(), message.nlri_wire,
            message.to_wire())


def _readvertise(speaker, session):
    speaker.readvertise(session)
    return session.peer_id


def _fan_out(speaker, session):
    speaker.advertise_routes_to_sessions(
        list(speaker.vrfs["default"].loc_rib.items()), [session])
    return None


#: Each sends the table and returns the peer whose routes it skipped.
ENTRY_POINTS = {"readvertise": _readvertise, "fan-out": _fan_out}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("packing", [True, False],
                         ids=["packed", "unpacked"])
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("address", sorted(PEERS))
def test_readvertise_sends_the_per_route_updates(engine, two_hosts, address,
                                                 policy, packing, entry):
    speaker = _speaker(engine, two_hosts, packing)
    _load(speaker)
    session = speaker.sessions[f"default:{address}"]
    session.config.export_policy = POLICIES[policy]()
    sent = []
    speaker.dispatch_send = lambda session, message, generation_cost=None: (
        sent.append(message))
    own = ENTRY_POINTS[entry](speaker, session)
    calls = list(session.config.export_policy.calls)
    expected = [_wire(message) for message in
                reference_updates(speaker, session, packing, own)]
    assert [_wire(message) for message in sent] == expected
    assert len(expected) > len({wire[0] for wire in expected})  # cut groups
    assert set(session.adj_rib_out.prefixes()) == {
        prefix for message in sent
        for prefix in (message.nlri or mp_routes_of(message.attributes)[0].nlri)}
    if policy == "prefix-dependent":
        # The per-route plan: one verdict per route the session may hear.
        assert len(calls) == sum(
            path.peer_id != own
            for _prefix, path in speaker.vrfs["default"].loc_rib.items())
    else:
        # The per-path plan: one verdict per (path, family) on first sight.
        assert calls and set(calls) == {None} and len(calls) <= 10


def test_group_paths_is_group_routes_of_the_exported_pairs():
    """Random tables: many paths over few attribute sets, some shared
    by several paths, some skipped; the two groupings agree on groups,
    their order, their members and the object each group carries."""
    rng = DeterministicRandom(7).stream("group-paths")
    for _round in range(20):
        pool = [_attrs(64512 + index % 3, 100) for index in range(5)]
        pool[3] = PathAttributes(**{  # equal to pool[0], another object
            name: getattr(pool[0], name) for name in (
                "as_path", "next_hop", "local_pref", "communities")})
        paths = [Path(rng.choice(pool), f"peer{index % 4}")
                 for index in range(12)]
        table = {}
        for index in range(400):
            key = (_v4(rng.randrange(2_000)) if rng.random() < 0.7
                   else _v6(rng.randrange(2_000)))
            table[key] = rng.choice(paths)

        def export(path):
            return None if path.peer_id == "peer3" else path.attributes

        survivors = [(prefix, export(path)) for prefix, path in table.items()
                     if export(path) is not None]
        got = group_paths(table.items(), export)
        want = group_routes(survivors)
        assert [(afi, members) for afi, _attributes, members in got] == [
            (afi, members) for afi, _attributes, members in want]
        assert all(mine is theirs for (_, mine, _), (_, theirs, _)
                   in zip(got, want))
