"""A from-scratch BGP-4 implementation (RFC 4271).

This is the "base BGP program" TENSOR builds on: wire-format message
encoding/decoding for all five message types, path attributes, the
session FSM, Adj-RIB-In / Loc-RIB / Adj-RIB-Out, the decision process,
routing policy, VRFs (§3.1.2 uses one VRF per peering AS), and update
packing (§4.2).  BGP messages stream as real bytes over the simulated TCP,
so the cumulative byte counts that TENSOR's ACK-number inference relies on
are genuine.
"""

from repro.bgp.prefixes import Prefix
from repro.bgp.attributes import (
    AsPath,
    Origin,
    PathAttributes,
)
from repro.bgp.messages import (
    BGP_PORT,
    KeepaliveMessage,
    MessageDecoder,
    NotificationMessage,
    OpenMessage,
    RouteRefreshMessage,
    UpdateMessage,
)
from repro.bgp.errors import BgpError, NotificationCode
from repro.bgp.rib import AdjRibIn, AdjRibOut, LocRib, Path, Route
from repro.bgp.decision import best_path
from repro.bgp.policy import PolicyAction, RouteMap, RouteMapEntry
from repro.bgp.vrf import Vrf
from repro.bgp.peer import PeerConfig, PeerSession
from repro.bgp.speaker import BgpSpeaker, SpeakerConfig

__all__ = [
    "Prefix",
    "AsPath",
    "Origin",
    "PathAttributes",
    "BGP_PORT",
    "MessageDecoder",
    "OpenMessage",
    "UpdateMessage",
    "NotificationMessage",
    "KeepaliveMessage",
    "RouteRefreshMessage",
    "BgpError",
    "NotificationCode",
    "Path",
    "Route",
    "AdjRibIn",
    "LocRib",
    "AdjRibOut",
    "best_path",
    "RouteMap",
    "RouteMapEntry",
    "PolicyAction",
    "Vrf",
    "PeerConfig",
    "PeerSession",
    "BgpSpeaker",
    "SpeakerConfig",
]
