"""Spec validation and system construction.

Example spec::

    {
      "seed": 7,
      "hook_technology": "netfilter",          # or "ebpf"
      "remote_db": {"latency": 0.005, "mode": "async"},   # optional
      "tracing": false, "controller_replicas": 1,          # optional
      "machines": [
        {"name": "gw-1", "address": "10.1.0.1"},
        {"name": "gw-2", "address": "10.2.0.1"}
      ],
      "pairs": [
        {
          "name": "pair0",
          "primary": "gw-1", "backup": "gw-2",
          "service_addr": "10.10.0.1",
          "local_as": 65001, "router_id": "10.10.0.1",
          "config_entries": 100,
          "neighbors": [
            {"remote_addr": "192.0.2.1", "remote_as": 64512,
             "vrf": "v0", "mode": "passive"}
          ]
        }
      ],
      "remotes": [                                # optional lab peers
        {"name": "remote0", "address": "192.0.2.1", "asn": 64512,
         "links": ["gw-1", "gw-2"],
         "peer": {"gateway": "10.10.0.1", "gateway_as": 65001, "vrf": "v0"}}
      ]
    }

Optional keys and their defaults are the ``*_DEFAULTS`` tables below
(a route-map block's are :mod:`repro.bgp.policy`'s); a key that is
neither required nor in its block's table is rejected, since nothing
would read it.
"""

from repro.bgp.policy import ENTRY_DEFAULTS, POLICY_DEFAULTS, policy_from_dict
from repro.bgp.prefixes import parse_prefix
from repro.bgp.speaker import MRAI_MODES
from repro.core.system import PeerNeighborSpec, TensorSystem
from repro.workloads.topology import build_remote_peer

#: The largest AS number a 4-octet AS field carries (RFC 6793).
MAX_ASN = 2**32 - 1

#: Top-level keys: exactly the parameters of :class:`TensorSystem`.
SYSTEM_DEFAULTS = {
    "seed": 0, "hold_acks": True, "hook_technology": "netfilter",
    "remote_db": None, "tracing": False, "controller_replicas": 1,
}
PAIR_DEFAULTS = {
    "config_entries": 100, "mrai": None,
    "mrai_mode": "per_speaker", "aggregate_snapshots": False,
}
NEIGHBOR_DEFAULTS = {
    "vrf": "default", "mode": "passive", "hold_time": 90,
    "keepalive_interval": 30, "bfd_tx_interval": None,
    "bfd_detect_mult": None, "mrai": None, "import_policy": None,
    "export_policy": None,
}
#: A remote's ``peer`` block: its session towards the gateway.
PEER_DEFAULTS = {
    "vrf": "default", "mode": "active", "hold_time": 90,
    "keepalive_interval": 30,
}


def non_default(defaults, **values):
    """The ``values`` a spec has to spell out: those that differ from
    ``defaults``.  Two specs built this way compare equal exactly when
    they build the same deployment."""
    return {key: value for key, value in values.items()
            if value != defaults[key]}


def lab_spec(seed, neighbors=1, shared_vrf=False):
    """The standard lab as a plain dict: machines gw-1/gw-2, ``pair0`` at
    10.10.0.1 (AS 65001), and ``remote{i}`` at 192.0.2.{i+1} (AS
    64512+i) linked to both machines, in VRF ``v{i}`` — or all in ``v0``
    with ``shared_vrf``.  Override fields with ``{**lab_spec(...), ...}``.
    """
    vrfs = ["v0" if shared_vrf else f"v{i}" for i in range(neighbors)]
    return {
        "seed": seed,
        "machines": [
            {"name": "gw-1", "address": "10.1.0.1"},
            {"name": "gw-2", "address": "10.2.0.1"},
        ],
        "pairs": [{
            "name": "pair0", "primary": "gw-1", "backup": "gw-2",
            "service_addr": "10.10.0.1", "local_as": 65001,
            "router_id": "10.10.0.1",
            "neighbors": [
                {"remote_addr": f"192.0.2.{i + 1}", "remote_as": 64512 + i,
                 "vrf": vrf}
                for i, vrf in enumerate(vrfs)
            ],
        }],
        "remotes": [
            {"name": f"remote{i}", "address": f"192.0.2.{i + 1}",
             "asn": 64512 + i, "links": ["gw-1", "gw-2"],
             "peer": {"gateway": "10.10.0.1", "gateway_as": 65001,
                      "vrf": vrf}}
            for i, vrf in enumerate(vrfs)
        ],
    }


class ConfigError(ValueError):
    """A malformed deployment spec, with a path to the offending field."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(mapping, key, path, types=None):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}", "missing required field")
    value = mapping[key]
    if types is not None and not isinstance(value, types):
        raise ConfigError(
            f"{path}.{key}",
            f"expected {getattr(types, '__name__', types)}, got {type(value).__name__}",
        )
    return value


def _mapping(value, path):
    """Reject a ``value`` that is not an object (a dict)."""
    if not isinstance(value, dict):
        raise ConfigError(path,
                          f"must be an object, got {type(value).__name__}")


def _known(mapping, path, required, optional):
    """Reject a key of block ``mapping`` that nothing reads: one neither
    ``required`` nor ``optional`` (the block's ``*_DEFAULTS`` table)."""
    for key in mapping:
        if key not in required and key not in optional:
            raise ConfigError(path, f"unknown key {key!r}")


def _optional(mapping, key, path, types, what):
    """An optional value of ``types``; a bool passes only as a bool."""
    types = types if isinstance(types, tuple) else (types,)
    value = mapping.get(key)
    if value is not None and (not isinstance(value, types) or (
            isinstance(value, bool) and bool not in types)):
        raise ConfigError(f"{path}.{key}", f"must be {what}")


def _at_least_zero(mapping, key, path, types, what):
    """An optional number (never a bool) that must be >= 0."""
    _optional(mapping, key, path, types, what)
    if mapping.get(key) is not None and mapping[key] < 0:
        raise ConfigError(f"{path}.{key}", f"must be {what}")


def _asn(mapping, key, path):
    """A required AS number: an int (never a bool) that fits the
    4-octet OPEN field."""
    value = _require(mapping, key, path, int)
    if isinstance(value, bool) or not 0 <= value <= MAX_ASN:
        raise ConfigError(f"{path}.{key}",
                          f"must be an AS number in 0..{MAX_ASN}")
    return value


def _dotted_quad(mapping, key, path):
    value = _require(mapping, key, path, str)
    parts = value.split(".")
    if len(parts) != 4 or not all(
            part.isdigit() and int(part) <= 255 for part in parts):
        raise ConfigError(f"{path}.{key}",
                          f"must be a dotted-quad IPv4 address, not {value!r}")


def _positive(mapping, key, path, what="a positive number"):
    """An optional number that must be > 0 (a timer period or count)."""
    value = mapping.get(key)
    if value is None:
        return
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not value > 0):
        raise ConfigError(f"{path}.{key}", f"must be {what}")


def _session_timers(mapping, path):
    """A session's hold time (RFC 4271 §4.2: 0 or 3..65535 s, it rides a
    2-octet OPEN field) and keepalive interval."""
    hold = mapping.get("hold_time")
    if hold is not None and (
            isinstance(hold, bool) or not isinstance(hold, (int, float))
            or not (hold == 0 or 3 <= hold <= 65535)):
        raise ConfigError(f"{path}.hold_time",
                          "must be 0 or 3..65535 seconds (RFC 4271)")
    _positive(mapping, "keepalive_interval", path, "a positive number of seconds")


def _validate_policy(policy, path):
    """A route-map block, as :func:`policy_from_dict` reads it."""
    _mapping(policy, path)
    _known(policy, path, ("name",), POLICY_DEFAULTS)
    _require(policy, "name", path, str)
    entries = policy.get("entries", [])
    if not isinstance(entries, list) or not all(
            isinstance(entry, dict) for entry in entries):
        raise ConfigError(f"{path}.entries", "must be a list of objects")
    for index, entry in enumerate(entries):
        _known(entry, f"{path}.entries[{index}]", (), ENTRY_DEFAULTS)
        e_path = f"{path}.entries[{index}].match_prefixes"
        prefixes = entry.get("match_prefixes")
        if prefixes is None:
            continue
        if not isinstance(prefixes, list):
            raise ConfigError(e_path, "must be null or a list of prefixes")
        for p_index, text in enumerate(prefixes):
            try:
                if not isinstance(text, str):
                    raise ValueError("not a string")
                parse_prefix(text)
            except ValueError as exc:
                raise ConfigError(f"{e_path}[{p_index}]",
                                  f"bad prefix {text!r}: {exc}") from None


def validate_spec(spec):
    """Validate a deployment spec; raises :class:`ConfigError`."""
    if not isinstance(spec, dict):
        raise ConfigError("$", "spec must be a mapping")
    _known(spec, "$", ("machines", "pairs"), (*SYSTEM_DEFAULTS, "remotes"))
    machines = _require(spec, "machines", "$", list)
    if not machines:
        raise ConfigError("$.machines", "at least one machine is required")
    machine_names = set()
    host_addrs = set()  # every address the network answers for
    for index, machine in enumerate(machines):
        path = f"$.machines[{index}]"
        _mapping(machine, path)
        _known(machine, path, ("name", "address"), ())
        name = _require(machine, "name", path, str)
        address = _require(machine, "address", path, str)
        if name in machine_names:
            raise ConfigError(f"{path}.name", f"duplicate machine {name!r}")
        machine_names.add(name)
        if address in host_addrs:
            raise ConfigError(f"{path}.address",
                              f"duplicate address {address!r}")
        host_addrs.add(address)

    pairs = _require(spec, "pairs", "$", list)
    pair_names = set()
    pair_at = {}  # service address -> pair spec
    for index, pair in enumerate(pairs):
        path = f"$.pairs[{index}]"
        _mapping(pair, path)
        _known(pair, path, ("name", "primary", "backup", "service_addr",
                            "local_as", "router_id", "neighbors"),
               PAIR_DEFAULTS)
        name = _require(pair, "name", path, str)
        if name in pair_names:
            raise ConfigError(f"{path}.name", f"duplicate pair {name!r}")
        pair_names.add(name)
        for side in ("primary", "backup"):
            machine = _require(pair, side, path, str)
            if machine not in machine_names:
                raise ConfigError(f"{path}.{side}", f"unknown machine {machine!r}")
        if pair["primary"] == pair["backup"]:
            raise ConfigError(
                path, "primary and backup must be different machines"
                " (the whole point of the pair)"
            )
        addr = _require(pair, "service_addr", path, str)
        if addr in host_addrs:
            raise ConfigError(f"{path}.service_addr", f"duplicate address {addr!r}")
        host_addrs.add(addr)
        pair_at[addr] = pair
        _asn(pair, "local_as", path)
        _dotted_quad(pair, "router_id", path)
        mrai_mode = pair.get("mrai_mode", "per_speaker")
        if mrai_mode not in MRAI_MODES:
            raise ConfigError(f"{path}.mrai_mode", f"unknown mode {mrai_mode!r}")
        _at_least_zero(pair, "mrai", path, (int, float), "seconds >= 0")
        _at_least_zero(pair, "config_entries", path, int, "an int >= 0")
        _optional(pair, "aggregate_snapshots", path, bool, "a boolean")
        neighbors = _require(pair, "neighbors", path, list)
        if not neighbors:
            raise ConfigError(f"{path}.neighbors", "a pair needs >= 1 neighbor")
        for n_index, neighbor in enumerate(neighbors):
            n_path = f"{path}.neighbors[{n_index}]"
            _mapping(neighbor, n_path)
            _known(neighbor, n_path, ("remote_addr", "remote_as"),
                   NEIGHBOR_DEFAULTS)
            _require(neighbor, "remote_addr", n_path, str)
            _asn(neighbor, "remote_as", n_path)
            mode = neighbor.get("mode", "passive")
            if mode not in ("active", "passive"):
                raise ConfigError(f"{n_path}.mode", f"bad mode {mode!r}")
            _at_least_zero(neighbor, "mrai", n_path, (int, float),
                           "seconds >= 0")
            _session_timers(neighbor, n_path)
            for knob in ("bfd_tx_interval", "bfd_detect_mult"):
                _positive(neighbor, knob, n_path)
            for side in ("import_policy", "export_policy"):
                policy = neighbor.get(side)
                if policy is not None:
                    _validate_policy(policy, f"{n_path}.{side}")

    _optional(spec, "remotes", "$", list, "a list")
    remote_names = set()
    for index, remote in enumerate(spec.get("remotes", ())):
        path = f"$.remotes[{index}]"
        _mapping(remote, path)
        _known(remote, path, ("name", "address", "asn"), ("links", "peer"))
        name = _require(remote, "name", path, str)
        if name in remote_names:
            raise ConfigError(f"{path}.name", f"duplicate remote {name!r}")
        remote_names.add(name)
        address = _require(remote, "address", path, str)
        if address in host_addrs:
            raise ConfigError(f"{path}.address",
                              f"duplicate address {address!r}")
        host_addrs.add(address)
        asn = _asn(remote, "asn", path)
        _optional(remote, "links", path, list, "a list of machine names")
        for link in remote.get("links", ()):
            if not isinstance(link, str) or link not in machine_names:
                raise ConfigError(f"{path}.links", f"unknown machine {link!r}")
        peer = remote.get("peer")
        if peer is None:
            continue
        p_path = f"{path}.peer"
        _mapping(peer, p_path)
        _known(peer, p_path, ("gateway", "gateway_as"), PEER_DEFAULTS)
        gateway = _require(peer, "gateway", p_path, str)
        gateway_as = _asn(peer, "gateway_as", p_path)
        _session_timers(peer, p_path)
        mode = peer.get("mode", PEER_DEFAULTS["mode"])
        if mode not in ("active", "passive"):
            raise ConfigError(f"{p_path}.mode", f"bad mode {mode!r}")
        # a session that cannot establish is a spec error, not a silent
        # dead peer: the gateway must be a pair that expects this remote
        pair = pair_at.get(gateway)
        if pair is None:
            raise ConfigError(f"{p_path}.gateway",
                              f"no pair serves {gateway!r}")
        if gateway_as != pair["local_as"]:
            raise ConfigError(f"{p_path}.gateway_as",
                              f"{pair['name']} is AS {pair['local_as']}")
        expected = [n for n in pair["neighbors"] if n["remote_addr"] == address]
        if asn not in [n["remote_as"] for n in expected]:
            raise ConfigError(
                f"{path}.asn", f"{pair['name']} expects {address} as AS"
                f" {expected[0]['remote_as'] if expected else '(no neighbor)'},"
                f" not {asn}")
        if mode == "passive" and all(
                n.get("mode", NEIGHBOR_DEFAULTS["mode"]) == "passive"
                for n in expected):
            raise ConfigError(f"{p_path}.mode",
                              f"{pair['name']} is passive towards {address}"
                              " too: nobody opens the session")

    tech = spec.get("hook_technology", "netfilter")
    if tech not in ("netfilter", "ebpf"):
        raise ConfigError("$.hook_technology", f"unknown technology {tech!r}")
    remote_db = spec.get("remote_db")
    if remote_db is not None:
        _mapping(remote_db, "$.remote_db")
        _known(remote_db, "$.remote_db", ("latency",), ("mode",))
        latency = _require(remote_db, "latency", "$.remote_db", (int, float))
        if not latency >= 0:
            raise ConfigError("$.remote_db.latency", "must be >= 0 seconds")
        if remote_db.get("mode", "sync") not in ("sync", "async"):
            raise ConfigError("$.remote_db.mode", "must be 'sync' or 'async'")
    _optional(spec, "seed", "$", int, "an int")
    _optional(spec, "hold_acks", "$", bool, "a boolean")
    _optional(spec, "tracing", "$", bool, "a boolean")
    replicas = spec.get("controller_replicas")
    if replicas is not None and (
            isinstance(replicas, bool) or not isinstance(replicas, int)
            or replicas < 1):
        raise ConfigError("$.controller_replicas", "must be an int >= 1")
    return spec


def build_system(spec):
    """Build (system, pairs, remotes) from a validated spec and boot
    every pair and remote.

    ``pairs`` and ``remotes`` are dicts by name, in spec order.  Advance
    the engine afterwards to let sessions establish.  A remote's session
    towards its gateway is ``remote.sessions[0]``.
    """
    validate_spec(spec)
    system = TensorSystem(
        **{key: spec.get(key, value) for key, value in SYSTEM_DEFAULTS.items()}
    )
    machines = {}
    for machine_spec in spec["machines"]:
        machines[machine_spec["name"]] = system.add_machine(
            machine_spec["name"], machine_spec["address"]
        )
    pairs = {}
    for pair_spec in spec["pairs"]:
        neighbors = []
        for neighbor_spec in pair_spec["neighbors"]:
            n = {**NEIGHBOR_DEFAULTS, **neighbor_spec}
            neighbors.append(PeerNeighborSpec(
                n["remote_addr"], n["remote_as"], vrf_name=n["vrf"],
                mode=n["mode"], hold_time=n["hold_time"],
                keepalive_interval=n["keepalive_interval"],
                bfd_tx_interval=n["bfd_tx_interval"],
                bfd_detect_mult=n["bfd_detect_mult"], mrai=n["mrai"],
                import_policy=policy_from_dict(n["import_policy"]),
                export_policy=policy_from_dict(n["export_policy"]),
            ))
        pairs[pair_spec["name"]] = system.create_pair(
            pair_spec["name"],
            machines[pair_spec["primary"]],
            machines[pair_spec["backup"]],
            service_addr=pair_spec["service_addr"],
            local_as=pair_spec["local_as"],
            router_id=pair_spec["router_id"],
            neighbors=neighbors,
            **{key: pair_spec.get(key, value)
               for key, value in PAIR_DEFAULTS.items()},
        )
    remotes = {}
    for remote_spec in spec.get("remotes", ()):
        remote = build_remote_peer(
            system,
            remote_spec["name"],
            remote_spec["address"],
            remote_spec["asn"],
            link_machines=[machines[name] for name in remote_spec.get("links", ())],
        )
        if remote_spec.get("peer") is not None:
            peer = {**PEER_DEFAULTS, **remote_spec["peer"]}
            remote.peer_with(
                peer["gateway"],
                peer["gateway_as"],
                vrf_name=peer["vrf"],
                mode=peer["mode"],
                hold_time=peer["hold_time"],
                keepalive_interval=peer["keepalive_interval"],
            )
        remotes[remote_spec["name"]] = remote
    for pair in pairs.values():
        pair.start()
    for remote in remotes.values():
        remote.start()
    return system, pairs, remotes
