"""FuzzSpec: one point in the config x topology x schedule space.

A spec fully determines a run — :func:`generate_fuzz_spec` and
:func:`mutate_fuzz_spec` are pure functions of their seeds, and
:meth:`FuzzSpec.deployment` turns the spec into a plain
:mod:`repro.config` spec the harness builds — so every
corpus entry and every repro script replays bit-identically.  A spec is
a *scenario* of the harness (:mod:`repro.failures.harness`), like a
chaos schedule: it supplies its deployment, its shrink passes and its
coverage shape, and the harness does everything else.

The differences the fuzzer introduces — multiple split pairs from
:func:`~repro.core.splitting.plan_split`, per-neighbor BFD/MRAI timers,
routing policies — each map to a key of the :mod:`repro.config` spec, so
a fuzz topology is an ordinary deployment the config loader builds.  Each
pair gets its own oracle suite (the wire-tap ACK oracle filters by
service address, so suites do not cross-talk), handed the pair's import
policies so convergence is judged against workload intent *filtered
through them*.

Composition rules extend the chaos engine's recoverable-by-design
guarantees to the new dimensions:

- same-VRF neighbors always land on the same split container (a VRF is
  one routing table; the split plan uses the VRF as the client key and
  sizes containers to the largest VRF group);
- machine-level failures only appear in single-pair layouts (multi-pair
  recovery storms are outside the paper's fault model);
- BFD timers keep detection (tx * mult) under the 3 s machine
  confirmation window;
- import policies only *deny by prefix block* and export policies only
  *rewrite attributes*, so the convergence oracle stays a pure function
  of workload intent.
"""

from functools import partial

from repro.bgp.speaker import MRAI_MODES
from repro.config.loader import (
    NEIGHBOR_DEFAULTS,
    PAIR_DEFAULTS,
    PEER_DEFAULTS,
    SYSTEM_DEFAULTS,
    lab_spec,
    non_default,
)
from repro.core.splitting import PeeringSpec, plan_split
from repro.failures.schedule import (
    HARD_SPACING,
    SETTLE_TAIL,
    zero_initial_routes,
)
from repro.sim.rand import DeterministicRandom

VRF_LAYOUTS = ("shared", "per_peer", "grouped")

#: The per-neighbor knobs a spec passes through to the deployment.
NEIGHBOR_KNOBS = ("hold_time", "keepalive_interval", "mrai",
                  "bfd_tx_interval", "bfd_detect_mult", "import_policy",
                  "export_policy")

#: Prefix-density of the workload bursts (DESIGN.md §14): how long the
#: burst prefixes are.  ``standard`` keeps the chaos /24 scheme,
#: ``dense`` packs /26 more-specifics into the same blocks, ``mixed``
#: cycles /24-/26 per block so covering and covered prefixes coexist in
#: one Loc-RIB.
PREFIX_DENSITIES = ("standard", "dense", "mixed")

#: Attribute layout across a burst, the aggregation axis (§14):
#: ``scattered`` draws per-route attributes from the generator pool,
#: ``uniform`` shares one attribute set per burst (the DRAGON best
#: case), ``snapshot`` additionally replicates with snapshot
#: aggregation enabled on every pair.
AGGREGATION_LAYOUTS = ("scattered", "uniform", "snapshot")

#: Injection kinds that require a full recovery before the next one.
HARD_KINDS = ("application", "container", "container_network",
              "host_machine", "host_network")

#: Blocks 0..3 (second octet 0, 8, 16, 24) are the burst address space a
#: deny policy may censor; initial routes preload at second octet 248,
#: far outside any censorable block.
DENY_BLOCKS = 4

#: A burst block owns 8 second-octet units of one /8; its prefixes must
#: never spill into the next block or the disjointness scheme breaks.
BLOCK_SPAN = 8 << 16


def burst_length(density, base):
    """The prefix length a burst at ``base`` uses under ``density``.

    Pure function of (density, base) so an advertise event and the
    withdraw that later pops its block always regenerate the same
    prefixes, and so mutations that flip the density can rewrite every
    event consistently."""
    if density == "standard":
        return 24
    if density == "dense":
        return 26
    block_index = int(base.split(".")[1]) // 8
    return (24, 25, 26)[block_index % 3]


class FuzzSpec:
    """One self-contained fuzz run; see the module docstring.

    ``neighbors`` entries (``remote_addr`` is derived from the index)::

        {"remote_as": 64512, "vrf": "v0", "hold_time": 90,
         "keepalive_interval": 30, "mrai": None | seconds,
         "bfd_tx_interval": None | seconds, "bfd_detect_mult": None | int,
         "import_policy": None | policy dict, "export_policy": ...}

    ``injections`` follow the chaos schema plus a ``"pair"`` index;
    ``workload`` entries are identical to the chaos schema.
    """

    #: names the scenario kind in shard ids and repro scripts
    kind = "fuzz"

    def __init__(self, seed, neighbors=(), vrf_layout="per_peer",
                 mrai_mode="per_speaker", mrai=None,
                 max_peers_per_container=1, initial_routes=0,
                 injections=(), workload=(), duration=60.0,
                 prefix_density="standard", aggregation_layout="scattered"):
        self.seed = seed
        self.neighbors = [dict(neighbor) for neighbor in neighbors]
        self.vrf_layout = vrf_layout
        self.mrai_mode = mrai_mode
        self.mrai = mrai
        self.max_peers_per_container = max_peers_per_container
        self.initial_routes = initial_routes
        self.injections = [dict(event) for event in injections]
        self.workload = [dict(event) for event in workload]
        self.duration = duration
        self.prefix_density = prefix_density
        self.aggregation_layout = aggregation_layout

    # ------------------------------------------------------------------

    def remote_addr(self, index):
        return f"192.0.2.{index + 1}"

    def peerings(self):
        """The split-planner view: client = VRF, so same-VRF neighbors
        can never be torn across containers."""
        return [
            PeeringSpec(
                neighbor["vrf"], neighbor["remote_as"],
                self.remote_addr(index), vrf_name=neighbor["vrf"],
            )
            for index, neighbor in enumerate(self.neighbors)
        ]

    def split_plan(self):
        return plan_split(
            self.peerings(),
            max_peers_per_container=self.max_peers_per_container,
            name_prefix="fuzz",
        )

    def pair_count(self):
        return len(self.split_plan().assignments)

    def vrf_group_sizes(self):
        groups = {}
        for neighbor in self.neighbors:
            groups[neighbor["vrf"]] = groups.get(neighbor["vrf"], 0) + 1
        return tuple(sorted(groups.values()))

    # ------------------------------------------------------------------

    def to_dict(self):
        return {
            "seed": self.seed,
            "neighbors": [dict(neighbor) for neighbor in self.neighbors],
            "vrf_layout": self.vrf_layout,
            "mrai_mode": self.mrai_mode,
            "mrai": self.mrai,
            "max_peers_per_container": self.max_peers_per_container,
            "initial_routes": self.initial_routes,
            "injections": [dict(event) for event in self.injections],
            "workload": [dict(event) for event in self.workload],
            "duration": self.duration,
            "prefix_density": self.prefix_density,
            "aggregation_layout": self.aggregation_layout,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            data["seed"],
            neighbors=data["neighbors"],
            vrf_layout=data["vrf_layout"],
            mrai_mode=data["mrai_mode"],
            mrai=data["mrai"],
            max_peers_per_container=data["max_peers_per_container"],
            initial_routes=data["initial_routes"],
            injections=data["injections"],
            workload=data["workload"],
            duration=data["duration"],
            # absent in pre-§14 specs (old repro scripts): the defaults
            # reproduce the original /24-scattered behaviour exactly
            prefix_density=data.get("prefix_density", "standard"),
            aggregation_layout=data.get("aggregation_layout", "scattered"),
        )

    def copy(self):
        return FuzzSpec.from_dict(self.to_dict())

    # -- what the harness asks of a scenario -----------------------------

    @property
    def uniform_attributes(self):
        """Uniform layouts share one attribute set per burst."""
        return self.aggregation_layout in ("uniform", "snapshot")

    def validate(self):
        return validate_fuzz_spec(self)

    def deployment(self, hold_acks=True, tracing=False):
        """The standard lab's machines and remotes with one pair per
        planned split container at ``10.10.<p>.1``; each remote peers
        with the pair its neighbor was planned into."""
        validate_fuzz_spec(self)
        spec = {
            **lab_spec(self.seed, len(self.neighbors)),
            **non_default(SYSTEM_DEFAULTS, hold_acks=hold_acks,
                          tracing=tracing),
            "pairs": [],
        }
        index_of = {self.remote_addr(index): index
                    for index in range(len(self.neighbors))}
        for p, assignment in enumerate(self.split_plan().assignments):
            addr = f"10.10.{p}.1"
            pair = {
                "name": f"pair{p}", "primary": "gw-1", "backup": "gw-2",
                "service_addr": addr, "local_as": 65001, "router_id": addr,
                "neighbors": [],
                **non_default(
                    PAIR_DEFAULTS, mrai=self.mrai, mrai_mode=self.mrai_mode,
                    aggregate_snapshots=self.aggregation_layout == "snapshot"),
            }
            for peering in assignment.peerings:
                index = index_of[peering.remote_addr]
                neighbor = self.neighbors[index]
                pair["neighbors"].append({
                    "remote_addr": peering.remote_addr,
                    "remote_as": neighbor["remote_as"],
                    "vrf": neighbor["vrf"],
                    **non_default(NEIGHBOR_DEFAULTS, **{
                        key: neighbor[key] for key in NEIGHBOR_KNOBS}),
                })
                remote = spec["remotes"][index]
                remote["asn"] = neighbor["remote_as"]
                remote["peer"].update(
                    gateway=addr, vrf=neighbor["vrf"],
                    **non_default(
                        PEER_DEFAULTS, hold_time=neighbor["hold_time"],
                        keepalive_interval=neighbor["keepalive_interval"]))
            spec["pairs"].append(pair)
        return spec

    def config_shrink_passes(self):
        """The config/topology mutators the shrinker may try, in order:
        drop trailing neighbors, strip policies and timer overrides per
        neighbor, reset the MRAI mode, zero the preload."""
        passes = [_drop_last_neighbor]
        for index in range(len(self.neighbors)):
            passes.append(partial(_strip_policies, index=index))
            passes.append(partial(_reset_timers, index=index))
        return passes + [_reset_mrai, zero_initial_routes]

    def profile_shape(self):
        """The configured half of the coverage profile."""
        return {
            "topology": {
                "pairs": self.pair_count(),
                "neighbors": len(self.neighbors),
                "vrf_groups": list(self.vrf_group_sizes()),
                "mrai_mode": self.mrai_mode,
                "policies": [
                    sum(1 for n in self.neighbors if n["import_policy"]),
                    sum(1 for n in self.neighbors if n["export_policy"]),
                ],
            },
            "workload": {
                "density": self.prefix_density,
                "aggregation": self.aggregation_layout,
            },
        }

    def describe(self):
        return (f"{len(self.neighbors)} neighbor(s), {self.pair_count()}"
                f" pair(s), {len(self.injections)} injection(s),"
                f" {len(self.workload)} burst(s)")

    def __repr__(self):
        return (
            f"<FuzzSpec seed={self.seed} neighbors={len(self.neighbors)}"
            f" pairs={self.pair_count()} layout={self.vrf_layout}"
            f" mrai_mode={self.mrai_mode}"
            f" density={self.prefix_density}"
            f" agg={self.aggregation_layout}"
            f" injections={len(self.injections)}"
            f" bursts={len(self.workload)} {self.duration:.0f}s>"
        )


class SpecError(ValueError):
    """A FuzzSpec that violates the composition rules."""


def validate_fuzz_spec(spec):
    """Raise :class:`SpecError` unless ``spec`` is recoverable by design
    and free of dangling references.  Returns the spec."""
    if not spec.neighbors:
        raise SpecError("a spec needs >= 1 neighbor")
    if spec.mrai_mode not in MRAI_MODES:
        raise SpecError(f"unknown mrai_mode {spec.mrai_mode!r}")
    if spec.vrf_layout not in VRF_LAYOUTS:
        raise SpecError(f"unknown vrf_layout {spec.vrf_layout!r}")
    if spec.prefix_density not in PREFIX_DENSITIES:
        raise SpecError(f"unknown prefix_density {spec.prefix_density!r}")
    if spec.aggregation_layout not in AGGREGATION_LAYOUTS:
        raise SpecError(
            f"unknown aggregation_layout {spec.aggregation_layout!r}")
    plan = spec.split_plan()
    pairs = len(plan.assignments)
    # no VRF may straddle two containers (one VRF = one routing table)
    vrf_home = {}
    for assignment in plan.assignments:
        for peering in assignment.peerings:
            home = vrf_home.setdefault(peering.vrf_name, assignment.name)
            if home != assignment.name:
                raise SpecError(
                    f"VRF {peering.vrf_name!r} straddles containers"
                    f" {home} and {assignment.name}"
                )
    hard = [e for e in spec.injections if e["scenario"] in HARD_KINDS]
    machine_level = [e for e in hard
                     if e["scenario"] in ("host_machine", "host_network")]
    if len(machine_level) > 1:
        raise SpecError("at most one machine-level failure per spec")
    if machine_level and pairs > 1:
        raise SpecError("machine-level failures need a single-pair layout")
    times = sorted(e["at"] for e in hard)
    for earlier, later in zip(times, times[1:]):
        if later - earlier < HARD_SPACING[0]:
            raise SpecError(
                f"hard injections {earlier} and {later} are closer than"
                f" a full recovery ({HARD_SPACING[0]}s)"
            )
    last_hard = max((e["at"] for e in hard), default=0.0)
    for event in spec.injections:
        pair_index = event.get("pair", 0)
        if not 0 <= pair_index < pairs:
            raise SpecError(f"injection references pair {pair_index}"
                            f" of {pairs}")
        if event["scenario"] == "transient_network":
            if not event["duration"] or event["duration"] >= 3.0:
                raise SpecError("transient blips must stay under the 3 s"
                                " confirmation timer")
        if event["scenario"] == "agent" and event["at"] < last_hard + 6.0:
            raise SpecError("agent death must follow the last hard failure"
                            " by >= 6 s (it is the detection witness)")
    for event in spec.workload:
        if not 0 <= event["remote"] < len(spec.neighbors):
            raise SpecError(f"burst references remote {event['remote']}"
                            f" of {len(spec.neighbors)}")
        expected = burst_length(spec.prefix_density, event["base"])
        if event["length"] != expected:
            raise SpecError(
                f"burst at {event['base']} has length {event['length']}"
                f" but density {spec.prefix_density!r} demands /{expected}")
        if event["count"] * (1 << (32 - event["length"])) > BLOCK_SPAN:
            raise SpecError(
                f"burst at {event['base']}/{event['length']} x"
                f" {event['count']} spills out of its disjoint block")
    if spec.duration <= last_hard:
        raise SpecError("duration must cover every injection")
    return spec


# ----------------------------------------------------------------------
# config/topology shrink passes (each returns False when it has nothing
# left to remove, so the shrinker spends no rerun on it)
# ----------------------------------------------------------------------

def _drop_last_neighbor(spec):
    """Drop the trailing neighbor with its bursts; injections retarget
    to pair 0 where the reshaped plan lost their pair."""
    if len(spec.neighbors) <= 1:
        return False
    index = len(spec.neighbors) - 1
    del spec.neighbors[index]
    spec.workload = [
        event for event in spec.workload if event["remote"] != index
    ]
    pairs = spec.pair_count()
    for event in spec.injections:
        if event.get("pair", 0) >= pairs:
            event["pair"] = 0
    spec.max_peers_per_container = max(spec.vrf_group_sizes(), default=1)


def _strip_policies(spec, index):
    if index >= len(spec.neighbors):
        return False
    neighbor = spec.neighbors[index]
    if not neighbor["import_policy"] and not neighbor["export_policy"]:
        return False
    neighbor["import_policy"] = None
    neighbor["export_policy"] = None


def _reset_timers(spec, index):
    if index >= len(spec.neighbors):
        return False
    neighbor = spec.neighbors[index]
    if neighbor["mrai"] is None and neighbor["bfd_tx_interval"] is None:
        return False
    neighbor["mrai"] = None
    neighbor["bfd_tx_interval"] = None
    neighbor["bfd_detect_mult"] = None


def _reset_mrai(spec):
    if spec.mrai_mode == "per_speaker" and spec.mrai is None:
        return False
    spec.mrai_mode = "per_speaker"
    spec.mrai = None


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------

def _gen_policies(r, remote_index):
    """(import_policy, export_policy) dicts for one neighbor.

    Imports deny one aligned /13 burst block (a pure prefix predicate the
    oracle can model); exports only rewrite attributes (communities,
    prepending) so prefix sets are untouched.
    """
    import_policy = export_policy = None
    if r.random() < 0.35:
        block = r.randrange(DENY_BLOCKS)
        import_policy = {
            "name": f"fuzz-import-r{remote_index}",
            "default_permit": True,
            "entries": [{
                "permit": False,
                "match_prefixes": [f"{10 + remote_index}.{block * 8}.0.0/13"],
            }],
        }
    if r.random() < 0.25:
        export_policy = {
            "name": f"fuzz-export-r{remote_index}",
            "default_permit": True,
            "entries": [{
                "permit": True,
                "match_prefixes": None,
                "add_communities": [(65001 << 16) | (100 + remote_index)],
                "prepend_as": 65001 if r.random() < 0.5 else None,
                "prepend_count": 2,
            }],
        }
    return import_policy, export_policy


def _vrf_of(layout, count, split_at):
    if layout == "shared":
        return lambda i: "v0"
    if layout == "per_peer":
        return lambda i: f"v{i}"
    return lambda i: "v0" if i < split_at else "v1"


def generate_fuzz_spec(seed):
    """Derive a spec from ``seed`` (pure function, no simulation)."""
    r = DeterministicRandom(seed).stream("fuzz-spec")
    layout = r.choice(VRF_LAYOUTS)
    # per-peer layouts split into one pair per neighbor; cap the fleet
    count = r.choice((2, 3)) if layout == "per_peer" else r.choice((2, 3, 4))
    split_at = r.randint(1, count - 1)
    vrf_of = _vrf_of(layout, count, split_at)

    mrai_mode = r.choice(MRAI_MODES)
    mrai = r.choice((None, 0.05, 0.2, 0.5))
    density = r.choice(PREFIX_DENSITIES)
    aggregation = r.choice(AGGREGATION_LAYOUTS)
    neighbors = []
    for index in range(count):
        hold = r.choice((30, 90, 180))
        import_policy, export_policy = _gen_policies(r, index)
        neighbor = {
            "remote_as": 64512 + index,
            "vrf": vrf_of(index),
            "hold_time": hold,
            "keepalive_interval": hold // 3,
            "mrai": r.choice((0.05, 0.3, 1.0)) if r.random() < 0.3 else None,
            "bfd_tx_interval": None,
            "bfd_detect_mult": None,
            "import_policy": import_policy,
            "export_policy": export_policy,
        }
        if r.random() < 0.4:
            # detection = tx * mult stays well under the 3 s confirm window
            neighbor["bfd_tx_interval"] = r.choice((0.05, 0.1, 0.2))
            neighbor["bfd_detect_mult"] = r.choice((3, 4, 5))
        neighbors.append(neighbor)

    groups = {}
    for neighbor in neighbors:
        groups[neighbor["vrf"]] = groups.get(neighbor["vrf"], 0) + 1
    max_peers = max(groups.values())
    pairs = len(groups)

    # -- hard injections, spaced for full recoveries -----------------------
    total = r.randint(2, 4)
    hard_count = max(1, min(r.randint(1, 2), total))
    soft_count = total - hard_count
    injections = []
    at = r.uniform(3.0, 10.0)
    for _ in range(hard_count):
        injections.append({
            "at": round(at, 3),
            "scenario": r.choice(("application", "container",
                                  "container_network")),
            "pair": r.randrange(pairs),
            "target": "active",
            "duration": None,
        })
        at += r.uniform(*HARD_SPACING)
    if pairs == 1 and r.random() < 0.4:
        # machine-level failures fence permanently: single-pair only,
        # and always the final hard injection
        injections[-1]["scenario"] = r.choice(("host_machine",
                                               "host_network"))
    last_hard = injections[-1]["at"]

    # -- soft injections: may overlap recovery windows ---------------------
    agent_used = False
    for _ in range(soft_count):
        kind = r.choice(("transient_network", "database_blip", "agent"))
        if kind == "agent" and agent_used:
            kind = "database_blip"
        agent_used = agent_used or kind == "agent"
        earliest = last_hard + 6.0 if kind == "agent" else 1.0
        event = {
            "at": round(r.uniform(earliest, last_hard + 12.0), 3),
            "scenario": kind,
            "pair": r.randrange(pairs),
            "target": None,
            "duration": None,
        }
        if kind == "transient_network":
            event["target"] = r.choice(("active", "standby"))
            event["duration"] = round(r.uniform(0.3, 2.0), 3)
        elif kind == "database_blip":
            event["duration"] = round(r.uniform(0.4, 1.2), 3)
        injections.append(event)
    injections.sort(key=lambda event: event["at"])

    # -- workload bursts (chaos block scheme: disjoint per remote/burst) ---
    burst_times = sorted(
        round(r.uniform(1.0, last_hard + 8.0), 3)
        for _ in range(r.randint(2, 5))
    )
    workload = []
    advertised = [[] for _ in range(count)]
    for when in burst_times:
        remote = r.randrange(count)
        if advertised[remote] and r.random() < 0.35:
            block = advertised[remote].pop(
                r.randrange(len(advertised[remote]))
            )
            workload.append({"at": when, "remote": remote,
                             "action": "withdraw", **block})
        else:
            index = sum(1 for event in workload if event["remote"] == remote)
            base = f"{10 + remote}.{(index * 8) % 248}.0.0"
            block = {
                "base": base,
                "length": burst_length(density, base),
                "count": r.choice((50, 120, 200)),
            }
            advertised[remote].append(block)
            workload.append({"at": when, "remote": remote,
                             "action": "advertise", **block})

    horizon = max(
        [event["at"] for event in injections]
        + [event["at"] for event in workload]
    )
    spec = FuzzSpec(
        seed,
        neighbors=neighbors,
        vrf_layout=layout,
        mrai_mode=mrai_mode,
        mrai=mrai,
        max_peers_per_container=max_peers,
        initial_routes=r.choice((0, 50, 150)),
        injections=injections,
        workload=workload,
        duration=round(horizon + SETTLE_TAIL, 3),
        prefix_density=density,
        aggregation_layout=aggregation,
    )
    return validate_fuzz_spec(spec)


# ----------------------------------------------------------------------
# mutation
# ----------------------------------------------------------------------

def mutate_fuzz_spec(spec, mutation_seed):
    """One structure-preserving mutation of ``spec``; pure function of
    ``(spec, mutation_seed)``.  Mutations that would break a composition
    rule fall back to a fresh spec derived from the mutation seed."""
    r = DeterministicRandom(mutation_seed).stream("fuzz-mutate")
    candidate = spec.copy()
    candidate.seed = mutation_seed
    op = r.choice((
        "mrai_mode", "mrai", "peer_mrai", "bfd", "policy",
        "initial_routes", "burst_size", "injection_time", "add_burst",
        "prefix_density", "aggregation_layout",
    ))
    if op == "mrai_mode":
        candidate.mrai_mode = r.choice(
            [mode for mode in MRAI_MODES if mode != spec.mrai_mode]
        )
    elif op == "mrai":
        candidate.mrai = r.choice((None, 0.05, 0.2, 0.5, 1.0))
    elif op == "peer_mrai":
        neighbor = candidate.neighbors[r.randrange(len(candidate.neighbors))]
        neighbor["mrai"] = r.choice((None, 0.05, 0.3, 1.0))
    elif op == "bfd":
        neighbor = candidate.neighbors[r.randrange(len(candidate.neighbors))]
        if neighbor["bfd_tx_interval"] is None:
            neighbor["bfd_tx_interval"] = r.choice((0.05, 0.1, 0.2))
            neighbor["bfd_detect_mult"] = r.choice((3, 4, 5))
        else:
            neighbor["bfd_tx_interval"] = None
            neighbor["bfd_detect_mult"] = None
    elif op == "policy":
        index = r.randrange(len(candidate.neighbors))
        neighbor = candidate.neighbors[index]
        if neighbor["import_policy"] or neighbor["export_policy"]:
            neighbor["import_policy"] = None
            neighbor["export_policy"] = None
        else:
            imports, exports = _gen_policies(r, index)
            neighbor["import_policy"] = imports
            neighbor["export_policy"] = exports
    elif op == "initial_routes":
        candidate.initial_routes = r.choice((0, 50, 150, 300))
    elif op == "burst_size":
        event = candidate.workload[r.randrange(len(candidate.workload))]
        event["count"] = r.choice((25, 50, 120, 200, 400))
    elif op == "injection_time":
        soft = [e for e in candidate.injections
                if e["scenario"] not in HARD_KINDS]
        if soft:
            event = soft[r.randrange(len(soft))]
            hard = [e["at"] for e in candidate.injections
                    if e["scenario"] in HARD_KINDS]
            last_hard = max(hard, default=0.0)
            earliest = (last_hard + 6.0 if event["scenario"] == "agent"
                        else 1.0)
            event["at"] = round(r.uniform(earliest, last_hard + 12.0), 3)
            candidate.injections.sort(key=lambda e: e["at"])
    elif op == "add_burst":
        remote = r.randrange(len(candidate.neighbors))
        index = sum(1 for event in candidate.workload
                    if event["remote"] == remote)
        candidate.workload.append({
            "at": round(r.uniform(1.0, candidate.duration - SETTLE_TAIL), 3),
            "remote": remote,
            "action": "advertise",
            "base": f"{10 + remote}.{(index * 8) % 248}.0.0",
            "length": burst_length(candidate.prefix_density,
                                   f"{10 + remote}.{(index * 8) % 248}.0.0"),
            "count": r.choice((50, 120, 200)),
        })
        candidate.workload.sort(key=lambda e: e["at"])
    elif op == "prefix_density":
        candidate.prefix_density = r.choice(
            [d for d in PREFIX_DENSITIES if d != spec.prefix_density]
        )
        # every burst (and the withdraw that pops its block) must follow
        # the new density or the spec fails validation
        for event in candidate.workload:
            event["length"] = burst_length(candidate.prefix_density,
                                           event["base"])
    elif op == "aggregation_layout":
        candidate.aggregation_layout = r.choice(
            [a for a in AGGREGATION_LAYOUTS if a != spec.aggregation_layout]
        )
    try:
        return validate_fuzz_spec(candidate)
    except SpecError:
        return generate_fuzz_spec(mutation_seed)
