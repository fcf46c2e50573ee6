"""Declarative configuration: validation and system construction."""

import json

import pytest

from repro.config import ConfigError, build_system, validate_spec


def good_spec():
    return {
        "seed": 7,
        "machines": [
            {"name": "gw-1", "address": "10.1.0.1"},
            {"name": "gw-2", "address": "10.2.0.1"},
        ],
        "pairs": [
            {
                "name": "pair0",
                "primary": "gw-1",
                "backup": "gw-2",
                "service_addr": "10.10.0.1",
                "local_as": 65001,
                "router_id": "10.10.0.1",
                "neighbors": [
                    {"remote_addr": "192.0.2.1", "remote_as": 64512,
                     "vrf": "v0", "mode": "passive"},
                ],
            }
        ],
        "remotes": [
            {"name": "remote0", "address": "192.0.2.1", "asn": 64512,
             "links": ["gw-1", "gw-2"],
             "peer": {"gateway": "10.10.0.1", "gateway_as": 65001, "vrf": "v0"}}
        ],
    }


def _import_policy(spec, entries):
    spec["pairs"][0]["neighbors"][0]["import_policy"] = {
        "name": "p", "entries": entries}


def _neighbor(spec):
    return spec["pairs"][0]["neighbors"][0]


def test_valid_spec_passes():
    assert validate_spec(good_spec()) is not None


@pytest.mark.parametrize("mutate,path_fragment", [
    (lambda s: s.pop("machines"), "machines"),
    (lambda s: s["machines"].clear(), "machines"),
    (lambda s: s["machines"].append({"name": "gw-1", "address": "x"}), "name"),
    (lambda s: s["pairs"][0].pop("service_addr"), "service_addr"),
    (lambda s: s["pairs"][0].update(primary="nope"), "primary"),
    (lambda s: s["pairs"][0].update(backup="gw-1"), "pairs[0]"),
    (lambda s: s["pairs"][0]["neighbors"].clear(), "neighbors"),
    (lambda s: s["pairs"][0]["neighbors"][0].update(mode="both"), "mode"),
    (lambda s: s["remotes"][0]["links"].append("ghost"), "links"),
    (lambda s: s.update(hook_technology="dpdk"), "hook_technology"),
    (lambda s: s.update(remote_db={"mode": "sync"}), "latency"),
    # cross-references: a remote whose session could never establish
    (lambda s: s["remotes"][0]["peer"].update(gateway="10.10.0.9"),
     "remotes[0].peer.gateway"),
    (lambda s: s["remotes"][0]["peer"].update(gateway_as=65002),
     "remotes[0].peer.gateway_as"),
    (lambda s: s["remotes"][0].update(asn=64513), "remotes[0].asn"),
    (lambda s: s["remotes"].append(dict(s["remotes"][0], address="192.0.2.9")),
     "remotes[1].name"),
    (lambda s: s["remotes"].append(dict(s["remotes"][0], name="remote1")),
     "remotes[1].address"),
    # policy blocks: read by policy_from_dict, so checked to its shape
    (lambda s: _import_policy(s, [{"match_prefixes": ["10.0.0.0/33"]}]),
     "$.pairs[0].neighbors[0].import_policy.entries[0].match_prefixes[0]"),
    (lambda s: _import_policy(s, [{"match_prefixes": "10.0.0.0/8"}]),
     "$.pairs[0].neighbors[0].import_policy.entries[0].match_prefixes:"),
    (lambda s: _import_policy(s, [{"match_prefixes": ["10.0.0.0/8", 7]}]),
     "import_policy.entries[0].match_prefixes[1]"),
    (lambda s: _import_policy(s, "x"),
     "$.pairs[0].neighbors[0].import_policy.entries:"),
    (lambda s: _import_policy(s, ["x"]),
     "$.pairs[0].neighbors[0].import_policy.entries:"),
    # specs that build but cannot run
    (lambda s: _neighbor(s).update(bfd_tx_interval=0),
     "$.pairs[0].neighbors[0].bfd_tx_interval"),
    (lambda s: _neighbor(s).update(bfd_tx_interval=-1),
     "$.pairs[0].neighbors[0].bfd_tx_interval"),
    (lambda s: _neighbor(s).update(hold_time=-1),
     "$.pairs[0].neighbors[0].hold_time"),
    (lambda s: s["remotes"][0]["peer"].update(hold_time=-1),
     "$.remotes[0].peer.hold_time"),
    (lambda s: _neighbor(s).update(hold_time=1),
     "$.pairs[0].neighbors[0].hold_time"),
    (lambda s: s["remotes"][0]["peer"].update(mode="passive"),
     "$.remotes[0].peer.mode"),
    (lambda s: s.update(controller_replicas=0), "$.controller_replicas"),
    (lambda s: s.update(controller_replicas=True), "$.controller_replicas"),
    (lambda s: s["machines"].append({"name": "gw-3", "address": "10.1.0.1"}),
     "$.machines[2].address"),
    (lambda s: s.update(remote_db={"latency": -1}), "$.remote_db.latency"),
    # numbers that build but cannot run, and values of the wrong type
    (lambda s: s["pairs"][0].update(mrai=-0.5), "$.pairs[0].mrai"),
    (lambda s: (s["pairs"][0].update(mrai_mode="per_peer"),
                _neighbor(s).update(mrai=-0.5)),
     "$.pairs[0].neighbors[0].mrai"),
    (lambda s: s["pairs"][0].update(config_entries=-100),
     "$.pairs[0].config_entries"),
    (lambda s: s["pairs"][0].update(config_entries="x"),
     "$.pairs[0].config_entries"),
    (lambda s: (s["pairs"][0].update(local_as=2**32),
                s["remotes"][0]["peer"].update(gateway_as=2**32)),
     "$.pairs[0].local_as"),
    (lambda s: (s["pairs"][0].update(local_as=-1),
                s["remotes"][0]["peer"].update(gateway_as=-1)),
     "$.pairs[0].local_as"),
    (lambda s: (_neighbor(s).update(remote_as=-5),
                s["remotes"][0].update(asn=-5)),
     "$.pairs[0].neighbors[0].remote_as"),
    (lambda s: s["pairs"][0].update(router_id="bogus"), "$.pairs[0].router_id"),
    (lambda s: s.update(seed="x"), "$.seed"),
    (lambda s: (s["pairs"][0].update(local_as=True),
                s["remotes"][0]["peer"].update(gateway_as=True)),
     "$.pairs[0].local_as"),
    (lambda s: s["pairs"][0].update(mrai=True), "$.pairs[0].mrai"),
    (lambda s: s.update(hold_acks="no"), "$.hold_acks"),
    # entries of the wrong type: a ConfigError with a path, no TypeError
    (lambda s: s["machines"].__setitem__(0, "gw-1"),
     "$.machines[0]: must be an object, got str"),
    (lambda s: s["pairs"].__setitem__(0, "pair0"),
     "$.pairs[0]: must be an object, got str"),
    (lambda s: s["pairs"][0]["neighbors"].__setitem__(0, "192.0.2.1"),
     "$.pairs[0].neighbors[0]: must be an object, got str"),
    (lambda s: s["remotes"].__setitem__(0, "remote0"),
     "$.remotes[0]: must be an object, got str"),
    (lambda s: s["remotes"][0].update(peer="10.10.0.1"),
     "$.remotes[0].peer: must be an object, got str"),
    (lambda s: s.update(remote_db="sync"),
     "$.remote_db: must be an object, got str"),
    (lambda s: _neighbor(s).update(import_policy="p"),
     "$.pairs[0].neighbors[0].import_policy: must be an object, got str"),
    (lambda s: _neighbor(s).update(export_policy="p"),
     "$.pairs[0].neighbors[0].export_policy: must be an object, got str"),
    (lambda s: s["remotes"][0].update(links="gw-1"),
     "$.remotes[0].links: must be a list"),
    (lambda s: s["remotes"][0]["links"].append(["gw-1"]),
     "$.remotes[0].links: unknown machine ['gw-1']"),
    (lambda s: s.update(remotes={"remote0": s["remotes"][0]}),
     "$.remotes: must be a list"),
    (lambda s: s.update(remote_db=[{"latency": 0.001}]),
     "$.remote_db: must be an object, got list"),
    # a key nothing reads: a typo would otherwise pass as a no-op
    (lambda s: s.update(tracng=True), "$: unknown key 'tracng'"),
    (lambda s: s["machines"][0].update(adress="10.1.0.9"),
     "$.machines[0]: unknown key 'adress'"),
    (lambda s: s["pairs"][0].update(mria=5), "$.pairs[0]: unknown key 'mria'"),
    (lambda s: _neighbor(s).update(hold_tme=30),
     "$.pairs[0].neighbors[0]: unknown key 'hold_tme'"),
    (lambda s: s["remotes"][0].update(link=["gw-1"]),
     "$.remotes[0]: unknown key 'link'"),
    (lambda s: s["remotes"][0]["peer"].update(keepalive=10),
     "$.remotes[0].peer: unknown key 'keepalive'"),
    (lambda s: s.update(remote_db={"latency": 0.001, "mod": "async"}),
     "$.remote_db: unknown key 'mod'"),
    (lambda s: _neighbor(s).update(
        import_policy={"name": "p", "default_permits": True}),
     "$.pairs[0].neighbors[0].import_policy: unknown key 'default_permits'"),
    # a misspelt match would otherwise match, and deny, every route
    (lambda s: _import_policy(
        s, [{"permit": False, "match_prefix": ["10.0.0.0/8"]}]),
     "import_policy.entries[0]: unknown key 'match_prefix'"),
    (lambda s: _import_policy(s, [{"permit": False, "match_community": 100}]),
     "import_policy.entries[0]: unknown key 'match_community'"),
])
def test_invalid_specs_rejected(mutate, path_fragment):
    spec = good_spec()
    mutate(spec)
    with pytest.raises(ConfigError) as excinfo:
        validate_spec(spec)
    assert path_fragment in str(excinfo.value)


def test_duplicate_pair_and_address_rejected():
    spec = good_spec()
    clone = dict(spec["pairs"][0])
    spec["pairs"].append(clone)
    with pytest.raises(ConfigError):
        validate_spec(spec)


def test_build_system_end_to_end():
    system, pairs, remotes = build_system(good_spec())
    system.run(10.0)
    pair = pairs["pair0"]
    remote = remotes["remote0"]
    assert pair.established_session_count() == 1
    session = list(remote.speaker.sessions.values())[0]
    assert session.established
    assert system.machines.keys() == {"gw-1", "gw-2"}


def test_build_system_carries_options():
    spec = good_spec()
    spec.update(hook_technology="ebpf", tracing=True, controller_replicas=3,
                remote_db={"latency": 0.003, "mode": "async"})
    spec["pairs"][0]["aggregate_snapshots"] = True
    spec["remotes"][0]["peer"].update(hold_time=30, keepalive_interval=10)
    system, pairs, remotes = build_system(spec)
    assert system.hook_technology == "ebpf"
    assert system.remote_db is not None
    assert system.trace_store is not None
    assert len(system.controller_hosts) == 3
    assert pairs["pair0"].aggregate_snapshots
    assert remotes["remote0"].sessions[0].config.hold_time == 30


def test_load_json(tmp_path):
    path = tmp_path / "gateway.json"
    path.write_text(json.dumps(good_spec()))
    system, pairs, remotes = build_system(json.loads(path.read_text()))
    system.run(10.0)
    assert pairs["pair0"].established_session_count() == 1
