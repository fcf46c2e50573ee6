"""Declarative configuration: validation and system construction."""

import json

import pytest

from repro.config import ConfigError, build_system, load_json, validate_spec


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


def test_build_system_without_start():
    system, pairs, _remotes = build_system(good_spec(), start=False)
    system.run(5.0)
    assert pairs["pair0"].speaker is None  # never started


def test_build_system_carries_options():
    spec = good_spec()
    spec.update(hook_technology="ebpf", tracing=True, controller_replicas=3,
                remote_db={"latency": 0.003, "mode": "async"})
    spec["pairs"][0]["aggregate_snapshots"] = True
    spec["remotes"][0]["peer"].update(hold_time=30, keepalive_interval=10)
    system, pairs, remotes = build_system(spec, start=False)
    assert system.hook_technology == "ebpf"
    assert system.remote_db is not None
    assert system.trace_store is not None
    assert len(system.controller_hosts) == 3
    assert pairs["pair0"].aggregate_snapshots
    assert remotes["remote0"].sessions[0].config.hold_time == 30


def test_load_json(tmp_path):
    path = tmp_path / "gateway.json"
    path.write_text(json.dumps(good_spec()))
    system, pairs, remotes = load_json(str(path))
    system.run(10.0)
    assert pairs["pair0"].established_session_count() == 1
