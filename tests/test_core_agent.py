"""The agent server: relay registry, probing, failure semantics."""

import pytest

from repro.core.agent import AgentServer
from repro.control.panel import ControllerPanel
from repro.control.ipsla import IpSlaResponder
from repro.sim import DeterministicRandom, Engine, Network


@pytest.fixture
def env(engine):
    network = Network(engine)
    network.enable_fabric()
    controller_host = network.add_host("ctrl", "10.255.0.1")
    controller = ControllerPanel(engine, [controller_host])
    agent_host = network.add_host("agent", "10.253.0.1")
    agent = AgentServer(engine, agent_host, controller,
                        rng=DeterministicRandom(21).stream("agent"))
    return engine, network, controller, agent


def test_register_relay_creates_and_updates(env):
    engine, network, _controller, agent = env
    target = network.add_host("remote", "192.0.2.1")
    specs = [{
        "vrf": "v0", "remote_addr": "192.0.2.1", "source_addr": "10.10.0.1",
        "my_disc": 7, "your_disc": 9, "tx_interval": 0.1, "detect_mult": 3,
    }]
    relay = agent.register_relay("pair0", specs)
    engine.advance(0.5)
    assert relay.packets_sent > 0
    again = agent.register_relay("pair0", specs * 2)
    assert again is relay  # updated in place
    assert len(relay.specs) == 2


def test_stop_relay(env):
    engine, network, _controller, agent = env
    network.add_host("remote", "192.0.2.1")
    specs = [{
        "vrf": "v0", "remote_addr": "192.0.2.1", "source_addr": "10.10.0.1",
        "my_disc": 7, "your_disc": 9, "tx_interval": 0.1, "detect_mult": 3,
    }]
    relay = agent.register_relay("pair0", specs)
    agent.stop_relay("pair0")
    engine.advance(0.5)
    sent = relay.packets_sent
    engine.advance(0.5)
    assert relay.packets_sent == sent
    assert "pair0" not in agent.relays


def test_agent_probe_feeds_detector(env):
    engine, network, controller, agent = env

    class FakeMachine:
        name = "gw-1"
        address = "10.1.0.1"

    machine_host = network.add_host("gw-1", "10.1.0.1")
    IpSlaResponder(engine, machine_host)
    agent.probe_machine(FakeMachine())
    engine.advance(1.0)
    machine_host.fail()
    engine.advance(2.0)
    signals = controller.leader.detector._machine("gw-1")
    assert signals.agent_ipsla_down


def test_agent_failure_stops_everything(env):
    engine, network, _controller, agent = env
    network.add_host("remote", "192.0.2.1")
    relay = agent.register_relay("pair0", [{
        "vrf": "v0", "remote_addr": "192.0.2.1", "source_addr": "10.10.0.1",
        "my_disc": 7, "your_disc": 9, "tx_interval": 0.1, "detect_mult": 3,
    }])
    engine.advance(0.3)
    agent.fail()
    sent = relay.packets_sent
    engine.advance(1.0)
    assert relay.packets_sent == sent
    assert not agent.host.up
