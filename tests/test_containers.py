"""Containers, host machines, resources, underlay bindings."""

import pytest

from repro.containers import (
    Container,
    ContainerState,
    HostMachine,
    ProcessMonitor,
    ResourceModel,
    Underlay,
)
from repro.sim import Engine, Network
from repro.sim.calibration import (
    CONFIG_LOAD_TIME_PER_ENTRY,
    CONTAINER_BASE_BOOT_TIME,
)

#: The paper's testbed host (§4: "a 96-core Intel Xeon CPU with 400 GB
#: RAM").
HOST_MEMORY_BYTES = 400 * 2**30


@pytest.fixture
def machine(engine, network):
    network.enable_fabric()
    return HostMachine(engine, network, "gw-1", "10.1.0.1")


def test_boot_time_scales_with_configs(engine, machine):
    small = machine.create_container("small", config_entries=10)
    large = machine.create_container("large", config_entries=1000)
    assert large.boot_time() - small.boot_time() == pytest.approx(
        990 * CONFIG_LOAD_TIME_PER_ENTRY
    )


def test_monolithic_config_load_is_20_minutes():
    """~100K configs -> ~20 minutes (the §3.2.1 motivation)."""
    engine = Engine()
    network = Network(engine)
    machine = HostMachine(engine, network, "m", "10.1.0.1")
    monolith = machine.create_container("monolith", config_entries=100_000)
    assert 1100 < monolith.boot_time() < 1500  # ~20 min


def test_container_start_transitions_and_callback(engine, machine):
    container = machine.create_container("c1", config_entries=100)
    ready = []
    container.start(on_running=ready.append)
    assert container.state is ContainerState.BOOTING
    engine.run_until_idle()
    assert container.state is ContainerState.RUNNING
    assert ready == [container]
    assert container.endpoint is not None
    assert container.boot_count == 1


def test_preheated_boot_is_fast(engine, machine):
    container = machine.create_container("c1", config_entries=1000)
    assert container.boot_time(preheated=True) < 0.5
    assert container.boot_time() > 2.0


def test_start_on_dead_machine_raises(engine, machine):
    container = machine.create_container("c1")
    machine.fail()
    with pytest.raises(RuntimeError):
        container.start()


def test_machine_failure_kills_running_containers(engine, machine):
    container = machine.create_container("c1")
    container.start()
    engine.run_until_idle()
    machine.fail()
    assert container.state is ContainerState.FAILED
    assert not container.endpoint.reachable()


def test_container_fail_crashes_processes(engine, machine):
    container = machine.create_container("c1")
    container.start()
    engine.run_until_idle()

    class FakeProc:
        alive = True
        def crash(self):
            self.alive = False

    proc = container.add_process("bgp", FakeProc())
    container.fail()
    assert not proc.alive
    assert not container.process_alive("bgp")


def test_container_network_failure_keeps_processes(engine, machine):
    container = machine.create_container("c1")
    container.start()
    engine.run_until_idle()

    class FakeProc:
        alive = True

    container.add_process("bgp", FakeProc())
    container.fail_network()
    assert container.state is ContainerState.RUNNING
    assert not container.endpoint.reachable()
    assert container.process_alive("bgp")


def test_process_alive_handles_running_attribute(engine, machine):
    container = machine.create_container("c1")

    class RunningProc:
        running = True

    container.add_process("bfd", RunningProc())
    assert container.process_alive("bfd")
    assert not container.process_alive("missing")


def test_process_monitor_reports_container_death(engine, machine):
    events = []
    monitor = ProcessMonitor(engine, machine, on_event=lambda k, c, d: events.append((k, c.name)))
    monitor.start()
    container = machine.create_container("c1")
    container.start()
    engine.advance(3.0)
    container.fail()
    engine.advance(1.0)
    assert ("container-dead", "c1") in events
    # no duplicate reports
    engine.advance(2.0)
    assert events.count(("container-dead", "c1")) == 1


def test_process_monitor_reports_process_death(engine, machine):
    events = []
    monitor = ProcessMonitor(engine, machine, on_event=lambda k, c, d: events.append((k, d)))
    monitor.start()
    container = machine.create_container("c1")
    container.start()
    engine.advance(3.0)  # bounded: the monitor's periodic task never idles

    class FakeProc:
        alive = False

    container.add_process("bgp", FakeProc())
    engine.advance(1.0)
    assert ("process-dead", "bgp") in events


def test_monitor_clear_reported_allows_refire(engine, machine):
    events = []
    monitor = ProcessMonitor(engine, machine, on_event=lambda k, c, d: events.append(k))
    monitor.start()
    container = machine.create_container("c1")
    container.start()
    engine.advance(3.0)  # bounded: the monitor's periodic task never idles

    class FakeProc:
        alive = False

    container.add_process("bgp", FakeProc())
    engine.advance(1.0)
    monitor.clear_reported("c1")
    engine.advance(1.0)
    assert events.count("process-dead") == 2


# -- resources (Fig. 6d) ------------------------------------------------------


def test_memory_model_matches_paper_scale():
    model = ResourceModel()
    # 100 containers with ~1000 configs each ~= 25 GB
    total = 100 * model.container_memory(1000)
    assert 20 * 2**30 < total < 30 * 2**30


def test_cpu_model_matches_paper_scale():
    model = ResourceModel()
    assert 100 * model.container_cpu_fraction() == pytest.approx(0.056, rel=0.01)


def test_machine_resource_accounting(engine, machine):
    for i in range(10):
        container = machine.create_container(f"c{i}", config_entries=1000)
        container.start()
    engine.run_until_idle()
    assert machine.memory_used() == 10 * machine.resources.container_memory(1000)
    assert machine.cpu_used_fraction() == pytest.approx(
        10 * machine.resources.container_cpu_fraction()
    )


def test_host_capacity_bounds():
    model = ResourceModel()
    # a host fits >= 1000 containers of 1000 entries, by memory and by CPU
    assert HOST_MEMORY_BYTES // model.container_memory(1000) >= 1000
    assert int(1.0 / model.container_cpu_fraction()) >= 1000  # ~ 1785


# -- underlay -----------------------------------------------------------------


def test_underlay_claim_binds_address(engine, network, machine):
    underlay = Underlay(network)
    container = machine.create_container("c1")
    container.start()
    engine.run_until_idle()
    binding = underlay.claim("10.99.0.1", machine, container, "v1")
    assert network.host_by_address("10.99.0.1") is binding.endpoint
    assert binding.endpoint.anchor() is machine.host
    assert underlay._bindings["10.99.0.1"].machine is machine


def test_underlay_move_rebinds_exclusively(engine, network, machine):
    other = HostMachine(engine, network, "gw-2", "10.2.0.1")
    underlay = Underlay(network)
    c1 = machine.create_container("c1")
    c2 = other.create_container("c2")
    c1.start(); c2.start()
    engine.run_until_idle()
    underlay.claim("10.99.0.1", machine, c1, "v1")
    moved = underlay.claim("10.99.0.1", other, c2, "v1")
    assert network.host_by_address("10.99.0.1") is moved.endpoint
    assert moved.endpoint.anchor() is other.host
    assert underlay.moves == 1
    assert underlay._bindings["10.99.0.1"].machine is other
    assert len(underlay) == 1


def test_underlay_vxlan_veth_plumbing_names(engine, network, machine):
    underlay = Underlay(network)
    container = machine.create_container("c1")
    container.start()
    engine.run_until_idle()
    binding = underlay.claim("10.99.0.1", machine, container, "vrf-7")
    assert binding.veth.host_if == "veth-c1-vrf-7"
    assert binding.veth.container_if == "eth-vrf-7"
    assert binding.bridge.vxlan.machine is machine
