"""Figure 6(d): memory usage and CPU utilization vs container count.

Paper: "the memory usage and CPU utilization rate increase linearly as
the number of containers on one host machine increases.  Supporting 100
containers only costs 25 GB of memory and 5.6% of the CPU."
"""

from conftest import run_once
from repro.containers import HostMachine
from repro.metrics import format_table
from repro.sim import Engine, Network

CONTAINER_COUNTS = (1, 10, 25, 50, 75, 100)
CONFIG_ENTRIES = 1000  # ~1K configurations per container (paper's scale)


def run_experiment():
    engine = Engine()
    network = Network(engine)
    machine = HostMachine(engine, network, "gw-1", "10.1.0.1")
    points = []
    booted = 0
    for target in CONTAINER_COUNTS:
        while booted < target:
            container = machine.create_container(f"c{booted}", CONFIG_ENTRIES)
            container.start()
            booted += 1
        engine.run_until_idle()
        points.append(
            (target, machine.memory_used(), machine.cpu_used_fraction())
        )
    return points


def test_fig6d_scalability(benchmark):
    points = run_once(benchmark, run_experiment)
    print()
    print(format_table(
        ["containers", "memory (GB)", "CPU (%)"],
        [[n, mem / 2**30, cpu * 100] for n, mem, cpu in points],
        title="Fig 6(d): per-host resource usage vs container count",
    ))
    by_count = {n: (mem, cpu) for n, mem, cpu in points}
    mem_100, cpu_100 = by_count[100]
    # "100 containers only costs 25 GB of memory and 5.6% of the CPU"
    assert 20 * 2**30 < mem_100 < 30 * 2**30
    assert 0.05 < cpu_100 < 0.065
    # linearity: usage at N is N x usage at 1 (exactly, in the model)
    mem_1, cpu_1 = by_count[1]
    for n, mem, cpu in points:
        assert abs(mem - n * mem_1) / (n * mem_1) < 0.01
        assert abs(cpu - n * cpu_1) / (n * cpu_1) < 0.01
