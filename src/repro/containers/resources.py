"""Per-container resource accounting (Fig. 6(d)).

"the memory usage and CPU utilization rate increase linearly as the
number of containers on one host machine increases.  Supporting 100
containers only costs 25 GB of memory and 5.6% of the CPU."
"""

from repro.sim.calibration import (
    CONTAINER_CPU_FRACTION,
    CONTAINER_MEMORY_BASE,
    CONTAINER_MEMORY_PER_CONFIG,
)


class ResourceModel:
    """Linear memory/CPU model for containerized BGP."""

    def __init__(
        self,
        memory_base=CONTAINER_MEMORY_BASE,
        memory_per_config=CONTAINER_MEMORY_PER_CONFIG,
        cpu_fraction=CONTAINER_CPU_FRACTION,
    ):
        self.memory_base = memory_base
        self.memory_per_config = memory_per_config
        self.cpu_fraction = cpu_fraction

    def container_memory(self, config_entries):
        """Bytes of RSS for one running BGP+BFD container."""
        return self.memory_base + config_entries * self.memory_per_config

    def container_cpu_fraction(self):
        """Fraction of one host's CPU one idle-ish container consumes."""
        return self.cpu_fraction

