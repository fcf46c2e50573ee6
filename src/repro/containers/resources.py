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

    def container_memory(self, config_entries):
        """Bytes of RSS for one running BGP+BFD container."""
        return (CONTAINER_MEMORY_BASE
                + config_entries * CONTAINER_MEMORY_PER_CONFIG)

    def container_cpu_fraction(self):
        """Fraction of one host's CPU one idle-ish container consumes."""
        return CONTAINER_CPU_FRACTION

