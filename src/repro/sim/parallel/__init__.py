"""Conservative parallel simulation runtime (sharded multi-process execution).

See :mod:`repro.sim.parallel.runtime` for the execution model, the
barrier transport and the scenario-builder contract,
:mod:`repro.sim.parallel.boundary` for how packets cross shard
boundaries, and :mod:`repro.sim.parallel.partition` for the static LPT
placement of shards on workers.
"""

from repro.sim.parallel.boundary import BoundaryLink, CrossShardFrame, ShardBoundary
from repro.sim.parallel.partition import assign_shards, partition_items
from repro.sim.parallel.runtime import ParallelResult, ParallelRunner, ShardSpec

__all__ = [
    "BoundaryLink",
    "CrossShardFrame",
    "ParallelResult",
    "ParallelRunner",
    "ShardBoundary",
    "ShardSpec",
    "assign_shards",
    "partition_items",
]
