"""The full-table workload's generators as first written, for
differential tests.

:class:`repro.workloads.fulltable.FullTableWorkload` makes its keys by
arithmetic and C-level ranges and draws churn with ``rng.choice``.  The
functions here are the plain formulas it must reproduce key for key and
draw for draw: every key through the validating :func:`prefix_key`, the
pool index through one per-route rule, and churn drawing with
``paths[rng.randrange(len(paths))]``.
"""

from repro.bgp.prefixes import prefix_key
from repro.bgp.rib import Path
from repro.sim.rand import DeterministicRandom
from repro.workloads.fulltable import (
    AGG_BASE,
    BLOCK_MEMBER_BITS,
    COMPETITOR,
    HOST_ROUTES,
    SCATTER_BASE,
    SCATTER_LENGTHS,
    SCATTER_SLOT,
    TABLE_PEER,
)


def reference_prefix_at(workload, index):
    """The ``index``-th table prefix of ``workload``."""
    if index < workload.aggregatable_count:
        return prefix_key(AGG_BASE + (index << 8), 24)
    index -= workload.aggregatable_count
    if index < workload.scattered_count:
        length = SCATTER_LENGTHS[index % len(SCATTER_LENGTHS)]
        value = SCATTER_BASE + index * SCATTER_SLOT
        return prefix_key(value, length)
    index -= workload.scattered_count
    if index < HOST_ROUTES:
        return prefix_key(SCATTER_BASE - (index + 1) * 256, 32)
    return prefix_key(0, 0)


def reference_pool_index(workload, index):
    if index < workload.aggregatable_count:
        return (index >> BLOCK_MEMBER_BITS) % len(workload.attr_pool)
    return (index * 7 + 3) % len(workload.attr_pool)


def reference_paths(workload, peer_id):
    return [Path(attributes, peer_id, "ebgp")
            for attributes in workload.attr_pool]


def reference_load(workload, loc_rib):
    paths = reference_paths(workload, TABLE_PEER)
    for index in range(workload.total):
        loc_rib.offer(reference_prefix_at(workload, index),
                      paths[reference_pool_index(workload, index)])
    return workload.total


def reference_churn(workload, loc_rib, ops, seed):
    rng = DeterministicRandom(seed).stream("churn")
    rivals = reference_paths(workload, COMPETITOR)
    primaries = reference_paths(workload, TABLE_PEER)
    for op in range(ops):
        base = ((op // 3) * 2654435761) % workload.size
        kind = op % 3
        if kind == 0:
            loc_rib.offer(reference_prefix_at(workload, base),
                          rivals[rng.randrange(len(rivals))])
        elif kind == 1:
            loc_rib.retract(reference_prefix_at(workload, base), COMPETITOR)
        else:
            loc_rib.offer(reference_prefix_at(workload, (base + 1)
                                              % workload.size),
                          primaries[rng.randrange(len(primaries))])
    return ops
