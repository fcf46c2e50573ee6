"""Topology partitioning: spread simulation cells across shards/workers.

Partitioning here is deliberately simple and deterministic: longest-
processing-time (LPT) greedy bin packing by declared weight.  The fleet
workload's cells are homogeneous enough that LPT is within a few percent
of optimal, and determinism matters more than the last percent — the
same inputs must produce the same partition on every run and host, or
the bit-identical-results guarantee of the parallel runtime would break
at the assignment step.
"""


def partition_items(items, bins, weight=None):
    """Partition ``items`` into ``bins`` load-balanced groups.

    ``weight(item) -> float`` defaults to uniform.  Returns a list of
    ``bins`` lists; order inside each group follows the input order (ties
    in the greedy step resolve by input position, so the result is a
    pure function of the arguments).  Empty groups are possible only
    when ``len(items) < bins``.
    """
    if bins <= 0:
        raise ValueError(f"bins must be positive (got {bins})")
    weigh = weight or (lambda _item: 1.0)
    indexed = sorted(
        enumerate(items), key=lambda pair: (-weigh(pair[1]), pair[0])
    )
    loads = [0.0] * bins
    groups = [[] for _ in range(bins)]
    for position, item in indexed:
        target = min(range(bins), key=lambda b: (loads[b], b))
        loads[target] += weigh(item)
        groups[target].append((position, item))
    return [[item for _pos, item in sorted(group)] for group in groups]


def assign_shards(specs, workers):
    """Assign ShardSpecs to ``workers`` processes, balanced by weight.

    Returns a list of ``min(workers, len(specs))`` non-empty spec lists.
    """
    workers = max(1, min(workers, len(specs)))
    groups = partition_items(
        specs, workers, weight=lambda spec: getattr(spec, "weight", 1.0)
    )
    return [group for group in groups if group]

