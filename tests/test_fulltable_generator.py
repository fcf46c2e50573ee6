"""The full-table workload's generators against their first formulas.

:class:`FullTableWorkload` builds keys by arithmetic (``prefix_at``) and
from C-level ranges (``keys``), loads by region and draws churn with
``rng.choice``; :mod:`tests.fulltable_reference` keeps the per-route
``prefix_key`` / ``randrange`` formulas.  Every key, every loaded route
and every churn operation's ``(old, new)`` must be the same.
"""

from itertools import islice

import pytest

from repro.bgp.prefixes import prefix_text
from repro.bgp.rib import LocRib
from repro.workloads.fulltable import SCATTER_SLOTS, FullTableWorkload

from tests.fulltable_reference import (
    reference_churn,
    reference_load,
    reference_prefix_at,
)


@pytest.mark.parametrize("size", [640, 8_000, 80_000])
def test_every_key_matches_the_reference(size):
    workload = FullTableWorkload(seed=11, size=size)
    expected = [reference_prefix_at(workload, index)
                for index in range(workload.total)]
    assert list(workload.keys()) == expected
    assert [workload.prefix_at(index)
            for index in range(workload.total)] == expected


def test_keys_at_a_million_match_the_reference():
    workload = FullTableWorkload(seed=11, size=1_000_000)
    agg, scattered = workload.aggregatable_count, workload.scattered_count
    edges = {0, agg - 1, agg, agg + scattered - 1, agg + scattered,
             workload.size - 1, workload.size, workload.total - 1}
    wanted = sorted(set(range(0, workload.total, 997)) | edges)
    expected = {index: reference_prefix_at(workload, index)
                for index in wanted}
    assert {index: workload.prefix_at(index) for index in wanted} == expected
    picked = set(wanted)
    assert {index: key for index, key in enumerate(workload.keys())
            if index in picked} == expected
    assert sum(1 for _ in workload.keys()) == workload.total


def _recording(rib):
    """Keep every later ``offer`` / ``retract`` result of ``rib``, as
    ``(prefix, old, new)``, in the returned list."""
    changes = []
    offer, retract, keep = rib.offer, rib.retract, changes.append

    def recorded_offer(prefix, path):
        change = offer(prefix, path)
        keep((prefix, *change))
        return change

    def recorded_retract(prefix, peer_id):
        change = retract(prefix, peer_id)
        keep((prefix, *change))
        return change

    rib.offer, rib.retract = recorded_offer, recorded_retract
    return changes


def _drain(changes):
    """The results so far, each path as ``(peer, attributes)``."""
    seen = [(prefix,
             None if old is None else (old.peer_id, old.attributes),
             None if new is None else (new.peer_id, new.attributes))
            for prefix, old, new in changes]
    changes.clear()
    return seen


def _table(rib):
    return [(prefix, path.peer_id, path.attributes)
            for prefix, path in rib.items()]


#: Churn seeds replayed in turn on one 80,000-prefix table, each with
#: its operation count and the table's export_seq / decision_runs after
#: it, as the first formulas over a Loc-RIB whose retract re-scanned a
#: lone survivor gave them.
CHURNS = (
    (1, 80_000, (160_009, 39_440)),
    (2, 3_000, (163_009, 40_903)),
    (23, 80_000, (243_009, 80_524)),
    (24, 3_000, (246_009, 81_994)),
)


def test_load_and_churn_match_the_reference():
    workload = FullTableWorkload(seed=11, size=80_000)
    live, reference = LocRib(), LocRib()
    assert workload.load(live) == reference_load(workload, reference)
    assert _table(live) == _table(reference)
    live_changes, reference_changes = _recording(live), _recording(reference)
    for seed, ops, counters in CHURNS:
        assert workload.churn(live, ops, seed=seed) == ops
        reference_churn(workload, reference, ops, seed)
        assert len(live_changes) == ops
        assert _drain(live_changes) == _drain(reference_changes)
        assert (live.export_seq, live.decision_runs) == counters
        assert (reference.export_seq, reference.decision_runs) == counters
    assert _table(live) == _table(reference)


def test_a_table_past_the_ipv4_slots_is_refused():
    largest = FullTableWorkload(seed=11, size=2 * SCATTER_SLOTS)
    assert largest.scattered_count == SCATTER_SLOTS
    last = largest.prefix_at(largest.size - 1)
    assert last == reference_prefix_at(largest, largest.size - 1)
    assert prefix_text(last).startswith("255.255.240.0/")
    assert list(islice(largest.keys(), largest.size - 1, largest.size)) \
        == [last]
    with pytest.raises(ValueError, match="scattered"):
        FullTableWorkload(seed=11, size=2 * SCATTER_SLOTS + 1)
    with pytest.raises(ValueError):
        FullTableWorkload(seed=11, size=1_400_000)
