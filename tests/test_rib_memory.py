"""What a whole-table read of the Loc-RIB allocates (DESIGN.md §14).

The Loc-RIB keeps no second table: an export or a digest sorts the keys
and builds its rows straight from the shared paths, and longest-prefix
match keeps only a census of prefix lengths.  Measured with tracemalloc
on a 50,000-route table with every tenth prefix contested by a second
peer, ``rib_digest()`` and ``export_entries()`` may hold, beyond their
result, at most 16 bytes per route at their peak (the sorted key list
is 8), and ``lookup()`` may leave nothing behind that grows with the
table.  An index over the table (a trie, even of keys only) or a dict
per route built on the way to the digest's tuples breaks the bound.
"""

import gc
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.bgp import AsPath, LocRib, PathAttributes
from repro.bgp.prefixes import prefix_key
from repro.bgp.rib import Path
from repro.core.system import TensorSystem

ROUTES = 50_000
#: Peak bytes a whole-table read may hold beyond its result, per route.
READ_OVERHEAD_PER_ROUTE = 16


def _table():
    paths = [Path(PathAttributes(as_path=AsPath.sequence(64512, 64600 + i),
                                 next_hop="192.0.2.1"), "edge0")
             for i in range(64)]
    rival = Path(PathAttributes(as_path=AsPath.sequence(64513),
                                next_hop="192.0.2.2", med=5), "edge1")
    rib = LocRib()
    for index in range(ROUTES):
        key = prefix_key((10 << 24) + (index << 8), 24)
        rib.offer(key, paths[index % len(paths)])
        if index % 10 == 0:
            rib.offer(key, rival)
    assert len(rib) == ROUTES and len(rib._contested) == ROUTES // 10
    return rib


@pytest.fixture(scope="module")
def rib():
    return _table()


def _traced(read):
    """``(result, bytes the result holds, peak bytes held beyond it)``."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = read()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current - base, peak - current


def _rib_digest(rib):
    """``TensorSystem.rib_digest`` of a system with one pair whose only
    VRF holds ``rib``."""
    speaker = SimpleNamespace(vrfs={"v0": SimpleNamespace(loc_rib=rib)})
    system = SimpleNamespace(pairs={"pair0": SimpleNamespace(speaker=speaker)})
    return TensorSystem.rib_digest(system)


@pytest.mark.parametrize("read", ["rib_digest", "export_entries"])
def test_whole_table_read_holds_its_result_and_no_more(rib, read):
    reader = {"rib_digest": lambda: _rib_digest(rib),
              "export_entries": rib.export_entries}[read]
    result, held, overhead = _traced(reader)
    rows = len(result[("pair0", "v0")]) if read == "rib_digest" else len(result)
    assert rows == ROUTES + ROUTES // 10
    assert held > 0
    assert overhead <= READ_OVERHEAD_PER_ROUTE * ROUTES, overhead / ROUTES


def test_lookup_leaves_nothing_that_grows_with_the_table():
    rib = _table()
    attributes = set(vars(rib))
    probe = prefix_key((10 << 24) + (77 << 8) + 9, 32)
    route, held, _overhead = _traced(lambda: rib.lookup(probe))
    assert route.prefix == prefix_key((10 << 24) + (77 << 8), 24)
    assert set(vars(rib)) == attributes
    assert rib._lengths == ([24], [])
    # The route handed out, and a census of at most 33 + 129 lengths.
    assert held < 2048, held
