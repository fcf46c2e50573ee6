"""Runtime-level guarantees of the one barrier transport.

Frames cross worker processes as one pickle per destination shard over
the control pipes; nothing else is configurable.  These tests pin the
runner's option surface and that no run — clean, crashed mid-window,
or failed while starting its workers — leaves a child process or a
``/dev/shm`` segment behind.
"""

import glob
import multiprocessing
import threading

import pytest

from repro.sim.parallel import BoundaryLink, ParallelRunner, ShardSpec
from test_parallel_runtime import LATENCY, build_ping, crash_pair_specs, ping_specs


def _shm_entries():
    return set(glob.glob("/dev/shm/rppar-*"))


def test_runner_rejects_unknown_transport():
    # specs, workers and worker_join_timeout are the whole signature
    with pytest.raises(TypeError):
        ParallelRunner(ping_specs(), workers=2, transport="pipe")


def test_transports_produce_identical_results():
    # in-process frames pass by reference, spawned workers pickle them
    # once per destination shard: the simulation must not notice
    local = ParallelRunner(ping_specs(), workers=1).run(1.5)
    spawned = ParallelRunner(ping_specs(), workers=2).run(1.5)
    assert local.shard_results == spawned.shard_results
    assert local.window_edges == spawned.window_edges
    assert local.transport["frames"] == spawned.transport["frames"]
    assert local.transport["bytes"] == 0 < spawned.transport["bytes"]


def test_clean_run_leaves_no_shm_segments():
    before = _shm_entries()
    ParallelRunner(ping_specs(), workers=2).run(1.0)
    assert _shm_entries() == before
    assert multiprocessing.active_children() == []


def test_worker_crash_under_shm_raises_and_leaves_no_segments():
    before = _shm_entries()
    with pytest.raises(RuntimeError, match="kaboom mid-window"):
        ParallelRunner(crash_pair_specs(), workers=2).run(2.0)
    assert _shm_entries() == before
    assert multiprocessing.active_children() == []


def test_worker_start_failure_leaves_no_children_or_segments():
    # the second shard's params cannot be pickled for the spawn, so the
    # second worker fails inside Process.start() after the first one is
    # already running: the run must raise and still reap the first
    specs = ping_specs()
    specs[1] = ShardSpec(
        "B", build_ping,
        {"addr": "10.0.0.2", "peer": "10.0.0.1", "lock": threading.Lock()},
        links=[BoundaryLink("10.0.0.2", "10.0.0.1", "A", LATENCY)],
    )
    before = _shm_entries()
    with pytest.raises(TypeError, match="pickle"):
        ParallelRunner(specs, workers=2).run(1.0)
    assert multiprocessing.active_children() == []
    assert _shm_entries() == before
