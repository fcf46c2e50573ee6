"""Per-message lock manager (the §3.1.2 multi-thread write ordering)."""

import pytest

from repro.kvstore import LockManager


def test_free_lock_granted_synchronously():
    locks = LockManager()
    granted = []
    locks.acquire("conn1", "main", lambda: granted.append("main"))
    assert granted == ["main"]
    assert locks.holder("conn1") == "main"


def test_contended_lock_queues_fifo():
    locks = LockManager()
    order = []
    locks.acquire("c", "t1", lambda: order.append("t1"))
    locks.acquire("c", "t2", lambda: order.append("t2"))
    locks.acquire("c", "t3", lambda: order.append("t3"))
    assert order == ["t1"]
    locks.release("c", "t1")
    assert order == ["t1", "t2"]
    locks.release("c", "t2")
    assert order == ["t1", "t2", "t3"]
    locks.release("c", "t3")
    assert locks.holder("c") is None


def test_different_connections_never_contend():
    locks = LockManager()
    granted = []
    locks.acquire("conn1", "main", lambda: granted.append(1))
    locks.acquire("conn2", "keepalive", lambda: granted.append(2))
    assert granted == [1, 2]
    assert locks.contentions == 0


def test_contention_counter():
    locks = LockManager()
    locks.acquire("c", "a", lambda: None)
    locks.acquire("c", "b", lambda: None)
    assert locks.contentions == 1


def test_release_by_non_holder_raises():
    locks = LockManager()
    locks.acquire("c", "a", lambda: None)
    with pytest.raises(RuntimeError):
        locks.release("c", "b")


def test_release_unheld_raises():
    locks = LockManager()
    with pytest.raises(RuntimeError):
        locks.release("c", "a")


def test_queue_length():
    locks = LockManager()
    locks.acquire("c", "a", lambda: None)
    locks.acquire("c", "b", lambda: None)
    locks.acquire("c", "d", lambda: None)
    assert locks.contentions == 2  # b and d wait behind a
    assert locks.holder("other") is None


def test_held_keys():
    locks = LockManager()
    locks.acquire("x", "a", lambda: None)
    locks.acquire("y", "a", lambda: None)
    assert locks.held_keys() == {"x", "y"}
    locks.release("x", "a")
    assert locks.held_keys() == {"y"}


def test_main_and_keepalive_interleaving_scenario():
    """The paper's race: main + keepalive writes for one connection must
    serialize in request order; across connections they interleave."""
    locks = LockManager()
    log = []

    def writer(conn, thread):
        def write():
            log.append((conn, thread))
            locks.release(conn, thread)
        locks.acquire(conn, thread, write)

    writer("c1", "main-1")
    writer("c1", "ka-1")
    writer("c2", "main-2")
    writer("c1", "main-3")
    per_conn = [t for c, t in log if c == "c1"]
    assert per_conn == ["main-1", "ka-1", "main-3"]
    assert ("c2", "main-2") in log
