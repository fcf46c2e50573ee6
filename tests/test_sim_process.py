"""Unit tests for simulated processes, timers, and periodic tasks."""

import gc
import weakref

import pytest

from repro.sim import Engine, Process, Timer
from repro.sim.engine import Event, SimulationError


def test_process_after_schedules_work():
    engine = Engine()
    process = Process(engine, "p")
    fired = []
    process.after(1.0, fired.append, "x")
    engine.run_until_idle()
    assert fired == ["x"]


def test_killed_process_cancels_pending_work():
    engine = Engine()
    process = Process(engine, "p")
    fired = []
    process.after(1.0, fired.append, "x")
    process.kill()
    engine.run_until_idle()
    assert fired == []
    assert not process.alive


def test_dead_process_cannot_schedule():
    engine = Engine()
    process = Process(engine, "p")
    process.kill()
    with pytest.raises(SimulationError):
        process.after(1.0, lambda: None)


def test_crash_is_alias_for_kill():
    engine = Engine()
    process = Process(engine, "p")
    process.crash()
    assert not process.alive


def test_revive_allows_scheduling_again():
    engine = Engine()
    process = Process(engine, "p")
    process.kill()
    process.revive()
    fired = []
    process.after(0.5, fired.append, 1)
    engine.run_until_idle()
    assert fired == [1]


def test_kill_mid_run_stops_callbacks():
    engine = Engine()
    process = Process(engine, "p")
    fired = []
    process.after(1.0, lambda: (fired.append("a"), process.kill()))
    process.after(2.0, fired.append, "b")
    engine.run_until_idle()
    assert fired == [("a", None)] or fired[0][0] == "a"
    assert "b" not in fired


def test_every_repeats_until_killed():
    engine = Engine()
    process = Process(engine, "p")
    ticks = []
    process.every(1.0, lambda: ticks.append(engine.now))
    engine.run(until=5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
    process.kill()
    engine.run(until=10.0)
    assert len(ticks) == 5


def test_periodic_task_stop():
    engine = Engine()
    process = Process(engine, "p")
    ticks = []
    task = process.every(1.0, lambda: ticks.append(1))
    engine.run(until=2.5)
    task.stop()
    engine.run(until=10.0)
    assert len(ticks) == 2


def test_periodic_restart_before_stale_tick_keeps_one_chain():
    # stop() leaves its tick pending; a start() before that tick fires
    # must not leave two chains ticking at double rate.
    engine = Engine()
    process = Process(engine, "p")
    ticks = []
    task = process.every(1.0, lambda: ticks.append(engine.now))
    engine.run(until=2.5)
    task.stop()
    task.start()  # the t=3.0 tick of the first chain is still queued
    executed = engine.run(until=6.6)
    assert ticks == [1.0, 2.0, 3.5, 4.5, 5.5, 6.5]
    assert task.ticks == 6
    # the stale tick still fired (as a no-op): no event added or cancelled
    assert executed == 5
    assert engine.pending() == 1


def test_periodic_stop_then_start_from_its_own_callback():
    engine = Engine()
    process = Process(engine, "p")
    ticks = []

    def tick():
        ticks.append(engine.now)
        if len(ticks) == 2:
            task.stop()
            task.start()

    task = process.every(1.0, tick)
    engine.run(until=5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert engine.pending() == 1


def test_periodic_start_on_dead_process_rejected():
    engine = Engine()
    process = Process(engine, "p")
    task = process.every(1.0, lambda: None)
    process.kill()
    with pytest.raises(SimulationError):
        task.start()
    with pytest.raises(SimulationError):
        process.every(1.0, lambda: None)
    assert engine.pending() == 0


def test_periodic_interval_must_be_positive():
    engine = Engine()
    process = Process(engine, "p")
    with pytest.raises(SimulationError):
        process.every(0.0, lambda: None)


def test_timer_fires_once():
    engine = Engine()
    fired = []
    timer = Timer(engine, lambda: fired.append(engine.now))
    timer.start(2.0)
    engine.run_until_idle()
    assert fired == [2.0]
    assert timer.fired_count == 1
    assert not timer.armed


def test_timer_restart_replaces_deadline():
    engine = Engine()
    fired = []
    timer = Timer(engine, lambda: fired.append(engine.now))
    timer.start(2.0)
    engine.advance(1.0)
    timer.restart(2.0)  # now fires at t=3
    engine.run_until_idle()
    assert fired == [3.0]


def test_timer_stop_prevents_fire():
    engine = Engine()
    fired = []
    timer = Timer(engine, lambda: fired.append(1))
    timer.start(1.0)
    timer.stop()
    engine.run_until_idle()
    assert fired == []


def test_timer_deadline_property():
    engine = Engine()
    timer = Timer(engine, lambda: None)
    assert timer.deadline is None
    timer.start(4.0)
    assert timer.deadline == 4.0
    timer.stop()
    assert timer.deadline is None


def test_timer_rearm_after_fire():
    engine = Engine()
    fired = []
    timer = Timer(engine, lambda: fired.append(engine.now))
    timer.start(1.0)
    engine.run_until_idle()
    timer.start(1.0)
    engine.run_until_idle()
    assert fired == [1.0, 2.0]
    assert timer.fired_count == 2


# ----------------------------------------------------------------------
# ownership: owned events are the pending ones, not the history
# ----------------------------------------------------------------------

def test_owned_events_bounded_by_pending_population_not_history():
    engine = Engine()
    process = Process(engine, "p")
    process.every(0.001, lambda: None)
    for delay in (100.0, 200.0, 300.0):
        process.after(delay, lambda: None)  # pending throughout
    longest = 0
    for _ in range(100):
        engine.advance(0.1)
        longest = max(longest, len(process._owned_events))
    assert engine.now == pytest.approx(10.0)
    pending = engine.pending()
    assert pending == 4
    assert longest <= max(Process._PRUNE_FLOOR, 2 * pending)
    live = [e for e in process._owned_events if not (e.fired or e.cancelled)]
    assert len(live) == pending


def test_owned_events_track_a_large_pending_population():
    # The prune threshold follows the survivors: many pending events do
    # not make every later after() rescan them.
    engine = Engine()
    process = Process(engine, "p")
    for index in range(1000):
        process.after(1000.0 + index, lambda: None)
    assert len(process._owned_events) == 1000
    assert process._prune_at >= 1000
    before = process._prune_at
    process.after(1.0, lambda: None)
    assert process._prune_at == before  # no rescan for one more event
    engine.run(until=1500.0)  # half of them fire
    for _ in range(2 * before):
        process.after(0.0, lambda: None)
        engine.run(until=engine.now)
    assert len(process._owned_events) <= 2 * engine.pending()


class _Payload:
    """Rides in an event's args: it dies when the event does (``Event``
    is slotted and takes no weak reference itself)."""


def test_fired_event_is_freed_without_the_cyclic_collector():
    engine = Engine()
    process = Process(engine, "p")
    gc.collect()
    gc.disable()
    try:
        payload = _Payload()
        fired = weakref.ref(payload)
        process.after(0.5, lambda _payload: None, payload)
        del payload
        process.every(1.0, lambda: None)
        engine.run(until=0.75)
        assert fired() is not None  # fired, but not yet pruned
        engine.run(until=10_000.5)
        assert fired() is None
        # the tick chain's own fired events are gone as well
        events = [o for o in gc.get_objects() if isinstance(o, Event)]
        assert len(events) <= Process._PRUNE_FLOOR
    finally:
        gc.enable()


def test_kill_after_long_run_cancels_every_pending_event():
    engine = Engine()
    process = Process(engine, "p")
    fired = []
    process.every(0.001, fired.append, "tick")
    process.every(0.007, fired.append, "slow")
    engine.run(until=10.0005)
    far = [process.after(delay, fired.append, "far") for delay in (1.0, 50.0)]
    count = len(fired)
    assert count == 10000 + 1428
    owned = [e for e in engine.queued_events() if not e.cancelled]
    assert len(owned) == 4
    process.kill()
    assert all(event.cancelled for event in owned + far)
    assert engine.pending() == 0
    assert process._owned_events == []
    assert engine.run(until=100.0) == 0
    assert len(fired) == count


def test_revive_does_not_resurrect_pre_kill_events():
    engine = Engine()
    process = Process(engine, "p")
    fired = []
    process.after(1.0, fired.append, "old")
    task = process.every(0.5, fired.append, "old-tick")
    process.kill()
    process.revive()
    process.after(2.0, fired.append, "new")
    engine.run(until=5.0)
    assert fired == ["new"]
    # the task object survives the kill and can be started again
    task.start()
    engine.run(until=6.1)
    assert fired == ["new", "old-tick", "old-tick"]
