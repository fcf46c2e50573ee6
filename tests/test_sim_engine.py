"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Engine, SimulationError


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_schedule_and_run_fires_callback():
    engine = Engine()
    fired = []
    engine.schedule(1.0, fired.append, "x")
    engine.run_until_idle()
    assert fired == ["x"]
    assert engine.now == 1.0


def test_events_fire_in_time_order():
    engine = Engine()
    order = []
    engine.schedule(2.0, order.append, "late")
    engine.schedule(1.0, order.append, "early")
    engine.schedule(3.0, order.append, "latest")
    engine.run_until_idle()
    assert order == ["early", "late", "latest"]


def test_same_time_events_fire_fifo():
    engine = Engine()
    order = []
    for i in range(10):
        engine.schedule(1.0, order.append, i)
    engine.run_until_idle()
    assert order == list(range(10))


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    event = engine.schedule(1.0, fired.append, "x")
    event.cancel()
    engine.run_until_idle()
    assert fired == []


def test_cancel_is_idempotent():
    engine = Engine()
    event = engine.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    assert engine.run_until_idle() == 0


def test_run_until_stops_before_later_events():
    engine = Engine()
    fired = []
    engine.schedule(1.0, fired.append, "a")
    engine.schedule(5.0, fired.append, "b")
    engine.run(until=2.0)
    assert fired == ["a"]
    assert engine.now == 2.0  # clock advanced to the horizon


def test_run_until_then_resume():
    engine = Engine()
    fired = []
    engine.schedule(1.0, fired.append, "a")
    engine.schedule(5.0, fired.append, "b")
    engine.run(until=2.0)
    engine.run_until_idle()
    assert fired == ["a", "b"]
    assert engine.now == 5.0


def test_advance_moves_clock_by_duration():
    engine = Engine()
    engine.advance(3.5)
    assert engine.now == 3.5


def test_schedule_at_absolute_time():
    engine = Engine()
    engine.advance(2.0)
    times = []
    engine.inject(5.0, lambda: times.append(engine.now))
    engine.run_until_idle()
    assert times == [5.0]


def test_call_soon_runs_at_current_instant():
    engine = Engine()
    engine.advance(1.0)
    times = []
    engine.schedule(0.0, lambda: times.append(engine.now))
    engine.run_until_idle()
    assert times == [1.0]


def test_events_scheduled_during_run_execute():
    engine = Engine()
    fired = []

    def first():
        engine.schedule(1.0, fired.append, "second")

    engine.schedule(1.0, first)
    engine.run_until_idle()
    assert fired == ["second"]
    assert engine.now == 2.0


def test_stop_halts_loop():
    engine = Engine()
    fired = []
    engine.schedule(1.0, engine.stop)
    engine.schedule(2.0, fired.append, "x")
    engine.run()
    assert fired == []
    assert engine.pending() == 1


def test_max_events_bound():
    engine = Engine()
    for i in range(10):
        engine.schedule(i * 0.1, lambda: None)
    executed = engine.run(max_events=4)
    assert executed == 4


def test_run_until_idle_detects_runaway():
    engine = Engine()

    def loop():
        engine.schedule(0.0, loop)

    engine.schedule(0.0, loop)
    with pytest.raises(SimulationError):
        engine.run_until_idle(max_events=1000)


def test_reentrant_run_rejected():
    engine = Engine()

    def inner():
        engine.run()

    engine.schedule(0.1, inner)
    with pytest.raises(SimulationError):
        engine.run_until_idle()


def test_pending_counts_only_live_events():
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    cancelled = engine.schedule(2.0, lambda: None)
    cancelled.cancel()
    assert engine.pending() == 1


def test_callback_args_passed_through():
    engine = Engine()
    got = []
    engine.schedule(0.1, lambda a, b: got.append((a, b)), 1, "two")
    engine.run_until_idle()
    assert got == [(1, "two")]


def test_run_stepped_observes_every_quantum():
    engine = Engine()
    seen = []
    fired = []
    engine.schedule(0.03, fired.append, "a")
    engine.schedule(0.18, fired.append, "b")
    executed = engine.run_stepped(0.2, seen.append)
    assert executed == 2
    assert fired == ["a", "b"]
    assert seen == pytest.approx([0.05, 0.1, 0.15, 0.2])
    assert engine.now == 0.2


def test_run_stepped_stop_aborts_after_current_slice():
    engine = Engine()
    seen = []

    def observer(now):
        seen.append(now)
        if now >= 0.1:
            engine.stop()

    engine.run_stepped(10.0, observer)
    assert seen == pytest.approx([0.05, 0.1])
    assert engine.now == 0.1


# ----------------------------------------------------------------------
# same-instant ordering: FIFO by schedule order on every path
# ----------------------------------------------------------------------

def test_cancelling_one_event_spares_the_rest_of_its_instant():
    # Cancellation is strictly per-event, wherever in the instant's
    # FIFO order the cancelled event sits.
    engine = Engine()
    order = []
    first = engine.schedule(1.0, order.append, "first")
    engine.schedule(1.0, order.append, "m1")
    middle = engine.schedule(1.0, order.append, "middle")
    engine.schedule(1.0, order.append, "m2")
    first.cancel()
    middle.cancel()
    engine.run_until_idle()
    assert order == ["m1", "m2"]
    assert engine.now == 1.0


def test_schedule_onto_cancelled_events_instant_still_fires():
    engine = Engine()
    fired = []
    head = engine.schedule(1.0, fired.append, "head")
    head.cancel()
    late = engine.schedule(1.0, fired.append, "late")
    engine.run_until_idle()
    assert fired == ["late"]
    assert not late.cancelled
    assert late.fired and not head.fired


def test_cancelled_event_leaves_nothing_queued_behind():
    engine = Engine()
    fired = []
    head = engine.schedule(1.0, fired.append, "head")
    head.cancel()
    assert engine.run_until_idle() == 0
    assert list(engine.queued_events()) == []
    engine.schedule(1.0, fired.append, "fresh")
    engine.run_until_idle()
    assert fired == ["fresh"]


def test_same_instant_fifo_includes_events_scheduled_while_it_fires():
    # An event scheduled for the instant that is firing lands after
    # everything already queued for that instant, never in between.
    engine = Engine()
    order = []

    def first():
        order.append("first")
        engine.schedule(0.0, order.append, "spawned")

    engine.schedule(1.0, first)
    engine.schedule(1.0, order.append, "second")
    engine.schedule(1.0, order.append, "third")
    engine.run_until_idle()
    assert order == ["first", "second", "third", "spawned"]
    assert engine.now == 1.0


def test_stop_mid_instant_resumes_in_order():
    engine = Engine()
    order = []
    engine.schedule(1.0, engine.stop)
    for tag in ("a", "b", "c"):
        engine.schedule(1.0, order.append, tag)
    engine.run()
    assert order == []  # stop lands before the rest of the instant fires
    assert engine.pending() == 3
    engine.run_until_idle()
    assert order == ["a", "b", "c"]


def test_max_events_mid_instant_resumes_in_order():
    engine = Engine()
    order = []
    for tag in range(6):
        engine.schedule(1.0, order.append, tag)
    cancelled = engine.schedule(1.0, order.append, "cancelled")
    engine.schedule(1.0, order.append, 6)
    cancelled.cancel()
    assert engine.run(max_events=2) == 2
    assert order == [0, 1]
    # an event that joins the instant between two runs goes to the back
    engine.inject(1.0, order.append, "joined")
    assert engine.run(max_events=3) == 3
    assert order == [0, 1, 2, 3, 4]
    engine.run_until_idle()
    assert order == [0, 1, 2, 3, 4, 5, 6, "joined"]
    assert engine.now == 1.0


def test_injections_interleave_with_local_events_by_call_order():
    engine = Engine()
    order = []
    engine.schedule(1.0, order.append, "local-1")
    engine.inject(1.0, order.append, "injected-1")
    engine.schedule(1.0, order.append, "local-2")
    engine.inject(1.0, order.append, "injected-2")
    engine.inject(0.5, order.append, "earlier")
    engine.run_until_idle()
    assert order == ["earlier", "local-1", "injected-1", "local-2",
                     "injected-2"]


@pytest.mark.parametrize("delay", [-1e-9, -1, float("-inf"), float("inf"),
                                   float("nan")])
def test_bad_delay_rejected_and_queues_nothing(delay):
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(delay, lambda: None)
    assert list(engine.queued_events()) == []
    assert engine.next_event_time() is None


def test_schedule_at_past_instant_rejected():
    engine = Engine()
    engine.advance(2.0)
    with pytest.raises(SimulationError, match="past"):
        engine.inject(1.0, lambda: None)


# ----------------------------------------------------------------------
# the parallel runtime's engine surface: run_window / inject / next_id
# ----------------------------------------------------------------------

def test_run_window_lands_clock_exactly_on_barrier():
    engine = Engine()
    fired = []
    engine.schedule(0.5, fired.append, "in")
    engine.schedule(1.5, fired.append, "out")
    executed = engine.run_window(1.0)
    assert executed == 1
    assert fired == ["in"]
    assert engine.now == 1.0
    engine.run_window(2.0)
    assert fired == ["in", "out"]
    assert engine.now == 2.0


def test_run_window_rejects_backwards_barrier():
    engine = Engine()
    engine.advance(2.0)
    with pytest.raises(SimulationError):
        engine.run_window(1.0)


def test_inject_at_absolute_time_and_reject_past():
    engine = Engine()
    engine.advance(1.0)
    times = []
    engine.inject(2.5, lambda: times.append(engine.now))
    engine.run_until_idle()
    assert times == [2.5]
    with pytest.raises(SimulationError):
        engine.inject(1.0, lambda: None)


def test_injection_order_fixes_same_instant_interleaving():
    # Injections at an instant interleave with local events purely by
    # scheduling order — the property the deterministic barrier merge
    # relies on.
    engine = Engine()
    order = []
    engine.schedule(1.0, order.append, "local")
    engine.inject(1.0, order.append, "injected")
    engine.run_until_idle()
    assert order == ["local", "injected"]


def test_next_id_counters_are_engine_scoped():
    a, b = Engine(), Engine()
    assert a.next_id("tcp.isn", 1) == 1
    assert a.next_id("tcp.isn", 1) == 2
    assert a.next_id("bfd.disc", 1) == 1  # independent namespaces
    # a second engine in the same process starts from scratch: identifier
    # streams never leak between co-hosted simulations
    assert b.next_id("tcp.isn", 1) == 1


# ----------------------------------------------------------------------
# next-event queries and event scopes (adaptive parallel lookahead)
# ----------------------------------------------------------------------

def test_next_event_time_peeks_without_firing():
    engine = Engine()
    assert engine.next_event_time() is None
    engine.schedule(2.0, lambda: None)
    engine.schedule(1.0, lambda: None)
    assert engine.next_event_time() == 1.0
    assert engine.now == 0.0  # peeking never advances the clock
    engine.run_until_idle()
    assert engine.next_event_time() is None


def test_next_event_time_skips_cancelled_heads():
    engine = Engine()
    first = engine.schedule(1.0, lambda: None)
    engine.schedule(3.0, lambda: None)
    first.cancel()
    assert engine.next_event_time() == 3.0


def test_next_event_time_keeps_instant_whose_first_event_was_cancelled():
    # cancelling the first event of an instant must not hide the rest
    engine = Engine()
    fired = []
    head = engine.schedule(1.0, fired.append, "head")
    engine.schedule(1.0, fired.append, "member")
    head.cancel()
    assert engine.next_event_time() == 1.0
    engine.run_until_idle()
    assert fired == ["member"]


def test_scoped_events_are_tracked_per_scope():
    engine = Engine()
    with engine.scoped("wan"):
        engine.schedule(5.0, lambda: None)
    engine.schedule(0.5, lambda: None)  # unscoped noise
    assert engine.next_event_time() == 0.5
    assert engine.next_event_time("wan") == 5.0
    assert engine.next_event_time("other") is None


def test_scope_propagates_to_events_scheduled_by_scoped_callbacks():
    engine = Engine()
    fired = []

    def chained():
        fired.append(engine.now)
        if len(fired) < 3:
            engine.schedule(1.0, chained)  # inherits ambient "wan"

    with engine.scoped("wan"):
        engine.schedule(1.0, chained)
    engine.schedule(0.25, lambda: None)
    engine.run(until=1.5)
    # the transitively scheduled hop is visible under the scope
    assert engine.next_event_time("wan") == 2.0
    engine.run_until_idle()
    assert fired == [1.0, 2.0, 3.0]
    assert engine.next_event_time("wan") is None


def test_scope_does_not_leak_to_unscoped_schedules():
    engine = Engine()

    def scoped_event():
        pass

    with engine.scoped("wan"):
        engine.schedule(1.0, scoped_event)
    engine.run_until_idle()
    # after the loop, ambient scope is restored: a fresh schedule made
    # outside any scoped() block (e.g. at a window barrier) is unscoped
    engine.schedule(1.0, lambda: None)
    assert engine.next_event_time("wan") is None
    assert engine.next_event_time() == pytest.approx(2.0)


def test_scoped_next_event_skips_cancelled_and_fired():
    engine = Engine()
    with engine.scoped("s"):
        doomed = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
    doomed.cancel()
    assert engine.next_event_time("s") == 2.0
    engine.run_until_idle()
    assert engine.next_event_time("s") is None


def test_scoped_next_event_skips_fired_heads_before_the_scope_is_asked():
    # The scope heap is only cleaned when asked: by then its earliest
    # entries may have fired (in the global queue's order) or been
    # cancelled, in any mix, and the answer is the first live one.
    engine = Engine()
    with engine.scoped("s"):
        events = [engine.schedule(float(t), lambda: None) for t in range(1, 7)]
    engine.schedule(2.5, lambda: None)  # unscoped, never reported for "s"
    engine.run(until=2.5)  # fires t=1, t=2 and the unscoped one
    events[2].cancel()  # t=3
    assert [event.fired for event in events[:3]] == [True, True, False]
    assert engine.next_event_time("s") == 4.0
    assert engine.next_event_time() == 4.0
    events[3].cancel()
    events[4].cancel()
    assert engine.next_event_time("s") == 6.0
    events[5].cancel()
    assert engine.next_event_time("s") is None
    assert engine.next_event_time() is None


def test_scoped_events_keep_fifo_with_unscoped_ones_at_an_instant():
    engine = Engine()
    order = []
    engine.schedule(1.0, order.append, "plain-1")
    with engine.scoped("s"):
        engine.schedule(1.0, order.append, "scoped")
    engine.schedule(1.0, order.append, "plain-2")
    engine.run_until_idle()
    assert order == ["plain-1", "scoped", "plain-2"]
