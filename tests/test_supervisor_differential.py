"""The sleeping supervisor against the poller it replaced.

``AppSupervisor`` keeps the old poll grid but turns a poll into an engine
event only when a supervised process has reported its own exit.  The old
fixed-interval poller (:class:`tests.supervisor_reference.ReferencePoller`)
runs beside it on the same pair — same start instant, so the same grid —
and the two must report the same ``(instant, container, process)``
sequence with bit-equal floats: on the corpus seeds that carry an
application failure, and on hand-built cases around everything a poll
reads.  Every death here falls strictly between grid instants; an exact
tie is decided by the rule in ``AppSupervisor``'s docstring, where the
old outcome depended on which of two events had been scheduled first.
"""

import pytest

import repro.core.system as system_module
from repro.failures.chaos import generate_schedule, run_schedule
from repro.sim.process import Process

from conftest import build_tensor_fixture
from tests.supervisor_reference import shadowed


@pytest.fixture
def shadow(monkeypatch):
    """Every supervisor built while the fixture is live runs the
    reference beside it; returns (real, reference, supervisors)."""
    logs = ([], [], [])
    monkeypatch.setattr(system_module, "AppSupervisor", shadowed(*logs))
    return logs


@pytest.fixture
def pair(shadow):
    system, pair, _remotes = build_tensor_fixture(seed=7, routes=50)
    system.engine.advance(0.0037)  # off the 10 ms grid
    return pair


@pytest.mark.parametrize("seed,controller_chaos", [
    (0, False), (3, False), (8, False), (10, False), (14, True),
])
def test_corpus_seed_reports_match_the_reference(shadow, seed, controller_chaos):
    real, reference, supervisors = shadow
    result = run_schedule(
        generate_schedule(seed, controller_chaos=controller_chaos))
    assert not result.violations and result.completed
    assert real, "the seed no longer carries an application failure"
    assert real == reference
    # the reference polled throughout; the supervisor only around deaths
    assert sum(s.reference.polls for s in supervisors) > 1000
    assert sum(s.polls for s in supervisors) < 0.7 * sum(
        s.reference.polls for s in supervisors)


def test_death_while_supervision_is_suppressed(shadow, pair):
    real, reference, _ = shadow
    pair._suppress_supervision = True
    pair.inject_application_failure()
    died = pair.engine.now
    pair.engine.advance(0.5)
    assert real == reference == []
    pair._suppress_supervision = False
    pair.engine.advance(0.0313)
    assert len(real) == 1 and real == reference
    assert real[0][1:] == ("pair0-a", "bgp")
    assert 0.5 < real[0][0] - died < 0.5 + pair.supervisor.interval


def test_death_during_restart_application(shadow, pair):
    real, reference, _ = shadow
    engine = pair.engine
    first = pair.speaker
    pair.inject_application_failure()
    while pair.speaker is first:  # until _app_restarted builds the new runtime
        engine.advance(0.0173)
    engine.advance(0.0531)  # the new processes are alive: dormant again
    assert pair._suppress_supervision and len(real) == 1
    assert not pair.supervisor._armed
    pair.bfd.crash()  # the new incarnation, while recovery is still running
    engine.advance(40.0)
    # reported once recovery finished and cleared the latch, then restarted
    assert len(real) == 2 and real == reference
    assert [entry[2] for entry in real] == ["bgp", "bfd"]
    assert pair.bfd.alive and pair.established_session_count() == 1


def test_bgp_then_bfd_three_milliseconds_apart(shadow, pair):
    real, reference, _ = shadow
    pair.inject_application_failure()
    pair.engine.advance(0.003)
    pair.bfd.crash()
    pair.engine.advance(40.0)
    assert real == reference
    assert [entry[2] for entry in real] == ["bgp"]  # one restart mends both
    assert pair.bfd.alive and pair.established_session_count() == 1


def test_death_after_twenty_quiet_seconds(shadow, pair):
    real, reference, supervisors = shadow
    pair.engine.advance(20.0)
    assert supervisors[-1].polls == 1  # the first poll after start(), no more
    pair.inject_application_failure()
    died = pair.engine.now
    pair.engine.advance(0.05)
    assert len(real) == 1 and real == reference
    assert 0.0 < real[0][0] - died <= pair.supervisor.interval


def test_death_before_start(shadow, pair):
    real, reference, _ = shadow
    pair.supervisor.stop()
    pair.supervisor = system_module.AppSupervisor(pair)
    pair.inject_application_failure()  # nobody is listening yet
    pair.engine.advance(0.0532)
    assert real == reference == []
    pair.supervisor.start()
    started = pair.engine.now
    pair.engine.advance(0.05)
    assert real == reference
    assert [entry[0] for entry in real] == [started + pair.supervisor.interval]


@pytest.mark.parametrize("gap", [0.004, 0.013])
def test_container_killed_under_a_dead_process(shadow, pair, gap):
    real, reference, _ = shadow
    pair.inject_application_failure()
    pair.engine.advance(gap)
    pair.inject_container_failure()
    pair.engine.advance(40.0)
    assert real == reference
    # a poll between the two deaths reports the process; one after both
    # leaves the dead container to the Docker monitor
    if gap > pair.supervisor.interval:
        assert [entry[2] for entry in real] == ["bgp"]
    assert len(real) <= 1
    assert pair.established_session_count() == 1


def test_graceful_shutdown_is_reported(shadow, pair):
    real, reference, _ = shadow
    pair.speaker.graceful_shutdown()
    pair.engine.advance(0.05)
    assert len(real) == 1 and real == reference
    assert real[0][2] == "bgp"


@pytest.mark.parametrize("death", ["crash", "stop"])
def test_bfd_exit_is_reported(shadow, pair, death):
    real, reference, _ = shadow
    getattr(pair.bfd, death)()
    pair.engine.advance(0.05)
    assert len(real) == 1 and real == reference
    assert real[0][2] == "bfd"


def test_an_established_pair_schedules_one_supervisor_event(monkeypatch):
    """Dormancy: with everything alive the supervisor's only event is the
    first poll after ``start()`` (the old poller: one every 10 ms)."""
    scheduled = []
    after = Process.after

    def counting(process, delay, callback, *args):
        if process.name.startswith("supervisor:"):
            scheduled.append(process.engine.now + delay)
        return after(process, delay, callback, *args)

    monkeypatch.setattr(Process, "after", counting)
    system, pair, _remotes = build_tensor_fixture(seed=7, routes=50)
    assert pair.established_session_count() == 1
    system.engine.advance(10.0)
    assert len(scheduled) == 1
    assert not pair.supervisor._armed
