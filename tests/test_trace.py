"""Unit tests for the causal tracing layer (DESIGN.md §10).

Covers span nesting and trace-id inheritance, ambient context capture
through ``Engine.schedule``, cross-host propagation through the RPC
metadata channel, the disabled mode (no tracer, no event context), and
determinism of the recorded span stream under
``DeterministicRandom`` seeds.
"""

import os
import pathlib
import subprocess
import sys
from contextlib import contextmanager

import pytest

from repro.sim import Engine, Network
from repro.sim.rpc import RpcClient, RpcServer
from repro.trace import PHASES, Tracer


@contextmanager
def span(tracer, name, **attrs):
    """Open a span under the ambient one, make it ambient, and finish it
    on exit."""
    opened = tracer.begin(name, **attrs)
    with tracer.activate(opened):
        yield opened
    opened.finish()


@pytest.fixture
def traced_engine():
    engine = Engine()
    tracer = Tracer(engine)
    return engine, tracer


@pytest.fixture
def rpc_net(traced_engine):
    engine, tracer = traced_engine
    network = Network(engine)
    network.enable_fabric()
    a = network.add_host("a", "1.1.1.1")
    b = network.add_host("b", "1.1.1.2")
    return engine, tracer, a, b


# ----------------------------------------------------------------------
# span mechanics
# ----------------------------------------------------------------------

def test_span_nesting_inherits_trace_id(traced_engine):
    engine, tracer = traced_engine
    with span(tracer, "outer", kind="root") as outer:
        with span(tracer, "inner") as inner:
            assert inner.parent_id == outer.span_id
            assert inner.trace_id == outer.trace_id
            assert tracer.current is inner
        assert tracer.current is outer
    assert tracer.current is None
    assert outer.trace_id == outer.span_id  # roots name their own trace
    assert outer.end is not None and inner.end is not None
    assert outer.attrs["kind"] == "root"


def test_parent_none_forces_new_root(traced_engine):
    engine, tracer = traced_engine
    with span(tracer, "outer"):
        detached = tracer.begin("detached", parent=None)
        assert detached.trace_id == detached.span_id
        detached.finish()


def test_finish_is_idempotent_and_annotate_merges(traced_engine):
    engine, tracer = traced_engine
    span = tracer.begin("s", a=1)
    engine.advance(1.0)
    span.finish(outcome="first")
    first_end = span.end
    engine.advance(1.0)
    span.finish(outcome="second")
    assert span.end == first_end
    assert span.attrs["outcome"] == "first"
    span.annotate(b=2)
    assert span.attrs == {"a": 1, "outcome": "first", "b": 2}
    assert span.duration == pytest.approx(1.0)


def test_complete_records_backdated_begin(traced_engine):
    engine, tracer = traced_engine
    engine.advance(2.0)
    span = tracer.complete("phase", begin=0.5, parent=None)
    assert span.begin == 0.5
    assert span.end == 2.0


# ----------------------------------------------------------------------
# ambient propagation through the event loop
# ----------------------------------------------------------------------

def test_schedule_captures_ambient_context(traced_engine):
    engine, tracer = traced_engine
    seen = []

    def later():
        child = tracer.begin("child")
        seen.append(child)
        child.finish()

    with span(tracer, "root") as root:
        engine.schedule(1.0, later)
    engine.run_until_idle()
    assert seen[0].trace_id == root.trace_id
    assert seen[0].parent_id == root.span_id


def test_context_does_not_leak_between_events(traced_engine):
    engine, tracer = traced_engine
    seen = []

    def unrelated():
        seen.append(tracer.current)

    with span(tracer, "root"):
        engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, unrelated)  # scheduled outside any span
    engine.run_until_idle()
    assert seen == [None]


# ----------------------------------------------------------------------
# RPC metadata propagation
# ----------------------------------------------------------------------

def test_rpc_server_span_joins_client_trace(rpc_net):
    engine, tracer, a, b = rpc_net
    RpcServer(engine, b, 7000,
              lambda method, body, respond: respond({"ok": True}))
    client = RpcClient(engine, a, "1.1.1.2", 7000)
    with span(tracer, "root") as root:
        client.call("ping", {}, on_reply=lambda _r: None)
    engine.run_until_idle()

    (client_span,) = tracer.store.spans(name="rpc.ping")
    (server_span,) = tracer.store.spans(name="rpc.server.ping")
    assert client_span.trace_id == root.trace_id
    assert server_span.trace_id == root.trace_id
    assert server_span.parent_id == client_span.span_id
    assert client_span.attrs["outcome"] == "reply"
    assert server_span.end >= server_span.begin > root.begin


def test_async_rpc_server_span_covers_deferred_reply(rpc_net):
    engine, tracer, a, b = rpc_net

    def handler(method, body, respond):
        engine.schedule(0.5, respond, {"deferred": True})

    RpcServer(engine, b, 7000, handler)
    client = RpcClient(engine, a, "1.1.1.2", 7000)
    with span(tracer, "root") as root:
        client.call("work", {}, on_reply=lambda _r: None)
    engine.run_until_idle()

    (server_span,) = tracer.store.spans(name="rpc.server.work")
    assert server_span.trace_id == root.trace_id
    assert server_span.duration >= 0.5


def test_rpc_timeout_annotates_client_span(rpc_net):
    engine, tracer, a, b = rpc_net
    # No server bound: the call must time out.
    client = RpcClient(engine, a, "1.1.1.2", 7000)
    client.call("void", {}, on_reply=lambda _r: None,
                on_timeout=lambda: None, timeout=0.2)
    engine.run_until_idle()
    (client_span,) = tracer.store.spans(name="rpc.void")
    assert client_span.attrs["outcome"] == "timeout"
    assert client_span.end is not None


# ----------------------------------------------------------------------
# disabled-mode fast path
# ----------------------------------------------------------------------

def test_disabled_engine_records_no_event_context():
    engine = Engine()  # no tracer installed
    engine.schedule(1.0, lambda: None)
    (event,) = engine.queued_events()
    assert event.ctx is None
    engine.run_until_idle()


def test_disabled_fixture_produces_zero_spans():
    from conftest import build_tensor_fixture

    system, _pair, _remotes = build_tensor_fixture(seed=7, routes=5)
    assert system.tracer is None
    assert system.trace_store is None
    assert system.engine._trace_hook is None


#: Builds and runs the standard lab untraced, then names every
#: ``repro.trace`` module the run loaded.
UNTRACED_LAB = """
import sys
from repro.config import build_system, lab_spec
system, _pairs, _remotes = build_system(lab_spec(0))
system.run(15)
print(sorted(m for m in sys.modules
             if m == "repro.trace" or m.startswith("repro.trace.")))
"""


def test_untraced_run_never_imports_trace():
    """Off costs nothing structurally: with ``engine._trace_hook`` the
    only switch, no module of an untraced deployment imports the
    tracing package."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", UNTRACED_LAB],
        capture_output=True, text=True, env=env, cwd=str(root),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

def _span_signature(store):
    return [
        (s.name, s.begin, s.end, s.trace_id, s.parent_id, sorted(s.attrs))
        for s in store.spans()
    ]


def test_traced_runs_are_deterministic():
    from conftest import build_tensor_fixture

    signatures = []
    for _ in range(2):
        system, _pair, _remotes = build_tensor_fixture(
            seed=11, routes=20, tracing=True
        )
        signatures.append(_span_signature(system.trace_store))
    assert signatures[0] == signatures[1]
    assert len(signatures[0]) > 0


# ----------------------------------------------------------------------
# store queries
# ----------------------------------------------------------------------

def test_store_filters_and_histogram(traced_engine):
    engine, tracer = traced_engine
    store = tracer.store
    for i in range(3):
        span = tracer.begin("apply", parent=None, shard=i % 2)
        engine.advance(0.001 * (i + 1))
        span.finish()
    open_span = tracer.begin("apply", parent=None, shard=0)

    assert len(store.spans(name="apply")) == 4
    assert len(store.spans(name="apply", shard=0)) == 3
    assert len(store.spans(name="apply", ended=True)) == 3
    assert store.spans(name="apply", ended=False) == [open_span]
    assert store.durations("apply") == pytest.approx([0.001, 0.002, 0.003])

    summary = store.phase_summary()["apply"]
    assert summary["count"] == 3
    assert (summary["min"], summary["max"]) == pytest.approx((0.001, 0.003))

    assert PHASES == ("receive", "replicate", "ack_release", "apply",
                      "propagate")
