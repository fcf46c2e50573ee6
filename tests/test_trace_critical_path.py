"""End-to-end critical-path assertions for the NSR hot path (DESIGN.md §10).

A traced :class:`TensorSystem` processes real UPDATE traffic; the trace
store must reconstruct, for every update, the causally ordered chain
receive → replicate → ack-release → apply → propagate, and the
delayed-ACK invariant (§3.1.1) must hold span-for-span: no ACK release
begins before its update's replication span closed.
"""

import pytest

from repro.metrics.show import show_trace
from repro.trace import DEFAULT_BUCKETS, PHASES

from conftest import build_tensor_fixture


@pytest.fixture(scope="module")
def traced():
    system, pair, remotes = build_tensor_fixture(
        seed=7, routes=40, neighbors=2, tracing=True, shared_vrf=True
    )
    return system, pair, remotes


def test_every_update_covers_all_five_phases(traced):
    system, _pair, _remotes = traced
    store = system.trace_store
    ids = store.update_ids(msg="UpdateMessage")
    assert len(ids) == 80  # 40 routes x 2 remotes
    for msg_id in ids:
        names = {span.name for span in store.critical_path(msg_id)}
        missing = [phase for phase in PHASES if phase not in names]
        assert not missing, f"trace {msg_id} missing phases {missing}"


def test_critical_path_is_causally_ordered(traced):
    system, _pair, _remotes = traced
    store = system.trace_store
    for msg_id in store.update_ids(msg="UpdateMessage"):
        chain = store.critical_path(msg_id)
        # Sorted by begin time: each span starts no earlier than its
        # predecessor.
        begins = [span.begin for span in chain]
        assert begins == sorted(begins)
        phases = {s.name: s for s in chain if s.name in PHASES}
        # The §3.1 pipeline: bytes are parsed (receive) before the
        # replication write is issued; the ACK may only be released
        # once that write is durable; re-propagation happens after the
        # Loc-RIB apply.  Apply runs concurrently with replication, so
        # only its *end* is ordered against propagate.
        assert phases["receive"].end <= phases["replicate"].begin
        assert phases["replicate"].end <= phases["ack_release"].begin
        assert phases["propagate"].begin >= phases["apply"].end
        # All spans in the chain either share the update's trace or
        # link back to it explicitly.
        for span in chain:
            assert (
                span.trace_id == msg_id
                or msg_id in span.attrs.get("links", ())
            )


def test_no_ack_released_before_replication_durable(traced):
    system, _pair, _remotes = traced
    store = system.trace_store
    assert store.delayed_ack_violations() == []
    # The oracle has teeth: corrupting one replicate span must trip it.
    victim = store.spans(name="replicate", ended=True)[0]
    original = victim.end
    try:
        victim.end = original + 10.0
        violations = store.delayed_ack_violations()
        assert any("ack_release" in problem for problem in violations)
    finally:
        victim.end = original
    assert store.delayed_ack_violations() == []


def test_held_acks_outlive_their_replication_write(traced):
    system, _pair, _remotes = traced
    store = system.trace_store
    holds = [
        span for span in store.spans(name="nfq.hold", ended=True)
        if "released_by" in span.attrs
    ]
    assert holds, "delayed-ACK path never engaged"
    replicate_end = {
        span.trace_id: span.end
        for span in store.spans(name="replicate", ended=True)
    }
    for span in holds:
        durable_at = replicate_end[span.attrs["released_by"]]
        assert span.end >= durable_at


def test_phase_metrics_export_and_histogram(traced):
    system, _pair, _remotes = traced
    store = system.trace_store
    for phase in PHASES:
        durations = store.durations(phase)
        assert durations, f"no ended spans for {phase}"
        assert all(value >= 0.0 for value in durations)
        hist = store.histogram(phase, buckets=DEFAULT_BUCKETS)
        assert sum(count for _bound, count in hist) == len(durations)


def test_show_trace_renders_summary_and_chain(traced):
    system, _pair, _remotes = traced
    store = system.trace_store
    summary = show_trace(store)
    for phase in PHASES:
        assert phase in summary
    msg_id = store.update_ids(msg="UpdateMessage")[0]
    chain_view = show_trace(store, msg_id=msg_id)
    assert "Critical path" in chain_view
    assert "replicate" in chain_view
    assert show_trace(None).startswith("tracing disabled")
