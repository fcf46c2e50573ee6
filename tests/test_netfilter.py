"""Netfilter hook chains, verdicts and NFQUEUE behaviour."""

import pytest

from repro.netfilter import HookChain, HookPoint, NfQueue, Rule, Verdict
from repro.sim import Engine
from repro.sim.network import Packet


def _packet(dport=179):
    return Packet("1.1.1.1", "2.2.2.2", "tcp", 5000, dport, "seg", 100)


def test_empty_chain_uses_policy_accept():
    chain = HookChain(HookPoint.OUTPUT)
    assert chain.evaluate(_packet()) == (Verdict.ACCEPT, None)


def test_first_matching_rule_wins():
    chain = HookChain(HookPoint.OUTPUT)
    chain.append(Rule(lambda p: p.dport == 179, Verdict.DROP))
    chain.append(Rule(lambda p: True, Verdict.ACCEPT))
    assert chain.evaluate(_packet(179))[0] is Verdict.DROP
    assert chain.evaluate(_packet(80))[0] is Verdict.ACCEPT


def test_rule_hit_counters():
    chain = HookChain(HookPoint.OUTPUT)
    rule = chain.append(Rule(lambda p: p.dport == 179, Verdict.DROP))
    chain.evaluate(_packet(179))
    chain.evaluate(_packet(179))
    chain.evaluate(_packet(80))
    assert rule.hits == 2
    assert chain.evaluations == 3


def test_queue_rule_requires_queue_num():
    with pytest.raises(ValueError):
        Rule(lambda p: True, Verdict.QUEUE)


def test_queue_verdict_returns_queue_num():
    chain = HookChain(HookPoint.OUTPUT)
    chain.append(Rule(lambda p: True, Verdict.QUEUE, queue_num=7))
    assert chain.evaluate(_packet()) == (Verdict.QUEUE, 7)


def test_nfqueue_delivers_to_consumer():
    engine = Engine()
    nfq = NfQueue(engine)
    seen = []
    nfq.bind(1, seen.append)
    released = []
    nfq.enqueue(1, _packet(), released.append)
    engine.run_until_idle()  # the kernel->userspace copy takes time
    assert len(seen) == 1
    assert not seen[0].decided


def test_nfqueue_accept_releases_packet():
    engine = Engine()
    nfq = NfQueue(engine)
    held = []
    nfq.bind(1, held.append)
    released = []
    nfq.enqueue(1, _packet(), released.append)
    engine.run_until_idle()
    held[0].accept()
    engine.run_until_idle()  # the verdict round trip takes time
    assert len(released) == 1
    held[0].accept()  # idempotent
    engine.run_until_idle()
    assert len(released) == 1


def test_nfqueue_drop_discards():
    engine = Engine()
    nfq = NfQueue(engine)
    held = []
    nfq.bind(1, held.append)
    released = []
    nfq.enqueue(1, _packet(), released.append)
    engine.run_until_idle()
    held[0].drop()
    held[0].accept()  # too late: already decided
    engine.run_until_idle()
    assert released == []


def test_nfqueue_unbound_queue_drops_like_kernel():
    engine = Engine()
    nfq = NfQueue(engine)
    released = []
    result = nfq.enqueue(3, _packet(), released.append)
    assert result is None
    assert released == []
    assert nfq.dropped_unbound == 1


def test_nfqueue_queued_at_timestamp():
    engine = Engine()
    engine.advance(2.5)
    nfq = NfQueue(engine)
    held = []
    nfq.bind(1, held.append)
    nfq.enqueue(1, _packet(), lambda p: None)
    engine.run_until_idle()
    assert held[0].queued_at == 2.5


def test_stack_egress_queue_and_release(engine, two_stacks):
    """End to end: a held pure ACK delays the sender's progress."""
    from conftest import make_tcp_pair

    sa, sb = two_stacks
    held = []

    def is_pure_ack(packet):
        seg = packet.payload
        return seg.has_ack and not seg.payload and not seg.syn and not seg.rst and not seg.fin

    client, accepted, received = make_tcp_pair(engine, sa, sb)
    sb.output_chain.append(Rule(is_pure_ack, Verdict.QUEUE, queue_num=1))
    sb.nfqueue.bind(1, held.append)
    client.send(b"z" * 100)
    engine.advance(0.5)
    assert bytes(received) == b"z" * 100  # data delivered to the app
    assert held  # but the ACK is held
    assert client.snd_una < client.snd_nxt  # sender still waiting
    for queued in held:
        queued.accept()
    engine.advance(0.5)
    assert client.snd_una == client.snd_nxt  # ACK arrived after release


def test_nfqueue_technology_delays():
    from repro.sim.calibration import EBPF_QUEUE_DELAY, NETFILTER_QUEUE_DELAY

    for tech, queue_delay in (("netfilter", NETFILTER_QUEUE_DELAY),
                              ("ebpf", EBPF_QUEUE_DELAY)):
        engine = Engine()
        nfq = NfQueue(engine, technology=tech)
        seen = []
        nfq.bind(1, lambda qp: seen.append(engine.now))
        nfq.enqueue(1, _packet(), lambda p: None)
        engine.run_until_idle()
        assert seen[0] == pytest.approx(queue_delay)


def test_nfqueue_rejects_unknown_technology():
    with pytest.raises(ValueError):
        NfQueue(Engine(), technology="dpdk")


def test_ebpf_faster_than_netfilter():
    from repro.sim.calibration import (
        EBPF_QUEUE_DELAY, EBPF_VERDICT_DELAY,
        NETFILTER_QUEUE_DELAY, NETFILTER_VERDICT_DELAY,
    )
    assert EBPF_QUEUE_DELAY < NETFILTER_QUEUE_DELAY
    assert EBPF_VERDICT_DELAY < NETFILTER_VERDICT_DELAY
