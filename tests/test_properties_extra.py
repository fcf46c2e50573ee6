"""Additional property-based tests: KV store model, coalescer durability,
FIB longest-prefix match vs brute force, packing/attribute interactions."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bgp import Prefix
from repro.bgp.prefixes import prefix_text
from repro.forwarding.fib import Fib
from repro.core.replication import WriteCoalescer
from repro.kvstore import KeyValueStore, KvClient, KvServer
from repro.sim import DeterministicRandom, Engine, Network

_SETTINGS = dict(max_examples=30, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


# -- KV store vs dict model -----------------------------------------------------

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.integers(0, 20), st.integers(0, 5)),
        st.tuples(st.just("delete"), st.integers(0, 20), st.just(0)),
        st.tuples(st.just("get"), st.integers(0, 20), st.just(0)),
    ),
    max_size=60,
)


@given(ops=_ops)
@settings(**_SETTINGS)
def test_store_matches_dict_model(ops):
    store = KeyValueStore()
    model = {}
    for op, key_num, value in ops:
        key = f"k{key_num}"
        if op == "set":
            store.set(key, value)
            model[key] = value
        elif op == "delete":
            removed = store.delete([key])
            assert removed == (1 if key in model else 0)
            model.pop(key, None)
        else:
            assert store.get(key) == model.get(key)
    assert len(store) == len(model)
    assert dict(store.scan("k")) == model


# -- coalescer durability ---------------------------------------------------------


@given(
    operations=st.lists(
        st.tuples(st.sampled_from(["set", "delete"]), st.integers(0, 15),
                  st.integers(0, 9)),
        min_size=1, max_size=50,
    )
)
@settings(**_SETTINGS)
def test_coalescer_converges_to_sequential_semantics(operations):
    """Whatever interleaving of sets/deletes is enqueued, after the engine
    drains, the server holds exactly what last-write-wins predicts."""
    engine = Engine()
    network = Network(engine)
    network.enable_fabric()
    client_host = network.add_host("c", "1.1.1.1")
    server = KvServer(engine, network.add_host("s", "1.1.1.2"))
    coalescer = WriteCoalescer(KvClient(engine, client_host, "1.1.1.2"))
    model = {}
    for op, key_num, value in operations:
        key = f"k{key_num}"
        if op == "set":
            coalescer.set(key, value)
            model[key] = value
        else:
            coalescer.delete(key)
            model.pop(key, None)
    engine.run_until_idle()
    assert dict(server.store.scan("k")) == model
    assert coalescer.backlog == 0


# -- FIB longest-prefix match vs brute force ----------------------------------------------------


@st.composite
def prefix_strategy(draw):
    length = draw(st.integers(0, 32))
    value = draw(st.integers(0, 2**32 - 1))
    return Prefix(value, length)


@given(entries=st.lists(prefix_strategy(), max_size=25),
       queries=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=10))
@settings(**_SETTINGS)
def test_trie_longest_match_equals_bruteforce(entries, queries):
    fib = Fib()
    table = {}
    for index, prefix in enumerate(entries):
        fib.program(prefix, index)
        table[prefix] = index  # duplicate prefixes: last wins, like the FIB
    for address in queries:
        host = Prefix(address, 32)
        expected = None
        for prefix, value in table.items():
            if prefix.contains(host):
                if expected is None or prefix.length > expected[0].length:
                    expected = (prefix, value)
        entry = fib.lookup(prefix_text(host))
        assert (None if entry is None
                else (entry.prefix, entry.next_hop)) == expected


@given(entries=st.lists(prefix_strategy(), max_size=25, unique_by=lambda p: (p.value, p.length)))
@settings(**_SETTINGS)
def test_trie_remove_restores_previous_state(entries):
    fib = Fib()
    for index, prefix in enumerate(entries):
        fib.program(prefix, index)
    for prefix in entries:
        assert prefix in fib
        fib.unprogram(prefix)
    assert len(fib) == 0 and fib.entries() == {}
    for prefix in entries:
        assert prefix not in fib
        assert fib.lookup(prefix_text(prefix)) is None


# -- BFD timing property --------------------------------------------------------------


@given(tx_interval=st.floats(0.02, 0.5), detect_mult=st.integers(2, 5),
       seed=st.integers(0, 2**16))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_bfd_detection_bounded_by_mult_times_interval(tx_interval, detect_mult, seed):
    from repro.bfd import BfdProcess, BfdState

    engine = Engine()
    rng = DeterministicRandom(seed)
    network = Network(engine)
    a = network.add_host("a", "10.0.0.1")
    b = network.add_host("b", "10.0.0.2")
    network.connect(a, b, latency=1e-4, bandwidth=1e9)
    pa = BfdProcess(engine, a, rng=rng.stream("a"))
    pb = BfdProcess(engine, b, rng=rng.stream("b"))
    pa.add_session("v", "10.0.0.2", tx_interval=tx_interval, detect_mult=detect_mult)
    sb = pb.add_session("v", "10.0.0.1", tx_interval=tx_interval, detect_mult=detect_mult)
    pa.start()
    pb.start()
    engine.advance(tx_interval * 10)
    if sb.state is not BfdState.UP:
        return  # session did not form in the window; nothing to measure
    crash_time = engine.now
    pa.crash()
    engine.advance(tx_interval * (detect_mult + 3))
    assert sb.state is BfdState.DOWN
    detection = sb.last_down_at - crash_time
    # bounded by detect_mult x interval plus one in-flight packet's grace
    assert detection <= detect_mult * tx_interval + tx_interval + 0.01
