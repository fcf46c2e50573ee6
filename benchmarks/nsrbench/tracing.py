"""Per-layer host-time attribution, patched in from outside ``src/repro``.

A layer is one of the repo's modules (``LAYER_MODULES``).  The tracer
patches two things and restores both on :meth:`LayerTracer.uninstall`:

- ``Engine.schedule``: every callback then runs in a span whose layer is
  the module that defines the callback, and whose recorded parent is the
  span that was active when it was scheduled (the causal parent);
- the ``BOUNDARIES`` table of ``Class.method`` entry points, for the
  synchronous calls that cross from one layer into another.  Parameters
  of those methods named ``on_*`` or ``callback`` are completion
  callbacks; they are wrapped the same way as scheduled ones, so a KV
  reply that runs replication code is charged to replication, not to
  the RPC layer that delivered it.

``Event.cancel`` is wrapped to count cancellations, and the collector is
timed through ``gc.callbacks`` as a layer of its own (``python.gc``).

Symbols are resolved by name at install time.  One that no longer exists
is logged and skipped: its time then stays with the caller's layer (or
in ``run.untraced_share``), and the run itself is unaffected.

A span is ``(id, parent, layer, name, t0, t1)``.  A layer's self time is
the sum over its spans of the span's duration minus the part of it that
spans nested inside it cover, so the self times of all layers plus the
untraced remainder add up to the wall time of the traced region.
"""

import functools
import gc
import importlib
import inspect
import json
import logging
import time

log = logging.getLogger("nsrbench.tracing")

#: layer -> the ``repro`` modules (or packages) it is made of.
LAYER_MODULES = {
    "sim.engine": ("sim.engine", "sim.process", "sim.rand", "sim.calibration"),
    "sim.network": ("sim.network",),
    "sim.rpc": ("sim.rpc",),
    "sim.parallel": ("sim.parallel",),
    "tcpsim": ("tcpsim",),
    "netfilter": ("netfilter",),
    "core.ack_matching": ("core.ack_matching",),
    "core.tensor_process": ("core.tensor_process",),
    "core.replication": ("core.replication",),
    "core.recovery": ("core.recovery", "core.system", "core.agent",
                      "core.splitting"),
    "bgp.codec": ("bgp.messages", "bgp.attributes", "bgp.capabilities",
                  "bgp.multiprotocol", "bgp.packing", "bgp.errors"),
    "bgp.rib": ("bgp.rib", "bgp.radix", "bgp.prefixes", "bgp.decision",
                "bgp.aggregation"),
    "bgp.speaker": ("bgp.speaker", "bgp.peer", "bgp.fsm", "bgp.policy",
                    "bgp.vrf"),
    "kvstore": ("kvstore",),
    "bfd": ("bfd",),
    "control": ("control",),
    "containers": ("containers",),
    "forwarding": ("forwarding",),
    "failures": ("failures",),
    "trace": ("trace",),
    "workloads": ("workloads",),
}
LAYERS = tuple(LAYER_MODULES)

#: The interpreter's cyclic collector.  A collection runs inside whichever
#: span happens to allocate next, so it is timed on its own and taken out
#: of that span: otherwise the most frequent timer would carry the cost
#: of every other layer's garbage.
GC = "python.gc"

#: The root span: time inside the traced region that no layer span covers.
UNTRACED = "untraced"

#: module -> class -> methods wrapped as layer boundaries.  The layer is
#: the module's.  Private names are listed where a packet or reply enters
#: a layer through a handler the layer registered itself.
BOUNDARIES = {
    "sim.engine": {"Engine": ("run",)},
    # The timer trampolines: with their callback parameter wrapped, a
    # tick is charged to the layer that owns the timer and only the
    # trampoline's own bookkeeping to the engine.
    "sim.process": {
        "Process": ("after",),
        "Timer": ("__init__",),
        "PeriodicTask": ("__init__",),
    },
    "sim.network": {"Host": ("send", "deliver"), "Network": ("transmit",)},
    "sim.rpc": {
        "RpcClient": ("call",),
        "DatagramSocket": ("sendto", "_deliver"),
    },
    "sim.parallel.runtime": {"ParallelRunner": ("run",)},
    "tcpsim.connection": {
        "TcpConnection": ("send", "on_segment", "_retransmit_head"),
    },
    "tcpsim.stack": {"TcpStack": ("emit", "connect", "_on_packet")},
    "netfilter.hooks": {"HookChain": ("evaluate",)},
    "netfilter.nfqueue": {
        "NfQueue": ("enqueue",),
        "QueuedPacket": ("accept", "drop"),
    },
    "core.ack_matching": {
        "TcpQueueThread": ("note_replicated", "when_confirmed",
                           "install_for_connection"),
    },
    "core.tensor_process": {
        "TensorBgpSpeaker": ("dispatch_received", "dispatch_send",
                             "stream_progress", "tcp_established"),
    },
    "core.replication": {
        "ReplicationPipeline": (
            "replicate_message", "record_rib_delta", "compact",
            "verify_read", "delete_message", "update_tcp_status",
            "write_session_record",
        ),
        "WriteCoalescer": ("set", "delete", "delete_many"),
    },
    "core.system": {
        "TensorSystem": ("__init__", "add_machine", "create_pair"),
        "TensorPair": ("start", "activate_backup", "restart_application",
                       "refresh_standby"),
    },
    "bgp.messages": {
        "MessageDecoder": ("feed",),
        "UpdateMessage": ("to_wire", "from_body"),
        "KeepaliveMessage": ("to_wire",),
        "OpenMessage": ("to_wire", "from_body"),
    },
    "bgp.rib": {
        "LocRib": ("offer", "retract", "lookup", "export_entries",
                   "export_prefix_entries", "export_entries_since"),
    },
    "bgp.peer": {
        "PeerSession": ("handle_message", "send_message", "transmit_wire",
                        "attach_connection", "start"),
    },
    "bgp.speaker": {
        "BgpSpeaker": (
            "dispatch_received", "dispatch_send", "best_paths_changed",
            "originate", "originate_many", "withdraw_originated",
            "readvertise", "start", "tcp_established", "stream_progress",
        ),
    },
    "kvstore.client": {
        "KvClient": ("get", "mget", "set", "mset", "delete", "scan", "ping"),
    },
    "kvstore.server": {"KvServer": ("_handle",)},
    "bfd.session": {"BfdSession": ("on_packet",)},
    "bfd.process": {"BfdProcess": ("_on_datagram",)},
    "control.detector": {
        "FailureDetector": (
            "note_machine_status", "note_process_dead",
            "note_container_dead", "note_container_grpc",
            "note_container_ipsla", "note_machine_grpc",
            "note_machine_agent_ipsla", "note_machine_peer_ipsla",
        ),
    },
    "failures.oracles": {"OracleSuite": ("check", "arm")},
    "failures.chaos": {"_PreparedRun": ("__init__",)},
    "workloads.fulltable": {"FullTableWorkload": ("build", "churn")},
    "workloads.fleet": {"FleetSiteProgram": ("__init__", "results")},
}

SPAN_CAP = 200_000


def layer_of_module(module_name):
    """The layer of a dotted module name, or ``None`` outside ``repro``."""
    if not module_name or not module_name.startswith("repro."):
        return None
    rest = module_name[len("repro."):]
    best = None
    for layer, modules in LAYER_MODULES.items():
        for module in modules:
            if rest == module or rest.startswith(module + "."):
                if best is None or len(module) > best[0]:
                    best = (len(module), layer)
    return best[1] if best else None


class _Completion:
    """A callback that runs in a span of the layer that defined it.

    One slotted object per wrapped callback, and no per-span container
    anywhere below: what the tracer allocates, the collector has to
    walk, and that would be charged to the layers being measured."""

    __slots__ = ("tracer", "name", "causal_parent", "target")

    def __init__(self, tracer, name, causal_parent, target):
        self.tracer = tracer
        self.name = name
        self.causal_parent = causal_parent
        self.target = target

    def __call__(self, *args, **kwargs):
        return self.tracer.span(self.name, self.causal_parent, self.target,
                                 args, kwargs)


class LayerTracer:
    """Aggregates span self time per layer; see the module docstring."""

    def __init__(self, span_cap=SPAN_CAP, clock=time.perf_counter):
        self.span_cap = span_cap
        self.clock = clock
        self.layer_names = list(LAYERS) + [GC, UNTRACED]
        self.layer_index = {n: i for i, n in enumerate(self.layer_names)}
        # per span name: the name, its layer, spans seen, their self time
        # (a layer's totals are the sums over its names)
        self.names = []
        self.name_index = {}
        self.name_layer = []
        self.calls = []
        self.name_self_s = []
        self.tallies = {"scheduled": 0, "cancelled": 0, "snapshot_chunks": 0}
        self.hold_ms = []          # virtual ms each held ACK waited
        self.spans = []            # flat: id, parent, name, t0, t1, id, ...
        self.open_ids = []         # the open spans, outermost first
        self.open_covered = []     # seconds of each that nested spans cover
        self.state = [False, 0]    # [recording?, next span id]
        self.missing = []          # boundary symbols that did not resolve
        self.wall_s = 0.0
        self._t_start = 0.0
        self._patched = []         # (owner, attribute, original)
        self._classified = {}
        self._gc_name = self.name_of("gc.collect", self.layer_index[GC])
        self._root_name = self.name_of("traced region",
                                       self.layer_index[UNTRACED])
        self._gc_began = 0.0

    # -- naming -------------------------------------------------------------

    def name_of(self, name, layer):
        key = (name, layer)
        index = self.name_index.get(key)
        if index is None:
            index = self.name_index[key] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
            self.calls.append(0)
            self.name_self_s.append(0.0)
        return index

    def _classify(self, func):
        """Name index of the function behind a callback."""
        key = getattr(func, "__code__", None) or type(func)
        name = self._classified.get(key)
        if name is None:
            module = getattr(func, "__module__", None) or type(func).__module__
            layer = self.layer_index.get(layer_of_module(module),
                                         self.layer_index[UNTRACED])
            qualname = getattr(func, "__qualname__", type(func).__qualname__)
            name = self._classified[key] = self.name_of(qualname, layer)
        return name

    # -- the span primitive ---------------------------------------------------

    def span(self, name, causal_parent, fn, args, kwargs):
        """Run ``fn`` in a span.  ``causal_parent`` is the recorded parent
        of a scheduled or completion callback; ``None`` records the
        enclosing span.  Self time always nests by enclosure."""
        state = self.state
        if not state[0]:
            return fn(*args, **kwargs)
        ids, covered = self.open_ids, self.open_covered
        sid = state[1]
        state[1] = sid + 1
        if causal_parent is None:
            causal_parent = ids[-1]
        ids.append(sid)
        covered.append(0.0)
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            ids.pop()
            duration = t1 - t0
            own = duration - covered.pop()
            covered[-1] += duration
            self.name_self_s[name] += own
            self.calls[name] += 1
            if sid < self.span_cap:
                self.spans += (sid, causal_parent, name, t0, t1)

    def _boundary(self, fn, name):
        """``fn`` as a boundary: a span per call, or per item for a
        generator function (its body runs when the caller iterates)."""
        span, wrap_callback = self.span, self._wrap_callback
        callback_params = _callback_params(fn)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    try:
                        item = span(name, None, next, (items,), {})
                    except StopIteration:
                        return
                    yield item
            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # wrapped even while not recording: a timer armed during
            # set-up may fire inside the traced region
            if callback_params:
                for position, param in callback_params:
                    if position < len(args):
                        if args[position] is not None:
                            args = list(args)
                            args[position] = wrap_callback(args[position])
                    elif kwargs.get(param) is not None:
                        kwargs[param] = wrap_callback(kwargs[param])
            return span(name, None, fn, args, kwargs)
        return traced

    def _wrap_callback(self, callback):
        """A completion callback handed to a boundary, as a span of the
        layer that defined it, caused by the span that handed it over."""
        if type(callback) is _Completion:
            return callback
        named = callback
        while isinstance(named, functools.partial):
            named = named.func
        named = getattr(named, "__func__", named)
        while hasattr(named, "__wrapped__"):
            named = named.__wrapped__
        causal_parent = self.open_ids[-1] if self.open_ids else -1
        return _Completion(self, self._classify(named), causal_parent, callback)

    # -- install / restore ----------------------------------------------------

    def _patch(self, owner, attribute, replacement):
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self):
        """Patch ``Engine.schedule`` and every boundary that resolves."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for module_name, classes in BOUNDARIES.items():
            layer = self.layer_index[layer_of_module("repro." + module_name)]
            try:
                module = importlib.import_module("repro." + module_name)
            except ImportError:
                self._note_missing(f"repro.{module_name}")
                continue
            for cls_name, methods in classes.items():
                cls = getattr(module, cls_name, None)
                for method in methods:
                    fn = cls.__dict__.get(method) if cls is not None else None
                    rewrap = None
                    if isinstance(fn, (classmethod, staticmethod)):
                        rewrap, fn = type(fn), fn.__func__
                    if not inspect.isfunction(fn):
                        self._note_missing(
                            f"repro.{module_name}:{cls_name}.{method}")
                        continue
                    traced = self._boundary(
                        fn, self.name_of(f"{cls_name}.{method}", layer))
                    self._patch(cls, method,
                                rewrap(traced) if rewrap else traced)
        self._install_schedule()
        self._install_specials()
        return self

    def _note_missing(self, symbol):
        self.missing.append(symbol)
        log.warning("boundary %s not found; its time stays with the caller",
                    symbol)

    def _install_schedule(self):
        engine_module = importlib.import_module("repro.sim.engine")
        engine_cls = engine_module.Engine
        original = engine_cls.__dict__["schedule"]
        schedule_name = self.name_of("Engine.schedule",
                                     self.layer_index["sim.engine"])
        ids, covered = self.open_ids, self.open_covered
        state, clock, tallies = self.state, self.clock, self.tallies
        calls, name_self_s = self.calls, self.name_self_s
        classify, span = self._classify, self.span
        no_kwargs = {}

        def fire(name, causal_parent, callback, *args):
            return span(name, causal_parent, callback, args, no_kwargs)

        @functools.wraps(original)
        def schedule(engine, delay, callback, *args):
            # Wrapped even while not recording: an event scheduled during
            # set-up may fire inside the traced region.
            func = getattr(callback, "__func__", None)
            inner = getattr(func, "__wrapped__", None)
            if inner is not None and not hasattr(inner, "__wrapped__"):
                # a boundary method scheduled directly (Host.deliver): run
                # the original, so the call is one span and not two
                args = (callback.__self__,) + args
                callback = func = inner
            elif type(callback) is _Completion:
                # Process.after wrapped it already: keep its one span
                return original(engine, delay, callback, *args)
            name = classify(func if func is not None else callback)
            if not state[0]:
                return original(engine, delay, fire, name, -1, callback, *args)
            t0 = clock()
            event = original(engine, delay, fire, name, ids[-1], callback,
                             *args)
            duration = clock() - t0
            covered[-1] += duration
            name_self_s[schedule_name] += duration
            calls[schedule_name] += 1
            tallies["scheduled"] += 1
            return event

        self._patch(engine_cls, "schedule", schedule)

        event_cls = engine_module.Event
        cancel = event_cls.__dict__["cancel"]

        @functools.wraps(cancel)
        def counted_cancel(event):
            if state[0] and not event.cancelled and not event.fired:
                tallies["cancelled"] += 1
            cancel(event)

        self._patch(event_cls, "cancel", counted_cancel)

    def _install_specials(self):
        """Counts that need a call's result, not just that it happened:
        each wraps the boundary wrapper installed above."""
        tallies, state, hold_ms = self.tallies, self.state, self.hold_ms
        holds = {}  # QueuedPacket still held -> its engine

        def compact(traced):
            def compact(pipeline, *args, **kwargs):
                before = pipeline.snapshot_chunks_written
                try:
                    return traced(pipeline, *args, **kwargs)
                finally:
                    if state[0]:
                        tallies["snapshot_chunks"] += (
                            pipeline.snapshot_chunks_written - before)
            return compact

        def enqueue(traced):
            def enqueue(nfqueue, *args, **kwargs):
                queued = traced(nfqueue, *args, **kwargs)
                if state[0] and queued is not None:
                    holds[queued] = nfqueue.engine
                return queued
            return enqueue

        def verdict(traced):
            def decide(queued):
                engine = holds.pop(queued, None)
                if engine is not None and not queued.decided:
                    hold_ms.append((engine.now - queued.queued_at) * 1e3)
                return traced(queued)
            return decide

        for module_name, cls_name, method, make in (
            ("core.replication", "ReplicationPipeline", "compact", compact),
            ("netfilter.nfqueue", "NfQueue", "enqueue", enqueue),
            ("netfilter.nfqueue", "QueuedPacket", "accept", verdict),
            ("netfilter.nfqueue", "QueuedPacket", "drop", verdict),
        ):
            try:
                cls = getattr(
                    importlib.import_module("repro." + module_name), cls_name)
                traced = cls.__dict__[method]
            except (ImportError, AttributeError, KeyError):
                continue  # already reported by the boundary table
            self._patch(cls, method, functools.wraps(traced)(make(traced)))

    def uninstall(self):
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- the traced region ------------------------------------------------------

    def start(self):
        self.open_ids.append(-1)
        self.open_covered.append(0.0)
        gc.callbacks.append(self._on_gc)
        self.state[0] = True
        self._t_start = self.clock()

    def stop(self):
        end = self.clock()
        self.state[0] = False
        gc.callbacks.remove(self._on_gc)
        self.open_ids.pop()
        self.wall_s = end - self._t_start
        self.name_self_s[self._root_name] += (
            self.wall_s - self.open_covered.pop())

    def _on_gc(self, phase, _info):
        if phase == "start":
            self._gc_began = self.clock()
            return
        duration = self.clock() - self._gc_began
        self.open_covered[-1] += duration
        self.name_self_s[self._gc_name] += duration
        self.calls[self._gc_name] += 1

    # -- results ----------------------------------------------------------------

    def calls_named(self, *names):
        """Total spans whose name is one of ``names`` (``Class.method``)."""
        wanted = set(names)
        return sum(count for name, count in zip(self.names, self.calls)
                   if name in wanted)

    def report(self, top=15):
        """``{"wall_s", "untraced_s", "layers": {layer: {calls, self_s}},
        "top": the span names with the most self time, "missing"}``."""
        layer_calls = [0] * len(self.layer_names)
        layer_self_s = [0.0] * len(self.layer_names)
        for layer, count, own in zip(self.name_layer, self.calls,
                                     self.name_self_s):
            layer_calls[layer] += count
            layer_self_s[layer] += own
        layers = {
            name: {"calls": layer_calls[index], "self_s": layer_self_s[index]}
            for index, name in enumerate(self.layer_names) if name != UNTRACED
        }
        hottest = sorted(
            (index for index in range(len(self.names))
             if index != self._root_name),
            key=lambda index: -self.name_self_s[index])[:top]
        return {
            "wall_s": self.wall_s,
            "untraced_s": layer_self_s[self.layer_index[UNTRACED]],
            "layers": layers,
            "top": [
                {"name": self.names[index],
                 "layer": self.layer_names[self.name_layer[index]],
                 "calls": self.calls[index],
                 "self_s": self.name_self_s[index]}
                for index in hottest
            ],
            "missing": list(self.missing),
        }

    def span_records(self):
        """The recorded spans as ``(id, parent, layer, name, t0, t1)``,
        times in seconds from the start of the traced region."""
        flat, t_start = self.spans, self._t_start
        for at in range(0, len(flat), 5):
            sid, parent, name, t0, t1 = flat[at:at + 5]
            yield (sid, parent, self.layer_names[self.name_layer[name]],
                   self.names[name], t0 - t_start, t1 - t_start)

    def write_spans(self, path):
        """The first ``span_cap`` spans, one JSON array per line."""
        with open(path, "w") as out:
            out.write(json.dumps(
                {"fields": ["id", "parent", "layer", "name", "t0", "t1"],
                 "spans": len(self.spans) // 5, "of": self.state[1]}) + "\n")
            for sid, parent, layer, name, t0, t1 in self.span_records():
                out.write(json.dumps(
                    [sid, parent, layer, name, round(t0, 7), round(t1, 7)])
                    + "\n")


def _callback_params(fn):
    """``(position, name)`` of ``fn``'s completion-callback parameters."""
    try:
        parameters = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return ()
    return tuple(
        (position, name) for position, name in enumerate(parameters)
        if name.startswith("on_") or name == "callback"
    )
