"""nsrbench's command line: the driver, and the child that is one run.

The driver imports nothing from ``src/repro``.  It runs every repetition
of a workload in a fresh interpreter (``PYTHONHASHSEED=0``), one at a
time, and has reaped each before it starts the next.  The child builds
the workload, times ``run()``, checks the outputs and prints one JSON
line.  Nothing here uses threads, ``multiprocessing`` or shared memory.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = PACKAGE / "out"

#: A child that has not finished by then is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0

#: Counts read off the tracer: metric -> span names whose calls it sums.
SPAN_COUNTS = {
    "sim.network.packets": ("Network.transmit",),
    "tcpsim.segments": ("TcpStack.emit",),
    "tcpsim.retransmits": ("TcpConnection._retransmit_head",),
    "netfilter.acks_held": ("NfQueue.enqueue",),
    "bgp.codec.messages_decoded": ("PeerSession.handle_message",),
    "bgp.codec.messages_encoded": (
        "UpdateMessage.to_wire", "KeepaliveMessage.to_wire",
        "OpenMessage.to_wire"),
    "bgp.rib.offers": ("LocRib.offer",),
    "bgp.rib.retracts": ("LocRib.retract",),
    "core.replication.records_written": ("WriteCoalescer.set",),
    "core.replication.compactions": ("ReplicationPipeline.compact",),
    "kvstore.ops": ("KvClient.get", "KvClient.mget", "KvClient.set",
                    "KvClient.mset", "KvClient.delete", "KvClient.scan",
                    "KvClient.ping"),
    "kvstore.batches": ("KvClient.mset",),
    "bfd.packets": ("BfdSession.on_packet",),
    "control.reports": (
        "FailureDetector.note_machine_status",
        "FailureDetector.note_process_dead",
        "FailureDetector.note_container_dead",
        "FailureDetector.note_container_grpc",
        "FailureDetector.note_container_ipsla",
        "FailureDetector.note_machine_grpc",
        "FailureDetector.note_machine_agent_ipsla",
        "FailureDetector.note_machine_peer_ipsla"),
    "failures.oracle_checks": ("OracleSuite.check",),
    "failures.injections": ("_fire_injection",),
}


def per_layer_metrics():
    """Every per-layer metric, ``name -> (unit, better)``, in print order.
    BENCHMARK.json's ``per_layer`` list is this, and the self-test holds
    the two equal."""
    from nsrbench.tracing import GC, LAYERS

    metrics = {
        "run.wall_s": ("s", "lower"),
        "run.untraced_share": ("ratio", "lower"),
        "run.trace_overhead_ratio": ("ratio", "lower"),
    }
    for layer in LAYERS + (GC,):
        metrics[f"{layer}.calls"] = ("count", "lower")
        metrics[f"{layer}.self_s"] = ("s", "lower")
        metrics[f"{layer}.self_share"] = ("ratio", "lower")
    count = ("count", "lower")
    metrics.update({
        "sim.engine.events": count,
        "sim.engine.scheduled": count,
        "sim.engine.cancelled_share": ("ratio", "lower"),
        "sim.engine.events_per_s": ("1/s", "higher"),
        "sim.network.packets": count,
        "sim.parallel.windows": count,
        "tcpsim.segments": count,
        "tcpsim.retransmits": count,
        "netfilter.acks_held": count,
        "netfilter.ack_hold_p50_virtual_ms": ("ms", "lower"),
        "netfilter.ack_hold_p99_virtual_ms": ("ms", "lower"),
        "bgp.codec.messages_decoded": count,
        "bgp.codec.messages_encoded": count,
        "bgp.rib.offers": count,
        "bgp.rib.retracts": count,
        "bgp.rib.load_s": ("s", "lower"),
        "bgp.rib.churn_s": ("s", "lower"),
        "bgp.rib.bytes_per_route": ("bytes", "lower"),
        "core.replication.records_written": count,
        "core.replication.compactions": count,
        "core.replication.compactions_per_1k_updates": ("count", "lower"),
        "core.replication.snapshot_chunks_written": count,
        "core.replication.full_compact_s": ("s", "lower"),
        "core.replication.incr_compact_s": ("s", "lower"),
        "kvstore.ops": count,
        "kvstore.batches": count,
        "bfd.packets": count,
        "control.reports": count,
        "control.recoveries": count,
        "failures.oracle_checks": count,
        "failures.injections": count,
    })
    return metrics


# ---------------------------------------------------------------------------
# the child: one run of one workload, in this process
# ---------------------------------------------------------------------------

def process_is_clean(shm_before):
    """No child process, live or unreaped, and no new shared memory."""
    problems = []
    try:
        pid, _status = os.waitpid(-1, os.WNOHANG)
        problems.append(f"child process {pid} was left behind" if pid
                        else "a child process was left running")
    except ChildProcessError:
        pass
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None and multiprocessing.active_children():
        problems.append("multiprocessing children are still alive")
    leaked = _shm_entries() - shm_before
    if leaked:
        problems.append(f"new /dev/shm entries: {sorted(leaked)}")
    return problems


def _shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def run_child(args):
    shm_before = _shm_entries()
    tracer = None
    if args.trace:
        from nsrbench.tracing import LayerTracer

        tracer = LayerTracer().install()
    from nsrbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    if tracer is not None:
        tracer.start()
    started = time.perf_counter()
    workload.run()
    timed_s = time.perf_counter() - started
    if tracer is not None:
        tracer.stop()
    outcome = workload.check()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        # CLOCK_MONOTONIC is one clock for the driver and its children
        "setup_s": started - args.spawned_at,
        "timed_s": timed_s,
        "work": outcome.work,
        "work_unit": workload.work_unit,
        "virtual_s": outcome.virtual_s,
        "events": outcome.events,
        "attempted": outcome.attempted,
        "failures": outcome.failures[:20],
        "failed": len(outcome.failures),
        "digest": outcome.digest,
        "counters": outcome.counters,
        "phases": outcome.phases,
    }
    if tracer is not None:
        tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"{args.workload}.spans.jsonl")
        report = tracer.report()
        report["counts"] = {
            metric: tracer.calls_named(*names)
            for metric, names in SPAN_COUNTS.items()
        }
        report["tallies"] = dict(tracer.tallies)
        report["hold_ms"] = _percentiles(tracer.hold_ms)
        result["trace"] = report
    result["hygiene"] = process_is_clean(shm_before)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result), flush=True)
    # Skip interpreter teardown: freeing a few hundred MB of routes one
    # object at a time takes up to a second that no metric wants.
    os._exit(0)


def _percentiles(values):
    if not values:
        return {"p50": 0.0, "p99": 0.0}
    ordered = sorted(values)
    return {"p50": ordered[len(ordered) // 2],
            "p99": ordered[min(len(ordered) - 1, len(ordered) * 99 // 100)]}


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def spawn(workload, seed, trace, smoke):
    """One run in a fresh interpreter; returns its result dict, or a dict
    with only ``"error"`` when the child crashed, hung or printed junk."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [
        sys.executable, str(PACKAGE), "--child", "--workload", workload,
        "--seed", str(seed), "--trace", str(int(trace)),
        "--spawned-at", repr(time.perf_counter()),
    ] + (["--smoke"] if smoke else [])
    with subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                          text=True) as child:
        try:
            stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {CHILD_TIMEOUT_S:.0f} s"}
        finally:
            # leaving the block closes the pipe and waits: the child is
            # reaped before spawn() returns, whatever happened above
            if child.poll() is None:
                child.kill()
    if child.returncode != 0:
        return {"error": f"exited with code {child.returncode}"}
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"error": "printed no result"}


class Tally:
    """Operations attempted and failed over the runs of one workload."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add_run(self, run):
        if "error" in run:
            self.fail(f"run {run['error']}")
            return False
        self.attempted += run["attempted"]
        self.failed += run["failed"]
        self.notes.extend(run["failures"])
        for problem in run["hygiene"]:
            self.fail(problem)
        return True

    def fail(self, note):
        self.attempted += 1
        self.failed += 1
        self.notes.append(note)

    def require_same(self, a, b, keys, what):
        """The simulation must not depend on who is watching it."""
        for key in keys:
            self.attempted += 1
            if a[key] != b[key]:
                self.failed += 1
                self.notes.append(f"{what}: {key} {a[key]!r} != {b[key]!r}")


def measure_end_to_end(workload, seed, seconds, smoke, tally):
    """Untraced runs until the next would not fit in ``seconds``; the
    end-to-end metrics."""
    runs = []
    began = time.perf_counter()
    spawned = 0
    while True:
        run_began = time.perf_counter()
        run = spawn(workload, seed, trace=False, smoke=smoke)
        run_took = time.perf_counter() - run_began
        spawned += 1
        if tally.add_run(run):
            runs.append(run)
        spent = time.perf_counter() - began
        # smoke: two runs, so that "same seed, same clock" is checked
        if spawned == 2 if smoke else spent + run_took > seconds:
            break
    if not runs:
        return None
    for other in runs[1:]:
        tally.require_same(runs[0], other, ("virtual_s", "digest", "events"),
                           "same seed, two runs")
    rates = [run["work"] / run["timed_s"] for run in runs]
    unit = f"  ({runs[0]['work_unit']} per host s)"
    return {
        "work_per_s": _best(rates, max, unit),
        "setup_s": _best([run["setup_s"] for run in runs], min),
        "peak_rss_mb": _best([run["peak_rss_mb"] for run in runs], min),
        "virtual_s": _best([run["virtual_s"] for run in runs], min),
    }


def _best(values, best, note=""):
    """``(value, detail)``.  The value reported is the best repetition:
    interference from the host only ever makes a run slower or larger, so
    the best one is the least disturbed.  The median and every run are
    printed beside it."""
    return best(values), (
        f"median {statistics.median(values):.6g} of runs "
        + " ".join(f"{value:.6g}" for value in values) + note)


def measure_per_layer(workload, seed, smoke, tally):
    """One untraced and one traced run; the per-layer metrics as
    ``{name: (value, detail)}``."""
    plain = spawn(workload, seed, trace=False, smoke=smoke)
    traced = spawn(workload, seed, trace=True, smoke=smoke)
    if not (tally.add_run(plain) and tally.add_run(traced)):
        return None
    tally.require_same(plain, traced, ("virtual_s", "digest", "events"),
                       "traced against untraced")
    trace = traced["trace"]
    wall = trace["wall_s"]
    values = dict.fromkeys(per_layer_metrics(), 0.0)
    values["run.wall_s"] = wall
    values["run.untraced_share"] = trace["untraced_s"] / wall
    values["run.trace_overhead_ratio"] = traced["timed_s"] / plain["timed_s"]
    for layer, stats in trace["layers"].items():
        values[f"{layer}.calls"] = stats["calls"]
        values[f"{layer}.self_s"] = stats["self_s"]
        values[f"{layer}.self_share"] = stats["self_s"] / wall
    values.update(trace["counts"])
    tallies = trace["tallies"]
    scheduled = tallies["scheduled"]
    values["sim.engine.events"] = plain["events"]
    values["sim.engine.scheduled"] = scheduled
    values["sim.engine.cancelled_share"] = (
        tallies["cancelled"] / scheduled if scheduled else 0.0)
    values["sim.engine.events_per_s"] = plain["events"] / plain["timed_s"]
    values["netfilter.ack_hold_p50_virtual_ms"] = trace["hold_ms"]["p50"]
    values["netfilter.ack_hold_p99_virtual_ms"] = trace["hold_ms"]["p99"]
    values["core.replication.snapshot_chunks_written"] = tallies["snapshot_chunks"]
    updates = values["bgp.codec.messages_decoded"]
    values["core.replication.compactions_per_1k_updates"] = (
        values["core.replication.compactions"] * 1000.0 / updates
        if updates else 0.0)
    # known from the workload's public results, or timed by it untraced
    values.update(plain["counters"])
    values.update(plain["phases"])
    print(f"-- {workload}: span names with the most self time")
    for row in trace["top"]:
        print(f"{row['layer']:22s} {row['name']:52s}"
              f" {row['self_s']:9.4f} s {row['calls']:9d} calls")
    return {name: (value, "") for name, value in values.items()}


def load_spec():
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def workload_names(spec):
    return [workload["name"] for workload in spec["workloads"]]


def run_driver(args, spec):
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"nsrbench: {ROOT / 'src' / 'repro'} is missing: there is no"
              " simulator here to measure", file=sys.stderr)
        return 2
    shm_before = _shm_entries()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = [args.workload] if args.workload else workload_names(spec)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    results = []
    for workload in workloads:
        tally = Tally()
        if args.trace:
            rows = measure_per_layer(workload, args.seed, args.smoke, tally)
        else:
            rows = measure_end_to_end(workload, args.seed, seconds,
                                      args.smoke, tally)
        if rows is None:
            print(f"nsrbench: {workload}: no run completed:"
                  f" {'; '.join(tally.notes)}", file=sys.stderr)
            return 1
        print(f"== {workload}")
        for name, (value, detail) in rows.items():
            print(f"{name:48s} {value:>16.6g} {units[name]:8s} {detail}")
        results.append((workload, tally, {
            name: {"value": value, "unit": units[name]}
            for name, (value, _detail) in rows.items()}))

    # Tracing must not perturb the simulation: checked on every --trace 1
    # invocation for its workload, and here once per smoke or full run.
    if not args.workload and not args.trace:
        guard = Tally()
        measure_per_layer("update_recv_small", args.seed, args.smoke, guard)
        results.append(("determinism_guard", guard, {}))

    final = Tally()
    for problem in process_is_clean(shm_before):
        final.fail(problem)
    results.append(("process_hygiene", final, {}))

    ok = True
    for workload, tally, _metrics in results:
        ok = ok and tally.failed == 0
        print(f"{workload}: {tally.attempted} operations attempted,"
              f" {tally.failed} failed")
        for note in tally.notes[:10]:
            print(f"  failed: {note}")
    attempted = sum(tally.attempted for _w, tally, _m in results)
    failed = sum(tally.failed for _w, tally, _m in results)
    if args.workload:
        print(json.dumps({"correct": ok, "attempted": max(1, attempted),
                          "failed": failed, "metrics": results[0][2]}))
        return 0
    for workload, tally, metrics in results:
        print(json.dumps({"workload": workload, "correct": tally.failed == 0,
                          "attempted": tally.attempted, "failed": tally.failed,
                          "metrics": metrics}))
    return 0 if ok else 1


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(
        prog="nsrbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workload_names(spec),
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0,
                        help="makes the workload's inputs")
    parser.add_argument("--seconds", type=float,
                        help="host seconds of repeated runs per workload"
                             " (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at about 1/10 size, two runs each")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    return run_child(args) if args.child else run_driver(args, spec)
