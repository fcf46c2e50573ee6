PYTHON ?= python
export PYTHONPATH := src

# Seed sweep width for `make chaos` (seeds 0..SEEDS-1).
SEEDS ?= 25

# Campaign shape for `make fuzz` (spec seeds derive from FUZZ_SEED).
FUZZ_SEED ?= 0
FUZZ_ITERATIONS ?= 10

# What `make ab` compares: the working tree against AB_BASE on one
# nsrbench workload, AB_RUNS alternating invocations per side.
AB_BASE ?= HEAD
AB_WORKLOAD ?= failover_chaos
AB_RUNS ?= 6

.PHONY: test bench bench-hotpath bench-parallel bench-failover bench-fulltable bench-gate fulltable-smoke profile profile-parallel profile-packed parallel-smoke kv-failover chaos chaos-corpus chaos-ablation controller-chaos fuzz fuzz-corpus fuzz-smoke trace-demo nsrbench nsrbench-smoke ab loc verify

test:
	$(PYTHON) -m pytest tests -x -q

bench:
	$(PYTHON) -m pytest benchmarks --benchmark-only

# The wall-clock benches below print their results; each rewrites its
# committed BENCH_*.json baseline only when run by hand with --write.
bench-hotpath:
	$(PYTHON) -m pytest benchmarks/bench_hotpath.py -q

# The 112-container fleet under the conservative parallel runtime at
# workers=1/2/4 (best of 3 each), the frame-heavy border row at
# workers=1/2 and the 1024-container row; the BENCH_parallel.json rows
# (determinism, measured speedup, quiet-window reduction).
bench-parallel:
	$(PYTHON) benchmarks/bench_parallel_fleet.py

# Kill the KV primary mid-burst at several seeds; measures detection+
# promotion and kill->last-held-ACK drain: the BENCH_failover.json rows.
bench-failover:
	$(PYTHON) benchmarks/bench_failover.py

# Internet-scale table (DESIGN.md §14): 100k vs 1M prefixes through the
# Loc-RIB (load, first lookup, LPM), churn reselect, aggregated snapshot compaction,
# and a slice through a real NSR pair: the BENCH_fulltable.json rows.
bench-fulltable:
	$(PYTHON) benchmarks/bench_fulltable.py

# Reduced sizes, invariants only (sub-linear reselect, >=20% snapshot
# aggregation, bounded incremental compaction), for `make verify`.
fulltable-smoke:
	$(PYTHON) benchmarks/bench_fulltable.py --smoke

# One reduced automatic-failover scenario, asserts only: the monitor
# must promote on its own and every held ACK must drain in budget.
kv-failover:
	$(PYTHON) benchmarks/bench_failover.py --smoke

# Fails (non-zero) when any metric in a fresh run (written to a temporary
# directory) regresses past its suite threshold against the committed
# BENCH_*.json baselines, or when the parallel suite's
# determinism/speedup invariants break.
bench-gate:
	$(PYTHON) benchmarks/check_bench_regression.py

# cProfile hotspot listing (top-25 cumulative) over the Fig. 6(a)
# receive path and the parallel fleet workload.
profile:
	$(PYTHON) benchmarks/profile_hotspots.py

# Parallel fleet only, plus the coordinator's compute / barrier-wait /
# dispatch / pickling split (the time_split in BENCH_parallel.json).
profile-parallel:
	$(PYTHON) benchmarks/profile_hotspots.py --parallel

# Packed receive only (90K routes in full UPDATEs), plus its originate /
# advertise / decode / apply / persist / gc-by-generation split.
profile-packed:
	$(PYTHON) benchmarks/profile_hotspots.py --packed

# Two-site fleet, workers=1 (frames by reference) vs workers=2 (frames
# pickled across processes): results must be bit-identical.
parallel-smoke:
	$(PYTHON) -m repro.sim.parallel.smoke

# Randomized multi-failure NSR testing (DESIGN.md §9).  On a violation
# the harness shrinks the schedule and writes chaos_repro_<seed>.py.
# `--seed N` re-runs one seed in the flavour the corpus runs it in.
chaos:
	$(PYTHON) -m repro.failures.chaos --seeds $(SEEDS)

# The fixed seed corpus tier-1 also runs (fast regression net).
chaos-corpus:
	$(PYTHON) -m repro.failures.chaos --corpus

# Sanity-check the engine's teeth: disabling delayed ACKs must trip
# the ack_durability oracle and produce a replayable shrunk repro.
chaos-ablation:
	$(PYTHON) -m repro.failures.chaos --ablation

# Controller-plane chaos (DESIGN.md §15): a 3-replica panel under
# replica crashes, controller<->machine partitions and lying monitors;
# the wrong_failover oracle asserts no fence/promote hit a healthy node.
controller-chaos:
	$(PYTHON) -m repro.failures.chaos --controller-corpus

# Coverage-guided config/topology fuzzing (DESIGN.md §13): mutate
# config + topology + failure schedule together; novel coverage keys
# keep specs in the corpus, violations shrink across schedule *and*
# config dimensions into replayable fuzz_repro_<seed>.py scripts.
fuzz:
	$(PYTHON) -m repro.fuzz --seed $(FUZZ_SEED) --iterations $(FUZZ_ITERATIONS)

# Regenerate the checked-in regression manifest: the chaos-corpus
# coverage baseline (seeds 0-12) plus the campaign entries that reach
# coverage the fixed corpus never produces (tier-1 replays a sample).
fuzz-corpus:
	$(PYTHON) -m repro.fuzz --seed 0 --iterations 12 \
		--write-manifest tests/fuzz_corpus/manifest.json

# Bounded fuzz gate for `make verify`: three fixed seeds with capped
# horizons, finishes in well under 30 s.
fuzz-smoke:
	$(PYTHON) -m repro.fuzz --smoke

# Causal-tracing walkthrough (DESIGN.md §10): phase latency summary,
# one update's critical path, and the delayed-ACK invariant check.
trace-demo:
	$(PYTHON) -m repro.trace.demo

# The whole-simulator benchmark BENCHMARK.json declares (see
# benchmarks/nsrbench/README.md): five workloads, end-to-end metrics
# with tracing off.  `python3 benchmarks/nsrbench --workload W --trace 1`
# gives one workload's per-layer host-time attribution.
nsrbench:
	$(PYTHON) benchmarks/nsrbench

# Every nsrbench workload at about 1/10 size with all output checks on;
# under 30 s, non-zero exit if any check failed.
nsrbench-smoke:
	$(PYTHON) benchmarks/nsrbench --smoke

# Paired A/B of the working tree against a git ref (benchmarks/ab.py):
# per end-to-end metric, the median ratio, the wins out of AB_RUNS and
# the base's IQR.  The ref is extracted with `git archive` to a
# temporary directory; the working tree is not touched.
ab:
	$(PYTHON) benchmarks/ab.py --base $(AB_BASE) --workload $(AB_WORKLOAD) --runs $(AB_RUNS)

# ROADMAP aim 2's metric: Python line totals of src/ and tests/.
loc:
	@printf 'src/   %s\n' "$$(find src -name '*.py' -exec cat {} + | wc -l)"
	@printf 'tests/ %s\n' "$$(find tests -name '*.py' -exec cat {} + | wc -l)"

# The full gate: tier-1 tests, perf regression (hot path, parallel,
# failover drain), chaos corpus, controller-plane chaos, the parallel
# determinism smoke, the database failover smoke, the bounded fuzz
# smoke, the full-table scaling smoke, the nsrbench smoke, and
# nsrbench's own tests (among them: every by-name tracing boundary
# still resolves; `make bench` skips them under --benchmark-only).
verify: test bench-gate chaos-corpus controller-chaos parallel-smoke kv-failover fuzz-smoke fulltable-smoke nsrbench-smoke
	$(PYTHON) -m pytest benchmarks/nsrbench -q
