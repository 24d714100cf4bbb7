METRICS := /tmp/e2e_sched_metrics.jsonl
PAR_METRICS := /tmp/e2e_sched_metrics_par.jsonl
PAR_A := /tmp/e2e_sched_fig9a_j1.txt
PAR_B := /tmp/e2e_sched_fig9a_j4.txt
FUZZ_A := /tmp/e2e_sched_fuzz_j1.txt
FUZZ_B := /tmp/e2e_sched_fuzz_j4.txt
SERVE_A := /tmp/e2e_sched_serve_j1.txt
SERVE_B := /tmp/e2e_sched_serve_j4.txt
OFF_GRID := /tmp/e2e_sched_off_grid.txt
CONC_A := /tmp/e2e_sched_conc_j1
CONC_B := /tmp/e2e_sched_conc_j4
CONC_D := /tmp/e2e_sched_conc_d4
CONC_E := /tmp/e2e_sched_conc_j2d2
CONC_C := /tmp/e2e_sched_conc_closed
CONC_CONNS := 4
CLUS_A := /tmp/e2e_sched_clus_j1
CLUS_B := /tmp/e2e_sched_clus_j4
CLUS_C := /tmp/e2e_sched_clus_k2
CLUS_CONNS := 4
CORE_SMOKE := /tmp/e2e_sched_bench_core_small.json
TRACE_A := /tmp/e2e_sched_trace_j1.jsonl
TRACE_B := /tmp/e2e_sched_trace_j4.jsonl
TRACE_SUM := /tmp/e2e_sched_trace_summary.txt
TRACE_LG := /tmp/e2e_sched_trace_loadgen.json
SWEEP_D := /tmp/e2e_sched_sweep_drainers.jsonl
SWEEP_S := /tmp/e2e_sched_sweep_shards.jsonl
JOBS ?= 4
# full = sizes 10..5000 with 7 trimmed trials; small = the CI smoke
# configuration (sizes 10 and 100 only).
BENCH_TRIALS ?= full

.PHONY: all build test bench-serve bench-core bench-cluster \
  fuzz-smoke serve-smoke serve-conc-smoke cluster-smoke trace-smoke sweep-smoke \
  check clean

all: build

build:
	dune build

test:
	dune runtest

# Fixed-seed load-generator points over the admission service, rebuilt
# from scratch as JSONL in BENCH_serve.json (one self-describing record
# per point: config, host, throughput, latency, verdicts, cache stats).
# Three runs append to it: the in-process engine at three solver-cache
# capacities (with the per-stage latency breakdown); the full transport
# (embedded TCP server) at connections x batch on the mixed stream; and
# the embedded server at 1, 2 and 4 drainer stripes on the
# seed-then-resubmit workload over a working set ~3x one stripe's
# solver cache (striping the queue by shop multiplies aggregate cache
# capacity, so 4 drainers hold the working set while 1 thrashes).
BENCH_SERVE_RUN := dune exec bin/loadgen.exe -- --requests 8000 --seed 42 -j $(JOBS) \
  --pipeline 8 --out BENCH_serve.json
bench-serve:
	rm -f BENCH_serve.json
	$(BENCH_SERVE_RUN) --cache 128,512,4096
	$(BENCH_SERVE_RUN) --cache 128 --self-serve --connections 1,2,4,8 --batch 16,64
	$(BENCH_SERVE_RUN) --cache 128 --self-serve --connections 4 --drainers 1,2,4 \
	  --resubmit-shops 96
	dune exec bin/jsonl_check.exe -- --bench BENCH_serve.json

# The one core benchmark suite, written to tracked BENCH_core.json with
# the host and commit it ran on: the single-machine engine against the
# retained scan-based reference (the speedup ratio is part of the
# output), Algorithms A and H, the admission request path, one
# fixed-size row per paper artifact, ablation, baseline and extension,
# and (full mode only) the fig9/fig10 Monte Carlo sweeps on 1 domain
# and on every recommended domain.
bench-core:
	dune exec bench/core_bench.exe -- --trials $(BENCH_TRIALS) \
	  --out BENCH_core.json

# Cluster points, rebuilt from scratch as JSONL in tracked
# BENCH_cluster.json.  Shard-count scaling: 1, 2 and 4 in-process shards
# behind the dispatcher on the seed-then-resubmit workload (permuted
# resubmissions over a working set ~3x one shard's solver cache) —
# sticky routing gives each shard only its own shops, so four shards
# hold the whole working set in cache while one shard thrashes and
# re-solves.  Upstream lanes: a 1-shard cluster on a cache-resident
# workload (16 shops per connection) at 1, 2 and 4 pipelined upstream
# connections per shard (lanes relieve head-of-line blocking on the
# dispatcher<->shard hop, not shard compute, so no ratio is asserted).
BENCH_CLUSTER_RUN := dune exec bin/loadgen.exe -- --connections 4 --pipeline 8 \
  --requests 8000 --cache 128 --seed 42 --out BENCH_cluster.json
bench-cluster:
	rm -f BENCH_cluster.json
	$(BENCH_CLUSTER_RUN) --spawn-shards 1,2,4 --resubmit-shops 96
	$(BENCH_CLUSTER_RUN) --spawn-shards 1 --upstream-conns 1,2,4 --resubmit-shops 16
	dune exec bin/jsonl_check.exe -- --bench BENCH_cluster.json

# Replay the full-grammar request fixture through the stdio transport on
# 1 and 4 domains: the reply logs must be byte-identical and contain
# admitted verdicts, and every hostile line (literals past the scanner's
# magnitude and denominator bounds, a shop off its time grid) must get
# the typed error that names its bound, followed by a live pong.
serve-smoke:
	rm -f $(SERVE_A) $(SERVE_B)
	dune exec bin/serve.exe -- --stdio -j 1 \
	  < test/serve_smoke_requests.txt > $(SERVE_A)
	dune exec bin/serve.exe -- --stdio -j 4 \
	  < test/serve_smoke_requests.txt > $(SERVE_B)
	cmp $(SERVE_A) $(SERVE_B)
	grep -q '^pong ' $(SERVE_A)
	grep -q '^admitted ' $(SERVE_A)
	grep -q '^rejected ' $(SERVE_A)
	grep -q '^metrics ' $(SERVE_A)
	grep -A1 '^error shop=- line 1: literal "4600000000000000000" out of range: magnitude 10^12 or more$$' \
	  $(SERVE_A) | grep -q '^pong '
	grep -A1 '^error shop=- line 1: literal "2\.00000000000000000001" out of range: denominator past 10^9$$' \
	  $(SERVE_A) | grep -q '^pong '
	grep -A1 '^error shop=- line 1: literal "4611686018427387903\.5" out of range: magnitude 10^12 or more$$' \
	  $(SERVE_A) | grep -q '^pong '
	grep -A1 '^error shop=- out of range: time grid past 2^61-1$$' $(SERVE_A) | grep -q '^pong '

# The concurrent transport determinism smoke: $(CONC_CONNS) pipelined
# client domains against an embedded TCP server on 1 and 4 worker
# domains, then again with the queue striped over 4 drainer domains,
# then with 2 drainers sharing a 2-job solve pool (so several drainers
# queue on the pool's one batch at a time), then closed-loop (one
# request in flight per connection, so the drainer mostly steps batches
# of one or two).  Every connection's
# reply log must be byte-identical across domain counts, stripe counts
# AND pipelining depths (disjoint per-connection shop namespaces) and
# contain admitted verdicts.
serve-conc-smoke:
	rm -f $(CONC_A).conn* $(CONC_B).conn* $(CONC_D).conn* $(CONC_E).conn* \
	  $(CONC_C).conn*
	dune exec bin/loadgen.exe -- --self-serve --connections $(CONC_CONNS) \
	  --pipeline 16 --requests 800 --seed 42 -j 1 \
	  --reply-log $(CONC_A) > /dev/null
	dune exec bin/loadgen.exe -- --self-serve --connections $(CONC_CONNS) \
	  --pipeline 16 --requests 800 --seed 42 -j 4 \
	  --reply-log $(CONC_B) > /dev/null
	dune exec bin/loadgen.exe -- --self-serve --connections $(CONC_CONNS) \
	  --pipeline 16 --requests 800 --seed 42 -j 1 --drainers 4 \
	  --reply-log $(CONC_D) > /dev/null
	dune exec bin/loadgen.exe -- --self-serve --connections $(CONC_CONNS) \
	  --pipeline 16 --requests 800 --seed 42 -j 2 --drainers 2 \
	  --reply-log $(CONC_E) > /dev/null
	dune exec bin/loadgen.exe -- --self-serve --connections $(CONC_CONNS) \
	  --pipeline 1 --requests 800 --seed 42 -j 1 \
	  --reply-log $(CONC_C) > /dev/null
	for i in $$(seq 0 $$(( $(CONC_CONNS) - 1 ))); do \
	  cmp $(CONC_A).conn$$i $(CONC_B).conn$$i || exit 1; \
	  cmp $(CONC_A).conn$$i $(CONC_D).conn$$i || exit 1; \
	  cmp $(CONC_A).conn$$i $(CONC_E).conn$$i || exit 1; \
	  cmp $(CONC_A).conn$$i $(CONC_C).conn$$i || exit 1; \
	  grep -q '^admitted ' $(CONC_A).conn$$i || exit 1; \
	done

# The cluster transport smoke: 2 in-process shards behind the
# dispatcher, $(CLUS_CONNS) pipelined clients.  Every connection's
# reply log must be byte-identical across shard worker-domain counts
# AND across upstream lane counts (sticky routing keeps each shop's
# history on one shard, sticky lanes keep each client's shard traffic
# on one upstream connection, and the dispatcher preserves
# per-connection reply order across shards), then the failover check —
# single-lane and widened — kills a shard mid-burst and asserts every
# request is answered, traffic re-routes to the survivor, and the
# restarted shard is re-admitted by the status checker.
cluster-smoke:
	rm -f $(CLUS_A).conn* $(CLUS_B).conn* $(CLUS_C).conn*
	dune exec bin/loadgen.exe -- --spawn-shards 2 --connections $(CLUS_CONNS) \
	  --pipeline 16 --requests 800 --seed 42 -j 1 \
	  --reply-log $(CLUS_A) > /dev/null
	dune exec bin/loadgen.exe -- --spawn-shards 2 --connections $(CLUS_CONNS) \
	  --pipeline 16 --requests 800 --seed 42 -j 4 \
	  --reply-log $(CLUS_B) > /dev/null
	dune exec bin/loadgen.exe -- --spawn-shards 2 --connections $(CLUS_CONNS) \
	  --pipeline 16 --requests 800 --seed 42 -j 1 --upstream-conns 2 \
	  --reply-log $(CLUS_C) > /dev/null
	for i in $$(seq 0 $$(( $(CLUS_CONNS) - 1 ))); do \
	  cmp $(CLUS_A).conn$$i $(CLUS_B).conn$$i || exit 1; \
	  cmp $(CLUS_A).conn$$i $(CLUS_C).conn$$i || exit 1; \
	  grep -q '^admitted ' $(CLUS_A).conn$$i || exit 1; \
	done
	dune exec bin/loadgen.exe -- --failover-check --seed 42
	dune exec bin/loadgen.exe -- --failover-check --seed 42 --upstream-conns 2

# Fixed-seed traced load-generator run under the deterministic clock on
# 1 and 4 domains: the request-trace JSONL must be byte-identical across
# domain counts, pass schema validation (stage order, non-negative
# durations, stage sums tiling end-to-end), and its e2e-trace analysis
# must match the committed golden summary byte-for-byte.
trace-smoke:
	rm -f $(TRACE_A) $(TRACE_B) $(TRACE_SUM) $(TRACE_LG)
	dune exec bin/loadgen.exe -- --requests 200 --seed 42 -j 1 \
	  --det-clock --trace $(TRACE_A) --out $(TRACE_LG) > /dev/null
	dune exec bin/loadgen.exe -- --requests 200 --seed 42 -j 4 \
	  --det-clock --trace $(TRACE_B) --out $(TRACE_LG) > /dev/null
	cmp $(TRACE_A) $(TRACE_B)
	dune exec bin/jsonl_check.exe -- --trace $(TRACE_A)
	dune exec bin/trace.exe -- analyze $(TRACE_A) > $(TRACE_SUM)
	cmp $(TRACE_SUM) test/golden/trace_summary.txt

# The list-flag sweep path: a two-point drainer sweep over the embedded
# server on the seed-then-resubmit workload and a two-point shard sweep
# over the cluster, each point validated as a loadgen JSONL record.
sweep-smoke:
	rm -f $(SWEEP_D) $(SWEEP_S)
	dune exec bin/loadgen.exe -- --self-serve --drainers 1,2 --resubmit-shops 8 \
	  --connections 2 --requests 200 --seed 42 --out $(SWEEP_D) > /dev/null
	dune exec bin/loadgen.exe -- --spawn-shards 1,2 --connections 2 --requests 200 \
	  --seed 42 --out $(SWEEP_S) > /dev/null
	dune exec bin/jsonl_check.exe -- --bench $(SWEEP_D) $(SWEEP_S)

# Short differential-fuzzing campaign over every model class (including
# eedf-fast, which pits the single-machine engine's entry points against
# the retained scan-based reference on larger instances): each solver
# against its oracle and the independent checker, on a fixed seed, run
# on 1 and 4 domains — any disagreement or any scheduling
# nondeterminism (output not byte-identical) fails the target.  Full
# campaigns: dune exec bin/fuzz.exe -- --trials 2000.
fuzz-smoke:
	rm -f $(FUZZ_A) $(FUZZ_B)
	dune exec bin/fuzz.exe -- --class all --trials 300 --seed 42 -j 1 > $(FUZZ_A)
	dune exec bin/fuzz.exe -- --class all --trials 300 --seed 42 -j 4 > $(FUZZ_B)
	cmp $(FUZZ_A) $(FUZZ_B)

# Build, run the test suite, then smoke-test the telemetry pipeline
# (regenerate one paper artifact with --metrics and validate the file as
# JSONL), the parallel engine (the same sweep on 1 and 4 domains must
# be byte-identical, and metrics collected under -j 4 must still be
# well-formed JSONL), the differential fuzzer, the admission service
# and cluster smokes, the loadgen sweep path, and both tracked loadgen
# benchmark files (every point a valid `jsonl_check --bench` record),
# then check that `jsonl_check --bench` rejects a point whose host has
# no commit (test/bench_point_no_commit.jsonl).  The CLI must refuse an
# instance past the single-machine engine's integer-grid bound with a
# one-line message and a non-zero exit.
check:
	dune build
	dune runtest
	! dune exec bin/e2e_sched_cli.exe -- schedule \
	  test/corpus/seed-eedf-fast-grid-over.txt 2> $(OFF_GRID)
	grep -q 'do not fit the 63-bit integer grid' $(OFF_GRID)
	rm -f $(METRICS) $(PAR_METRICS) $(PAR_A) $(PAR_B)
	dune exec bin/experiments.exe -- table1 --metrics $(METRICS)
	dune exec bin/jsonl_check.exe $(METRICS)
	dune exec bin/experiments.exe -- fig9a --trials 120 -j 1 > $(PAR_A)
	dune exec bin/experiments.exe -- fig9a --trials 120 -j 4 > $(PAR_B)
	cmp $(PAR_A) $(PAR_B)
	dune exec bin/experiments.exe -- fig9a --trials 120 -j 4 --metrics $(PAR_METRICS) > /dev/null
	dune exec bin/jsonl_check.exe $(PAR_METRICS)
	$(MAKE) fuzz-smoke
	$(MAKE) serve-smoke
	$(MAKE) serve-conc-smoke
	$(MAKE) cluster-smoke
	$(MAKE) trace-smoke
	$(MAKE) sweep-smoke
	dune exec bench/core_bench.exe -- --trials small --out $(CORE_SMOKE)
	dune exec bin/jsonl_check.exe $(CORE_SMOKE)
	dune exec bin/jsonl_check.exe -- --bench BENCH_serve.json BENCH_cluster.json
	! dune exec bin/jsonl_check.exe -- --bench test/bench_point_no_commit.jsonl

clean:
	dune clean
	rm -f $(METRICS) $(PAR_METRICS) $(PAR_A) $(PAR_B) $(FUZZ_A) $(FUZZ_B) \
	  $(SERVE_A) $(SERVE_B) $(OFF_GRID) $(CONC_A).conn* $(CONC_B).conn* $(CONC_D).conn* $(CONC_E).conn* \
	  $(CORE_SMOKE) $(CLUS_A).conn* $(CLUS_B).conn* $(CLUS_C).conn* \
	  $(TRACE_A) $(TRACE_B) $(TRACE_SUM) \
	  $(TRACE_LG) $(SWEEP_D) $(SWEEP_S)
