# goetsc — build / test / reproduce targets.

GO ?= go

.PHONY: all build vet race chaos chaos-serve chaos-ingest chaos-fleet serve-smoke test bench bench-serve bench-classify bench-fleet pgo figures data tune clean

NPROC := $(shell nproc 2>/dev/null || echo 1)

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Race-check the concurrent paths: the obs collector (journal/metrics are
# written from many goroutines), the budget-bounded evaluation runner, the
# worker pool, the parallel matrix engine, candidate tuning, and the
# parallel MiniROCKET fit. The bench package is filtered to its parallel
# tests — the full matrix under -race takes minutes — and runs them at
# GOMAXPROCS 1 and 2, so the workers-vs-serial equality is also checked
# with goroutines running truly in parallel, not only interleaved.
race:
	$(GO) test -race ./internal/obs/... ./internal/core/... ./internal/sched/... \
		./internal/tune/... ./internal/minirocket/...
	$(GO) test -race -cpu 1,2 -run 'Parallel|Deterministic' ./internal/bench/...

# Chaos suite under the race detector: the deterministic fault-injection
# harness (internal/faults) plants panics, errors and latency spikes by
# seed, and the tests assert that surviving cells are byte-identical to a
# fault-free run, that retries recover transient faults, and that a
# killed run resumes to the exact uninterrupted matrix.
chaos:
	$(GO) test -race ./internal/faults/...
	$(GO) test -race -run 'Chaos|Fault|Retry|Resume|Checkpoint|FailFast|Panic' ./internal/bench/...

# Serve-layer chaos under the race detector: hot reload mid-stream keeps
# live sessions bit-identical to their pinned version, a corrupt
# artifact (every persist failure mode) never replaces a healthy model,
# rollback restores byte-identical responses, circuit breakers open and
# recover on their configured schedule, drain flushes in-flight work,
# and at ~10x saturation admission control sheds cleanly while keeping
# the admitted p99 within 2x of the unloaded p99.
chaos-serve:
	$(GO) test -race -run 'Reload|Rollback|Breaker|Admission|Tenant|Shed|Overload|Drain|Readyz|Degraded|Corrupt' ./internal/serve/...
	$(GO) test -race -run 'ServeHook|Corrupt' ./internal/faults/...

# Continuous-ingest chaos under the race detector: a deterministic
# drifting event stream must trip the detector, retrain in the
# background and hot-swap the model — with pre-swap entity decisions
# bit-identical to the pinned version, post-swap accuracy recovered, a
# failed retrain leaving the old model serving, seeded event faults
# (drops/duplicates/late arrivals) absorbed with exact counters, and
# session + entity TTL eviction driven from one injected fake clock.
chaos-ingest:
	$(GO) test -race ./internal/ingest/...
	$(GO) test -race -run 'Event' ./internal/faults/...
	$(GO) test -race -run 'SharedClock|Eviction' ./internal/serve/...

# Fleet chaos under the race detector: the rendezvous router's
# distribution and K/N-stability bounds, session parity through 1..N
# local replicas, a replica killed mid-stream (every surviving decision
# byte-identical to the single-replica control after healing), graceful
# leave, reload/rollback fanned out mid-stream, the shared fake clock
# aging replica sessions and router pins together, the seeded
# replica-death/latency hook, and the churn workload's mixed
# create/advance/abandon/evict phases.
chaos-fleet:
	$(GO) test -race ./internal/fleet/...
	$(GO) test -race -run 'FleetHook' ./internal/faults/...
	$(GO) test -race -run 'Churn' ./internal/loadgen/...

# End-to-end serving parity under the race detector: every algorithm is
# trained on three synthetic datasets (one multivariate), persisted,
# loaded into an HTTP server, and must reproduce the offline Classify
# decisions over both the one-shot and streaming session endpoints.
# The observability suites ride along: trace round-trips, the /v1/stats
# snapshot math, /metrics, the dashboard, and client↔journal correlation.
serve-smoke:
	$(GO) test -race -run 'ServeSmoke|Trace|Stats|Metrics|Dashboard|Eviction|MetaRoutes' ./internal/serve/...
	$(GO) test -race -run 'Run|Correlate' ./internal/loadgen/...

test: vet race chaos chaos-serve chaos-ingest chaos-fleet serve-smoke
	$(GO) test ./...
	@if [ -f BENCH_PR7.json ]; then \
		echo "kernel regression gate: short deterministic run vs committed BENCH_PR7.json"; \
		$(GO) run ./tools/benchjson -kernels -classify -short -out .bench_gate.json && \
		$(GO) run ./tools/benchjson -compare-ratios BENCH_PR7.json .bench_gate.json; \
		status=$$?; rm -f .bench_gate.json; exit $$status; \
	fi

# One benchmark per paper table/figure + per-algorithm and ablation
# benches, then the full optimization suite — MiniROCKET SoA transform,
# flat-matrix kNN, fused prefix scan, float32 kernels, the cursors, and
# the evaluation-matrix workers scaling curve at full GOMAXPROCS — into
# BENCH_PR7.json (ns/op, allocs/op, derived speedup ratios, num_cpu and
# the 1-vs-N workers curve in machine-readable form). A committed
# baseline gates replacement at the regression tolerance.
bench:
	$(GO) test -bench=. -benchmem .
	$(GO) run ./tools/benchjson -kernels -classify -matrix-workers 1,$(NPROC) -out BENCH_PR7.next.json
	@if [ -f BENCH_PR7.json ]; then \
		$(GO) run ./tools/benchjson -compare BENCH_PR7.json BENCH_PR7.next.json || exit 1; \
	fi
	mv BENCH_PR7.next.json BENCH_PR7.json

# Profile-guided optimization: collect CPU profiles from the kernel
# suites, merge them into default.pgo, rebuild everything against the
# profile, re-run the same suites and stamp the per-benchmark delta
# (baseline/pgo ns) into BENCH_PR7_PGO.json. The compare table prints the
# deltas; PGO gains are workload-dependent, so it never fails the run.
pgo:
	$(GO) run ./tools/benchjson -kernels -classify -profile-dir .pgo-profiles -out BENCH_PR7_nopgo.json
	$(GO) tool pprof -proto .pgo-profiles/*.prof > default.pgo
	$(GO) build -pgo=default.pgo ./...
	$(GO) run ./tools/benchjson -kernels -classify -pgo default.pgo -baseline BENCH_PR7_nopgo.json -out BENCH_PR7_PGO.json
	-$(GO) run ./tools/benchjson -compare BENCH_PR7_nopgo.json BENCH_PR7_PGO.json

# Incremental-inference benchmark: cursor vs classic classification for
# ECTS / EDSC / TEASER plus the kNN early abandon, and the serving-layer
# latency levels, written to BENCH_PR5.json. When a committed baseline
# exists the new numbers must stay within the regression tolerance
# before they replace it.
bench-classify:
	$(GO) run ./tools/benchjson -classify -serve -out BENCH_PR5.next.json
	@if [ -f BENCH_PR5.json ]; then \
		$(GO) run ./tools/benchjson -compare BENCH_PR5.json BENCH_PR5.next.json || exit 1; \
	fi
	mv BENCH_PR5.next.json BENCH_PR5.json

# Serving-layer latency benchmark: trains a model in-process, serves it
# over loopback HTTP, replays it through the load generator at three
# request rates (plus one streaming run) with offline parity checks, and
# commits the percentiles, request counters, and the server's own
# /v1/stats view (rolling-window quantiles + quality gauges +
# shed/breaker/reload counters) to BENCH_PR8.json. The -overload pass
# additionally drives a deliberately tiny server past saturation and
# records goodput vs shed rate and the admitted-vs-unloaded p99 ratio.
# The second run replays an interleaved entity event stream through the
# continuous-ingest endpoint and commits entity throughput and
# decision-latency percentiles to BENCH_PR9.json.
bench-serve:
	$(GO) run ./tools/benchjson -serve -stats -overload -skip-suites -out BENCH_PR8.json
	$(GO) run ./tools/benchjson -ingest -skip-suites -out BENCH_PR9.json

# Replica-fleet throughput benchmark: churns a 10k-session population
# (create / stream-to-decision / abandon / evict mix, every decided
# session parity-checked offline) through the rendezvous router at each
# replica count and commits the curve to BENCH_PR10.json. The replica
# list scales with the machine — on a single-core box the curve
# honestly measures routing overhead, not parallel speedup; boxes with
# more cores add an $(NPROC)-replica point and the workers scaling
# matrix alongside.
FLEET_REPLICAS := $(shell if [ $(NPROC) -le 2 ]; then echo 1,2; else echo 1,2,$(NPROC); fi)
FLEET_MATRIX := $(shell if [ $(NPROC) -gt 1 ]; then echo -matrix-workers 1,$(NPROC); fi)
bench-fleet:
	$(GO) run ./tools/benchjson -fleet -fleet-replicas $(FLEET_REPLICAS) -fleet-sessions 10000 -skip-suites $(FLEET_MATRIX) -out BENCH_PR10.json

# Scaled-down evaluation matrix with text figures, SVG files and the
# qualitative-claims check.
figures:
	$(GO) run ./cmd/etsc-bench -scale 0.15 -folds 3 -budget 3m -claims -svg figures

# Full-size paper-parameter run (hours of compute; EDSC times out on Wide
# datasets, exactly as in the paper).
figures-paper:
	$(GO) run ./cmd/etsc-bench -preset paper -scale 1 -folds 5 -budget 48h -claims -svg figures

# Write the twelve datasets to ./data in the framework's CSV layout.
data:
	$(GO) run ./cmd/etsc-data -out data

tune:
	$(GO) run ./cmd/etsc-tune -algorithm TEASER -dataset PowerCons

clean:
	rm -rf figures data test_output.txt bench_output.txt \
		.bench_gate.json .pgo-profiles BENCH_PR7.next.json BENCH_PR7_nopgo.json
