# goetsc — build / test / reproduce targets.

GO ?= go

.PHONY: all build vet race chaos chaos-serve chaos-ingest chaos-fleet serve-smoke fuzz speedup-gate test figures data tune lines clean

all: build vet test

build:
	$(GO) build ./...

# vet also covers the perfbench module, which sits outside ./..., and
# fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files need gofmt:"; echo "$$unformatted"; exit 1; fi

# Race-check the concurrent paths: the obs collector (journal/metrics are
# written from many goroutines), the budget-bounded evaluation runner, the
# worker pool, the parallel matrix engine, candidate tuning, and the
# parallel MiniROCKET fit, and the SFA and gbdt training kernels, whose
# split tables and presorted feature orders are shared read-only across
# the searches and trees of one fit. The bench package is filtered to its
# parallel tests — the full matrix under -race takes minutes. Every line
# runs at GOMAXPROCS 1 and 2, so the workers-vs-serial equality and the
# shared collector, pool and fit paths are also checked with goroutines
# running truly in parallel, not only interleaved. The neural layers and
# MLSTM-FCN reuse per-layer buffers in training, and concurrent
# PredictProba on one trained model must touch none of them; linalg's
# assembly training kernels ride on that line.
race:
	$(GO) test -race -cpu 1,2 ./internal/obs/... ./internal/core/... ./internal/sched/... \
		./internal/tune/... ./internal/minirocket/... ./internal/sfa/... ./internal/gbdt/...
	$(GO) test -race -cpu 1,2 -run 'Parallel|Deterministic' ./internal/bench/...
	$(GO) test -race -cpu 1,2 ./internal/linalg/... ./internal/neural/... ./internal/mlstm/...

# Chaos suite under the race detector: the deterministic fault-injection
# harness (internal/faults) plants panics, errors and latency spikes by
# seed, and the tests assert that surviving cells are byte-identical to a
# fault-free run, that retries recover transient faults, and that a
# killed run resumes to the exact uninterrupted matrix. Both lines run at
# GOMAXPROCS 1 and 2, like the race target.
chaos:
	$(GO) test -race -cpu 1,2 ./internal/faults/...
	$(GO) test -race -cpu 1,2 -run 'Chaos|Fault|Retry|Resume|Checkpoint|FailFast|Panic' ./internal/bench/...

# Serve-layer chaos under the race detector: hot reload mid-stream keeps
# live sessions bit-identical to their pinned version, a corrupt
# artifact (every persist failure mode) never replaces a healthy model,
# rollback restores byte-identical responses, circuit breakers open and
# recover on their configured schedule, drain flushes in-flight work,
# and at ~10x saturation admission control sheds cleanly while keeping
# the admitted p99 within 2x of the unloaded p99. Runs at GOMAXPROCS 1
# and 2; faults.Corrupt's own test runs under make chaos.
chaos-serve:
	$(GO) test -race -cpu 1,2 -run 'Reload|Rollback|Breaker|Admission|Tenant|Shed|Overload|Drain|Readyz|Degraded|Corrupt' ./internal/serve/...

# Continuous-ingest chaos under the race detector: a deterministic
# drifting event stream must trip the detector, retrain in the
# background and hot-swap the model — with pre-swap entity decisions
# bit-identical to the pinned version, post-swap accuracy recovered, a
# failed retrain leaving the old model serving, seeded event faults
# (drops/duplicates/late arrivals) absorbed with exact counters, and
# session + entity TTL eviction driven from one injected fake clock.
# Both lines run at GOMAXPROCS 1 and 2, so the shard goroutines also
# run truly in parallel, not only interleaved; the faults package's
# event hooks run under make chaos.
chaos-ingest:
	$(GO) test -race -cpu 1,2 ./internal/ingest/...
	$(GO) test -race -cpu 1,2 -run 'SharedClock|Eviction' ./internal/serve/...

# Fleet chaos under the race detector: the rendezvous router's
# distribution and K/N-stability bounds, session parity through 1..N
# local replicas, a replica killed mid-stream (every surviving decision
# byte-identical to the single-replica control after healing), graceful
# leave, reload/rollback fanned out mid-stream, the shared fake clock
# aging replica sessions and router pins together, the seeded
# replica-death/latency hook (under make chaos, with the rest of the
# faults package), and the churn workload's mixed
# create/advance/abandon/evict phases. Both lines run at GOMAXPROCS 1
# and 2, like the ingest suite.
chaos-fleet:
	$(GO) test -race -cpu 1,2 ./internal/fleet/...
	$(GO) test -race -cpu 1,2 -run 'Churn' ./internal/loadgen/...

# End-to-end serving parity under the race detector: every algorithm is
# trained on three synthetic datasets (one multivariate), persisted,
# loaded into an HTTP server, and must reproduce the offline Classify
# decisions over both the one-shot and streaming session endpoints.
# The observability suites ride along: trace round-trips, the /v1/stats
# snapshot math, /metrics, the dashboard, and client↔journal correlation.
# Both lines run at GOMAXPROCS 1 and 2.
serve-smoke:
	$(GO) test -race -cpu 1,2 -run 'ServeSmoke|Trace|Stats|Metrics|Dashboard|Eviction|MetaRoutes' ./internal/serve/...
	$(GO) test -race -cpu 1,2 -run 'Run|Correlate' ./internal/loadgen/...

# Differential fuzzing at the JSON trust boundary: each hand-scanned
# request decoder (package wire's canonical subset) runs against the
# encoding/json decode it falls back to — whatever the fast path accepts
# must decode to the same bits, and whatever it declines must reach the
# fallback untouched. The training kernels are held to the exhaustive
# code they replaced the same way: the screened SFA split search, the
# presorted gbdt tree growth, MiniROCKET's bias selection and PPV
# pooling (against the naive positive count), the SFA fit from
# presorted columns, and each amd64 assembly kernel in linalg
# (convolution, lagged dot products, Adam) against its Go twin. Plain
# `go test` replays the committed corpora under testdata/fuzz; this
# target mutates beyond them for FUZZTIME per target. go test -fuzz
# takes one target and one package per run.
FUZZTIME ?= 4s
FUZZ_TARGETS := \
	./internal/wire:FuzzScanner \
	./internal/serve:FuzzDecodeClassify \
	./internal/serve:FuzzDecodePoints \
	./internal/serve:FuzzDecodeSessionCreate \
	./internal/fleet:FuzzDecidedResponse \
	./internal/ingest:FuzzDecodeEvent \
	./internal/sfa:FuzzBestIGSplit \
	./internal/gbdt:FuzzGrowTree \
	./internal/minirocket:FuzzOrderStats \
	./internal/minirocket:FuzzAppendPPV \
	./internal/sfa:FuzzFitFromSorted \
	./internal/linalg:FuzzConvValid \
	./internal/linalg:FuzzLagDot8 \
	./internal/linalg:FuzzAdamStep
fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "fuzz $$pkg $$fn ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$fn\$$" -fuzztime $(FUZZTIME) $$pkg; \
	done

# Speedup gate: each optimized kernel must keep its speedup over the
# baseline it replaced — the MiniROCKET transform over the seed and naive
# references, the EDSC and TEASER streaming cursors over per-batch
# reclassification, the kNN early abandon over the exhaustive scan, and
# the fused prefix scan over the slice-of-slices layout. Each
# BenchmarkSpeedupGate times nine alternating baseline/optimized pairs
# of fixed iteration counts and fails when the median per-pair ratio
# falls below its floor (85% of the ratio committed in BENCH_PR7.json,
# commit b9db3da). It is a benchmark, so plain `go test ./...` never
# runs it; -benchtime 1x runs each gate once.
speedup-gate:
	$(GO) test -run '^$$' -bench '^BenchmarkSpeedupGate$$' -benchtime 1x \
		./internal/minirocket ./internal/core ./internal/knn

# The benchmark's own module (perfbench/, run by perfbench/run.sh) is
# outside ./..., so its tests run on their own line. GOARCH=386 runs
# natively on an amd64 host and builds the portable (!amd64) Go twins of
# linalg's assembly kernels, so the training packages are vetted and
# tested on that path too; the golden tests skip off amd64 by design,
# the reference and differential tests run.
test: vet race chaos chaos-serve chaos-ingest chaos-fleet serve-smoke fuzz
	$(GO) test ./...
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test ./internal/linalg/... ./internal/neural/... ./internal/logreg/... \
		./internal/sfa/... ./internal/weasel/... ./internal/algos/...
	cd perfbench && $(GO) test ./...
	$(MAKE) speedup-gate

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

# Non-test Go lines in the tree, the size measure ROADMAP.md tracks.
lines:
	@git ls-files '*.go' | grep -v _test.go | xargs cat | wc -l

clean:
	rm -rf figures data test_output.txt bench_output.txt
