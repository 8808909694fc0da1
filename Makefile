# Standard verification gate: `make check` is what CI and pre-commit
# should run. `make race` repeats the test suite under the race
# detector — mandatory for changes touching internal/pipeline or
# internal/llrp.

GO ?= go

.PHONY: all build fmt vet test e2ebench-test race chaos bench bench-smoke bench-figures check serve-smoke replay-smoke replay-ab fleet-smoke cluster-smoke corpus perf-gate fuzz clean

all: check

build:
	$(GO) build ./...

# gofmt is enforced, not advisory: fail loudly with the offending files.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The served-path benchmark is its own Go module (e2ebench/go.mod), so
# the root `go test ./...` never reaches its oracle, tail-percentile and
# self-time tests; vet and test it on its own (a few seconds).
e2ebench-test:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

# -short here skips the chaos e2e, which gets its own race-enabled
# target below — no point running the slowest test twice per check.
race:
	$(GO) test -race -short ./...

# The fault-tolerance gate: kill and restart a reader mid-run over real
# TCP with injected link faults, under the race detector. Degraded
# fixes must flow during the outage and post-recovery fixes must be
# bit-identical to a fault-free run.
chaos:
	$(GO) test -race -run TestChaosEndToEnd ./internal/session/

# Hot-path micro-benchmarks with pinned methodology: fixed iteration
# counts (-benchtime 100x, never time-based) and -count 3 repeats, so
# successive runs are benchstat-comparable and min-of-N is meaningful —
# first iterations on a shared box are wildly noisy (WAL append has
# swung 8 µs ↔ 640 µs run to run), so compare the per-metric min (or
# max, for throughput metrics); the spread is the noise bound. The
# recorded perf history is BENCH_baseline.json (make perf-gate) and the
# served-path benchmark (e2ebench/). BenchmarkWALAppend rides along because
# WAL append sits on the ingest hot path when -wal-dir is set — a
# regression there throttles every accepted report.
# BenchmarkBrokerFanout sweeps API fan-out (100 → 100k subscribers,
# deprecated channel broker vs snapshot+delta hub): publish runs on the
# pipeline's fix callback, so a linear-in-subscribers broker would put
# fleet fan-out on the fusion hot path.
HOTPATH_BENCH = BenchmarkMusicSpectrum|BenchmarkPMusicSpectrum|BenchmarkBeamPower|BenchmarkLocalizeGrid|BenchmarkPipelineThroughput|BenchmarkWALAppend|BenchmarkBrokerFanout
bench:
	$(GO) test -run '^$$' -bench '$(HOTPATH_BENCH)' -benchtime 100x -count 3 -benchmem . ./internal/wal/ ./internal/serve/

# CI's perf canary: one short fixed-count pass over the spectrum and
# pipeline benches. Proves the perf path compiles and runs — no timing
# gate, Actions boxes are too noisy for that.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkPMusicSpectrum|BenchmarkMusicSpectrum|BenchmarkPipelineThroughput' -benchtime 100x -benchmem .

# The figure benchmarks run one iteration each; they reproduce the
# paper's evaluation, not machine performance.
bench-figures:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem .

check: fmt vet build test e2ebench-test race chaos serve-smoke replay-smoke fleet-smoke cluster-smoke

# Boots dwatchd -simulate with the observability plane and curls the
# endpoints a monitoring stack would: liveness, metrics, live stats,
# traces, RF health; then -chaos, asserting /readyz reports the flapped
# reader's outage and recovery. Part of `make check`.
serve-smoke:
	./scripts/serve-smoke.sh

# The multi-tenant gate at the binary level: one dwatchd -env-dir
# process fronting the two pinned testdata/fleet deployments, with
# per-env positions/health routes and the /api/v1/envs listing curled
# and asserted. Part of `make check` — fleet mode is load-bearing.
fleet-smoke:
	./scripts/fleet-smoke.sh

# The cluster-plane gate at the binary level: a dwatch-gateway plus two
# dwatchd -cluster nodes sharing one WAL root, queried through the
# typed dwatch-api CLI; one node is SIGKILLed and the survivor must
# adopt its environments via WAL replay. Part of `make check`.
cluster-smoke:
	./scripts/cluster-smoke.sh

# Curated replay corpus: a multi-environment WAL root generated from
# the pinned testdata/fleet configs (deterministic sim, so the corpus
# is reproducible bit-for-bit per seed) and cached under
# testdata/corpus/ — rm -rf it to regenerate. `make perf-gate` replays
# it; `dwatchd -env-dir testdata/fleet -wal-dir testdata/corpus`
# replays it on add. (Its environments are testdata/fleet's JSON
# configs, not presets, so dwatch-replay -env cannot replay them.)
CORPUS_DIR ?= testdata/corpus
corpus:
	@if [ -d "$(CORPUS_DIR)/site-a" ] && [ -d "$(CORPUS_DIR)/site-b" ]; then \
		echo "corpus cached at $(CORPUS_DIR) (rm -rf to regenerate)"; \
	else \
		$(GO) run ./cmd/dwatchd -env-dir testdata/fleet -simulate -rounds 60 -sim-interval 0 -wal-dir "$(CORPUS_DIR)"; \
		echo "corpus generated at $(CORPUS_DIR):"; \
		du -sh "$(CORPUS_DIR)"/*/; \
	fi

# The replay-driven perf regression gate: replay the pinned corpus
# through a fresh pipeline per environment (best-of-3 repeats, same
# min/max-of-N methodology as `make bench`) and compare against the
# committed BENCH_baseline.json under the DESIGN.md three-tier policy:
# fix parity must match bit-for-bit (warn-only cross-arch), throughput
# may not halve, p50/p99 latency may not double. Non-zero exit on
# regression. Re-record after an intentional perf change with
# `go run ./cmd/dwatch-perfgate -update` on a quiet box.
perf-gate: corpus
	$(GO) run ./cmd/dwatch-perfgate

# The durability gate at the binary level: record a simulated run into
# a WAL, kill -9 dwatchd mid-stream, restart and assert recovery via
# /api/v1/table/wal, then replay the WAL unthrottled twice and assert
# the fix parity hashes agree. Part of `make check`.
replay-smoke:
	./scripts/replay-smoke.sh

# Replay-driven A/B: one WAL capture through both eigensolvers and both
# 1-shard and N-shard fusion. Shard count must not move the parity hash
# (asserted); the jacobi/qr pair reports hashes and latency digests for
# eyeballing the documented tolerance.
replay-ab:
	./scripts/replay-ab.sh

# Every native fuzz target over untrusted bytes, each for FUZZTIME (go
# test runs one -fuzz target per invocation). The WAL segment scanner
# must stop with a damage report, never panic; the LLRP report decoder
# must refuse or accept whole, and the rows it accepts must be
# rectangular with the header's dims and survive a re-marshal bit for
# bit; the frame header parser must bound what it accepts. Run longer
# locally with FUZZTIME=5m.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentScanner$$' -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalROAccessReport$$' -fuzztime $(FUZZTIME) ./internal/llrp/
	$(GO) test -run '^$$' -fuzz '^FuzzParseHeader$$' -fuzztime $(FUZZTIME) ./internal/llrp/

clean:
	$(GO) clean ./...
