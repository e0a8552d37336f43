GO ?= go

# Version stamped into every binary's -version output (and the daemon's
# /healthz). Override on release builds: make build VERSION=1.2.0
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X repro/internal/buildinfo.Version=$(VERSION)"

.PHONY: check vet staticcheck build test race difftest bench bench-compare bench-search chaos-soak serve-smoke

# Tier-1 gate: everything that must pass before a change lands.
check: vet staticcheck build test race difftest

vet:
	$(GO) vet ./...

# staticcheck runs when the tool is on PATH (CI installs it); local
# environments without it skip with a note rather than failing.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build $(LDFLAGS) ./...

test:
	$(GO) test ./...

# Race detector over the concurrency-bearing packages (parallel runtime,
# message passing, the observability plane, and the multi-tenant
# inference service) plus the likelihood engine those share.
race:
	$(GO) test -race ./internal/comm/... ./internal/mlsearch/... ./internal/likelihood/... ./internal/obs/... ./internal/serve/...

# Differential harness: the cached production engine against the direct
# recomputation reference engine over seeded randomized trees, models,
# and data sets (see DESIGN.md §5g for the tolerance contract).
# -count=1 defeats the test cache so the harness really runs.
difftest:
	$(GO) test -count=1 -run TestDifferential ./internal/likelihood/difftest/

# Kernel benchmarks: the pruning, Newton and smoothing kernels, with
# -benchmem asserting the zero-alloc steady state, plus the pooled
# wire-codec round trips. The final step re-measures the kernels and
# archives the numbers as bench/BENCH_kernels.json (CI uploads it as an
# artifact).
bench:
	$(GO) test -run XXX -bench 'DownPartial|NewtonEdge|FullSmooth|GradientSmooth' -benchmem ./internal/likelihood/
	$(GO) test -run XXX -bench Codec -benchmem ./internal/mlsearch/
	FDML_BENCH_DIR=$(CURDIR)/bench $(GO) test -count=1 -run TestKernelBenchJSON -v ./internal/likelihood/

# Regression gate: re-measure the kernels and diff against the committed
# baseline (BENCH_baseline_kernels.json, captured before the SoA/AVX2
# kernel rewrite). Fails when any kernel is >10% slower than baseline
# or missing from the fresh report; the stdout table is markdown, ready
# for a CI job summary.
bench-compare:
	FDML_BENCH_DIR=$(CURDIR)/bench $(GO) test -count=1 -run TestKernelBenchJSON ./internal/likelihood/
	$(GO) run ./cmd/benchdiff -baseline BENCH_baseline_kernels.json -current bench/BENCH_kernels.json -max-regress 0.10

# End-to-end search benchmark: the serial-40x1200 workload (one serial
# search on 40 taxa x 1200 sites, checked against perfbench/pins.json)
# for 40 s, with the traced run's per-layer split of where the time went
# (likelihood.newton_iter_ns, likelihood.opt_local_s,
# likelihood.insert_score_s, ...). See perfbench/README.md.
bench-search:
	bash perfbench/run.sh --workload serial-40x1200 --seed 1 --seconds 40 --trace 1

# Black-box smoke test of the fastdnamld daemon over real HTTP: build
# the binaries, start a 2-worker daemon, submit a job and its duplicate
# with curl, assert the duplicate is a zero-dispatch cache hit, the
# fresh job's tree matches a serial fastdnaml run, and /metrics exposes
# tenant-labeled counters.
serve-smoke:
	./scripts/serve_smoke.sh

# The chaos soaks under the race detector: elastic membership, plus
# concurrent jumbles multiplexed over a churning fleet. The membership
# soak's BENCH_*.json report lands in bench/ (CI uploads it).
chaos-soak:
	FDML_BENCH_DIR=$(CURDIR)/bench $(GO) test -race -count=1 -run 'TestTCPChaosSoak|TestConcurrentTCPChaosSoak' ./internal/mlsearch/
