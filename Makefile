# CI entry points. `make ci` is what a pipeline should run; the
# individual targets exist for local iteration.

GO ?= go

.PHONY: ci fmt vet lint build test race perfbench-test bench bench-smoke markbench sweepbench mutbench allocbench retentionbench pausebench servebench leakbench soak tenantsoak leaksoak benchgate heapdump-smoke fuzz-smoke

ci: fmt vet lint build test race

# gofmt is a gate, not a fixer: fail listing the offending files.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Both tools are optional locally (the CI
# workflow installs them); skip with a note when absent so `make ci`
# stays runnable on a bare toolchain.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping"; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The parallel mark phase must be clean under the race detector. The
# internal packages hold most of its tests (differential, fuzz seeds);
# the root package adds the bench drivers and trace plumbing.
race:
	$(GO) test -race . ./internal/...

# perfbench is its own Go module (perfbench/go.mod), so the root
# `go test ./...` never reaches its smoke tests — among them serve's
# per-tenant replay and its LiveBytes == OwnedBytes self-check. About
# 3 s.
perfbench-test:
	cd perfbench && GOWORK=off GOFLAGS=-mod=readonly $(GO) test ./...

bench:
	$(GO) test -run XXX -bench . -benchtime 1x .

# One-iteration pass over every benchmark in the repo: catches bit-rot
# in benchmark code without waiting for real measurements. The tiny
# allocbench run smokes the free-list-vs-line-heap driver the same way.
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime 1x ./...
	$(GO) run ./cmd/gcbench -experiment allocbench -mutators 1,2 > /dev/null
	$(GO) run ./cmd/gcbench -experiment servebench -tenants 32 -requests 6 > /dev/null
	$(GO) run ./cmd/gcbench -experiment leakbench > /dev/null

# Regenerates BENCH_1.json (parallel mark scaling, machine-readable).
# Worker counts above GOMAXPROCS are measured but flagged
# "oversubscribed" and report no speedup: they exist to show the
# coordination overhead, not to claim scaling a 1-CPU box cannot show.
markbench:
	$(GO) run ./cmd/gcbench -experiment markbench -workers 1,2,4,8 -benchjson BENCH_1.json

# Regenerates BENCH_2.json (collection pauses, eager vs lazy sweeping,
# plus the parallel-mark measurement in the same artifact).
sweepbench:
	$(GO) run ./cmd/gcbench -experiment sweepbench -benchjson BENCH_2.json

# Regenerates BENCH_3.json (concurrent-mutator allocation throughput).
# Mutator counts above GOMAXPROCS are measured but flagged
# "oversubscribed": their timing is scheduler contention, so only the
# deterministic object counts are gated for those rows.
mutbench:
	$(GO) run ./cmd/gcbench -experiment mutbench -mutators 1,2,4,8 -benchjson BENCH_3.json

# Regenerates BENCH_4.json (retention attribution on the section-4 lazy
# stream with a planted false stack reference). Single-threaded and
# fully deterministic: every count column is gated exactly.
retentionbench:
	$(GO) run ./cmd/gcbench -experiment retention -benchjson BENCH_4.json

# Regenerates BENCH_5.json (free-list vs line-heap allocation profiles,
# single and 8-mutator). Object counts are exact invariants in both
# profiles; the line rows also carry the line-waste space accounting.
allocbench:
	$(GO) run ./cmd/gcbench -experiment allocbench -mutators 1,8 -benchjson BENCH_5.json

# Regenerates BENCH_6.json (stop-the-world vs concurrent marking pause
# percentiles under 8 mutators; three modes per width — stw, the pinned
# single-driver concurrent cycle, and detached concurrent-workers with
# the background sweeper). Object and live counts are exact invariants;
# pause percentiles, the p99 reduction, and the conc_phase mark
# throughput are advisory timing (rows record gomaxprocs/conc_workers
# and the oversubscribed flag so the gate knows when timing is
# meaningless — on a 1-CPU box the worker rows measure contention).
pausebench:
	$(GO) run ./cmd/gcbench -experiment pausebench -mutators 8 -benchjson BENCH_6.json

# Regenerates BENCH_7.json (multi-tenant serving under the three
# over-budget policies, 1000 concurrent tenants per row). Admissions,
# denials, evictions, reclamation, liveness and the fairness spread are
# exact per-tenant invariants gated bit-for-bit; allocation-latency and
# pause percentiles are advisory timing.
servebench:
	$(GO) run ./cmd/gcbench -experiment servebench -benchjson BENCH_7.json

# Regenerates BENCH_8.json (online leak detection: planted slow leak
# vs churn-only control under the retention watcher). Single-threaded
# and fully deterministic: detection counts, first-alert cycle,
# attributed growth and false-positive counts are gated bit-for-bit;
# only elapsed time is advisory.
leakbench:
	$(GO) run ./cmd/gcbench -experiment leakbench -benchjson BENCH_8.json

# Multi-mutator soak: many allocation/collection rounds against one
# generational + lazy-sweep world, with a full allocator integrity
# audit after every round. Not part of `make ci`; run it when touching
# the safepoint protocol or the allocation caches.
soak:
	$(GO) run ./cmd/gcbench -experiment soak -mutators 8 -soak-cycles 100

# Multi-tenant soak: wall-clock-bounded rounds of concurrent tenant
# sessions (collect-first churn plus one eviction per round) with a
# heap integrity audit and an exact attribution check for every tenant
# after every round. Not part of `make ci`; the nightly workflow runs
# it for five minutes.
TENANT_SOAK_SECONDS ?= 60
tenantsoak:
	$(GO) run ./cmd/gcbench -experiment tenantsoak -tenants 64 -soak-seconds $(TENANT_SOAK_SECONDS)

# Leak-watch soak: wall-clock-bounded rounds of concurrent churn
# against a concurrent-marking world with the retention watcher live
# and a planted leak growing; fails on zero leak alerts or any
# false-positive alert. Not part of `make ci`; the nightly workflow
# runs it for five minutes.
LEAK_SOAK_SECONDS ?= 60
leaksoak:
	$(GO) run ./cmd/gcbench -experiment leaksoak -mutators 4 -soak-seconds $(LEAK_SOAK_SECONDS)

# Benchmark regression gate: rerun each benchmark in-process and diff
# it against the checked-in baseline. Deterministic invariants (objects
# marked, objects/bytes freed, deferred blocks) must match exactly;
# timing may drift up to BENCHGATE_TOLERANCE x (generous because CI
# hardware differs from the baseline machine — the gate catches
# order-of-magnitude regressions and broken invariants, not jitter).
BENCHGATE_TOLERANCE ?= 2
benchgate:
	@set -e; for b in BENCH_*.json; do \
		echo "benchgate: $$b"; \
		$(GO) run ./cmd/benchgate -baseline $$b -tolerance $(BENCHGATE_TOLERANCE); \
	done

# Self-checking retention demo: plant a false stack reference retaining
# a lazy stream (paper, section 4) and assert that the retention report
# censors the declared slot, attributes the chain as spurious, and that
# the sole-retention ranking names the same slot unprompted.
heapdump-smoke:
	$(GO) run ./cmd/heapdump -plantfalse

# Short fuzzing pass over every fuzz target. Each -fuzz pattern must
# match exactly one target per package, hence one invocation apiece.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run XXX -fuzz '^FuzzAllocatorOps$$' -fuzztime $(FUZZTIME) ./internal/alloc
	$(GO) test -run XXX -fuzz '^FuzzConcurrentMark$$' -fuzztime $(FUZZTIME) ./internal/alloc
	$(GO) test -run XXX -fuzz '^FuzzMarkValue$$' -fuzztime $(FUZZTIME) ./internal/mark
	$(GO) test -run XXX -fuzz '^FuzzMarkWords$$' -fuzztime $(FUZZTIME) ./internal/mark
	$(GO) test -run XXX -fuzz '^FuzzConcurrentAlloc$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run XXX -fuzz '^FuzzLineAlloc$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run XXX -fuzz '^FuzzConcurrentMark$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run XXX -fuzz '^FuzzTenantBudget$$' -fuzztime $(FUZZTIME) ./internal/core
