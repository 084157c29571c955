# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test check lint chaos serve-soak simd-smoke serve-bench race bench microbench simbench perfbench-test experiments examples fuzz clean

all: build test check

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# simlint enforces the simulator's written contracts: determinism and
# interprocedural determinism taint (no wall clocks, global rand, scheduler
# queries, or order-sensitive map iteration reaching the counters), the
# lock hierarchy across call chains and hot-path unlocks (lockorder),
# cancellable kernel loops (ctxflow), //simlint:atomic field access, and
# //simlint:padded cache-line layout. It runs as a `go vet -vettool`, so
# cmd/go caches its per-package results. See docs/LINTING.md.
lint:
	$(GO) run ./cmd/simlint ./...

# Static and concurrency hygiene for the hot simulator paths: vet, gofmt
# drift (the gofmt guard walks the whole tree, including the simlint test
# corpora under internal/lint/*/testdata), simlint, and the race detector
# over the packages that share state (true-sharing caches, shootdown
# mailbox, parallel harness).
check: lint
	$(GO) vet ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) test -race -short -count=1 ./internal/machine/ ./internal/omp/ ./internal/par/ ./internal/bench/ ./internal/cache/ ./internal/scash/ ./internal/profile/

# Fault-injection soak: 50 seeded, replayable fault plans over CG/MG/SP.
# Every run must pass NPB verification with fault-free numerics, hold all
# internal/check invariants, and replay to bit-identical counters.
chaos:
	$(GO) run ./cmd/chaos

# Service-mode soak: seeded client misbehavior (disconnects, duplicates,
# oversized bodies, injected panics, starved deadlines) against an
# in-process simd server; every answer per config must be bit-identical
# and the typed counters must conserve. See docs/ROBUSTNESS.md.
serve-soak:
	$(GO) run ./cmd/chaos -serve -plans 300

# Short race-mode smoke over the simd service stack (the CI leg): the
# full simsrv suite exercises cancellation, panic quarantine, admission,
# the admission queue and template pool, and cross-process single-flight
# on the shared disk cache — all under the race detector.
simd-smoke:
	$(GO) test -race -count=1 ./internal/simsrv/ ./internal/par/ ./internal/memo/...

# Service-scale throughput floors: a mixed load on a warm-restarted server
# over a populated shared disk cache must beat the no-disk-cache
# single-template baseline by >= 3x and answer >= 90% of warm-restart
# requests from a cache layer. Also run as part of `make bench`.
serve-bench:
	$(GO) run ./cmd/experiments -serve-bench

race:
	$(GO) test -race ./internal/omp/ ./internal/npb/ ./internal/machine/ ./internal/mpi/ ./internal/par/ ./internal/bench/

# Host-side simulator performance (ns per simulated access) -> BENCH_simulator.json
simbench:
	$(GO) run ./cmd/experiments -bench

# Perf regression guard: re-measure the dense and gather fast paths and fail
# if either is >2x slower than the committed BENCH_simulator.json. On hosts
# with >= 4 procs it also enforces the parallel-efficiency floor: 4-thread
# CG must run >= 1.5x faster than 1-thread (skipped with a note on smaller
# hosts, where a time-sliced team cannot speed up). The service-scale floors
# (>=3x warm-restart throughput, >=90% cache-answered) run here too.
bench:
	$(GO) run ./cmd/experiments -bench-baseline

microbench:
	$(GO) test -bench=. -benchmem ./...

# perfbench/ is its own Go module (it replaces hugeomp with ../ to reach the
# internal packages), so the root ./... never compiles it. Vet and test it
# directly so an internal API change that breaks the benchmark fails here.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Full class-A reproduction of every table and figure (minutes).
experiments:
	$(GO) run ./cmd/experiments -class A
	$(GO) run ./cmd/experiments -class A -only extensions

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/cgsolver
	$(GO) run ./examples/stride
	$(GO) run ./examples/smt
	$(GO) run ./examples/mpihalo

fuzz:
	$(GO) test -fuzz FuzzHierarchy -fuzztime 30s ./internal/tlb/
	$(GO) test -fuzz FuzzAllocator -fuzztime 30s ./internal/scash/
	$(GO) test -fuzz FuzzGatherRange -fuzztime 30s ./internal/machine/
	$(GO) test -fuzz FuzzCounters -fuzztime 30s ./internal/check/
	$(GO) test -fuzz FuzzForkEquivalence -fuzztime 30s ./internal/machine/

clean:
	$(GO) clean ./...
