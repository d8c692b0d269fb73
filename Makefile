# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: all build vet test race bench bench-compare tables examples clean ci fmt-check stress serve-smoke ablation ablation-golden

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The gate CI runs on every push/PR: formatting, build, vet, tests, a
# short deterministic stress smoke (see cmd/sbd-stress), and the
# benchmark module — a module of its own (benchmark/go.mod), so ./...
# at the root never compiles it and an API rename here would otherwise
# break `bash benchmark/run.sh` silently.
ci: fmt-check build vet test
	$(GO) run ./cmd/sbd-stress -rounds=5 -seed=1
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Schedule-exploration stress harness. Seed/rounds overridable:
#   make stress STRESS_ROUNDS=500 STRESS_SEED=$$RANDOM
STRESS_ROUNDS ?= 100
STRESS_SEED   ?= 1
stress:
	$(GO) run ./cmd/sbd-stress -rounds=$(STRESS_ROUNDS) -seed=$(STRESS_SEED) -artifact=stress-failure.txt

bench:
	$(GO) test -bench=. -benchmem ./...

bin/sbd-serve: FORCE
	@mkdir -p bin
	$(GO) build -o $@ ./cmd/sbd-serve

bin/sbd-load: FORCE
	@mkdir -p bin
	$(GO) build -o $@ ./cmd/sbd-load

FORCE:

# The serving smoke CI runs on every push/PR: boot a real sbd-serve,
# drive a short deterministic open-loop burst against it, and fail on
# any request error, non-2xx response, empty latency histogram, or
# unclean SIGTERM drain. The burst uses uniform keys (-zipf=1): on a
# non-conflicting workload the smoke additionally asserts zero
# commit-time validation aborts — the invisible-read tier must not
# turn optimism on where it loses.
serve-smoke: bin/sbd-serve bin/sbd-load
	./bin/sbd-load -spawn=bin/sbd-serve -seed=1 -conns=32 \
		-rates=400 -duration=5s -zipf=1 -smoke

# Compare the uncontended fast path (Table6AcqRls*) at head against a
# base git ref (default main), benchstat-style via the stdlib-only
# cmd/sbd-benchcmp; the target fails when it regresses more than 5%.
# Everything else is measured by `bash benchmark/run.sh`.
BENCH_BASE    ?= main
BENCH_PATTERN ?= BenchmarkTable6AcqRls
BENCH_COUNT   ?= 10
BENCH_TIME    ?= 0.5s
# The base worktree is removed by a shell EXIT trap so a benchmark
# failure (or ^C) mid-target cannot leave a stale .benchcmp-base behind
# to break the next run; the leading remove clears one left by an older
# Makefile or a kill -9.
bench-compare:
	@git worktree remove --force .benchcmp-base 2>/dev/null; \
		rm -rf .benchcmp-base; git worktree prune
	git worktree add --force --detach .benchcmp-base $(BENCH_BASE)
	trap 'git worktree remove --force .benchcmp-base 2>/dev/null; \
			rm -rf .benchcmp-base; git worktree prune' EXIT; \
		cd .benchcmp-base && $(GO) test -run=NONE -bench '$(BENCH_PATTERN)' \
			-benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) . > $(CURDIR)/bench-base.txt || true; \
		cd $(CURDIR) && $(GO) test -run=NONE -bench '$(BENCH_PATTERN)' \
			-benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) . > bench-head.txt
	$(GO) run ./cmd/sbd-benchcmp -gate 'Table6AcqRls' -threshold 5 bench-base.txt bench-head.txt

# Deterministic per-pass ablation table. The target creates results/
# itself (it used to rely on `tables` having run first) and diffs the
# output against the committed golden so a pass regression shows up as
# a one-line textual diff in CI. Regenerate the golden with
# `make ablation-golden` after an intentional pass change.
ablation:
	mkdir -p results
	$(GO) run ./cmd/sbdc -ablate | tee results/ablation.txt
	diff -u bench/ablation.golden results/ablation.txt

ablation-golden:
	mkdir -p bench
	$(GO) run ./cmd/sbdc -ablate > bench/ablation.golden

# Regenerate every table and figure of the paper's evaluation into results/.
tables:
	mkdir -p results
	$(GO) run ./cmd/sbd-effort             | tee results/table5.txt
	$(GO) run ./cmd/sbd-micro              | tee results/table6.txt
	$(GO) run ./cmd/sbd-stats              | tee results/tables78.txt
	$(GO) run ./cmd/sbd-bench              | tee results/table9.txt
	$(GO) run ./cmd/sbd-bench -figure7     | tee results/figure7.txt
	$(GO) run ./cmd/sbdc -ablate           | tee results/ablation.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/barrier
	$(GO) run ./examples/webshop
	$(GO) run ./examples/transfer
	$(GO) run ./examples/pingpong

# Only what this Makefile generates and git ignores: results/ holds
# committed tables.
clean:
	rm -rf bin .bench_build .benchcmp-base stress-failure.txt \
		bench-base.txt bench-head.txt bench-compare.txt
