# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: all build vet test race bench bench-compare tables examples clean ci fmt-check one-path stress stress-det smoke ablation ablation-golden

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

# One slow path: the schedule harness runs exactly the slow path
# production runs, so internal/stm tests its hooks only to dispatch
# them, never to skip a branch when none are installed. Every runtime
# part is built with its runtime, so a `rt == nil` / `rt != nil` check
# is a fork production never takes, and fails here too. Only hooks.go
# reads the hooks field: every other file calls its dispatch helpers.
# A harness reaches only states production reaches, so the runtime
# exports no Inject* or Redeliver* entry point that forces one. Every
# runtime records every event it emits, so no emission site asks
# whether anyone listens (wantsEvent), no option sizes or disables the
# recorder (RecorderSize), and no code tests the recorder for nil.
# One section runner: the schedule harness and the IR interpreter run
# their sections on core.Thread, so neither begins a transaction or
# recovers an abort itself (a private Begin/replay loop would hide a
# fault in core's replay from the harness).
one-path:
	@out="$$(git grep -nwE 'hooks == nil|rt [!=]= nil|rec [!=]= nil' -- 'internal/stm/*.go' ':!*_test.go'; \
		git grep -nE '\.hooks\b' -- 'internal/stm/*.go' ':!*_test.go' ':!internal/stm/hooks.go'; \
		git grep -nE 'Inject|Redeliver|wantsEvent|RecorderSize' -- 'internal/stm/*.go' ':!*_test.go')"; \
		if [ -n "$$out" ]; then echo "production-only branch or harness-only entry point in internal/stm:"; \
		echo "$$out"; exit 1; fi
	@out="$$(git grep -nE 'stm\.Aborted|\.Begin\(\)' -- 'internal/sched/*.go' 'internal/instrument/*.go' ':!*_test.go')"; \
		if [ -n "$$out" ]; then echo "a section runner outside internal/core (use core.Thread):"; \
		echo "$$out"; exit 1; fi

# The gate CI runs on every push/PR: formatting, the one-path check,
# build, vet, tests, the ablation table diff, the stress determinism
# gate (below), and the benchmark module — a module of its own
# (benchmark/go.mod), so ./... at the root never compiles it and an API
# rename here would otherwise break `bash benchmark/run.sh` silently.
ci: fmt-check one-path build vet test ablation stress-det
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Schedule-exploration stress harness. Seed/rounds overridable:
#   make stress STRESS_ROUNDS=500 STRESS_SEED=$$RANDOM
STRESS_ROUNDS ?= 100
STRESS_SEED   ?= 1
stress:
	$(GO) run ./cmd/sbd-stress -rounds=$(STRESS_ROUNDS) -seed=$(STRESS_SEED) -artifact=stress-failure.txt

# Determinism gate of the schedule harness: two runs of the same seed
# must print byte-identical output apart from the elapsed time on the
# summary line. Either run failing an invariant fails the target too.
stress-det:
	mkdir -p bin
	$(GO) build -o bin/sbd-stress ./cmd/sbd-stress
	for i in 1 2; do \
		bin/sbd-stress -rounds=50 -seed=1 -v > bin/stress-det-$$i.out || exit 1; \
		sed 's/ in [^,]*,/,/' bin/stress-det-$$i.out > bin/stress-det-$$i.txt; \
	done
	diff -u bin/stress-det-1.txt bin/stress-det-2.txt

bench:
	$(GO) test -bench=. -benchmem ./...

# The end-to-end smoke CI runs on every push/PR: the benchmark's two
# serving workloads against a freshly built sbd-serve over TCP, and its
# in-process dacapo-seq workload, 5 s each. The benchmark exits 1 on a
# failed or non-2xx request, a per-session reply tally or stock
# mismatch, a served=/orders= count the server disagrees on, a shutdown
# that did not drain cleanly, or a program whose SBD checksum differs
# from its baseline's. serve-checkout drives the hot-row checkout path,
# deadlock resolution included; dacapo-seq runs h2 at scale 40, where
# memdb's Scan order and visibility decide the checksum. That uniform
# keys cause no validation aborts is internal/shop's
# TestUniformMixHasNoValidationAborts.
smoke:
	bash benchmark/run.sh --workload serve-mixed --seed 1 --seconds 5 --trace 0
	bash benchmark/run.sh --workload serve-checkout --seed 1 --seconds 5 --trace 0
	bash benchmark/run.sh --workload dacapo-seq --seed 1 --seconds 5 --trace 0

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

# Deterministic per-pass ablation table (static op counts, no timing):
# fresh `sbdc -ablate` output is diffed against the committed
# results/ablation.txt, which `make tables` also writes, so a pass
# regression shows up as a one-line textual diff. Regenerate that file
# with `make ablation-golden` after an intentional pass change.
ablation:
	$(GO) run ./cmd/sbdc -ablate | diff -u results/ablation.txt -

ablation-golden:
	$(GO) run ./cmd/sbdc -ablate > results/ablation.txt

# Regenerate every table and figure of the paper's evaluation into
# results/: one sbd-bench run, which measures the Table 9 sweep once for
# both Table 9 and Figure 7.
tables:
	mkdir -p results
	$(GO) run ./cmd/sbd-bench    | tee results/tables.txt
	$(GO) run ./cmd/sbdc -ablate | tee results/ablation.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/barrier
	$(GO) run ./examples/webshop
	$(GO) run ./examples/transfer
	$(GO) run ./examples/pingpong

# Only what this Makefile and benchmark/run.sh generate and git ignores:
# results/ holds committed tables.
clean:
	rm -rf bin .bench_build benchmark/out .benchcmp-base stress-failure.txt \
		bench-base.txt bench-head.txt bench-compare.txt
