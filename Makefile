GO ?= go

.PHONY: all build test race vet nrlvet doclint lint bench bench-check microbench golden chaos crash replchaos replay

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The repo's own static-discipline suite (DESIGN.md §8, §12):
# persist/fence ordering, recovery purity, nrl:persist-before lattices,
# nesting-safe recovery-state access, the zero-alloc hot-path gate,
# trace attribution, budgeted-checker conventions.
nrlvet:
	$(GO) run ./cmd/nrlvet ./...

# Godoc hygiene on its own: go vet plus only the missing-doc-comment
# analyzer (the full suite runs it too; this is the fast loop while
# documenting).
doclint: vet
	$(GO) run ./cmd/nrlvet -a doccomment ./...

# Everything CI's lint job runs: go vet, the nrlvet suite, and the race
# detector over the whole module.
lint: vet nrlvet race

# Regenerate the committed performance baselines (BENCH_experiments.json,
# the one in-memory suite, and BENCH_persist.json — schema nrl-bench/1,
# see internal/bench). Run on a quiet machine and commit the result when
# performance changes on purpose; CI gates against these files via
# bench-check. EXPERIMENTS.md's E-tables render from
# BENCH_experiments.json (`go run ./cmd/nrlbench BENCH_experiments.json`).
bench:
	$(GO) run ./cmd/nrlbench -json .

# Re-run both suites into a scratch directory and gate each against its
# committed baseline: >15% ns/op growth, a new allocation, or a vanished
# benchmark fails. Each -compare also applies its suite's absolute gates
# to the fresh report: the allocs-per-op caps (bench.AllocCaps: 0 for
# ten recoverable-op experiments rows since the frame-arena refactor, a
# per-row cap for the persist suite) and the flight-recorder overhead
# budget (bench.OverheadPairs). They need no baseline, so an allocating
# baseline can never grandfather an allocation in.
bench-check:
	rm -rf bench-out && mkdir -p bench-out
	$(GO) run ./cmd/nrlbench -json bench-out
	$(GO) run ./cmd/nrlbench -compare BENCH_experiments.json bench-out/BENCH_experiments.json
	$(GO) run ./cmd/nrlbench -compare BENCH_persist.json bench-out/BENCH_persist.json

# Every suite's specs under testing.B (bench_test.go's BenchmarkSuites)
# for interactive work; the committed BENCH_*.json baselines come from
# `make bench` instead.
microbench:
	$(GO) test -bench . -benchtime 1000x -run '^$$' .

# Regenerate the golden files of the CLI tests (after an intentional
# output change).
golden:
	$(GO) test ./cmd/nrltrace/ ./cmd/nrlstat/ ./cmd/nrlchaos/ ./cmd/nrlcheck/ ./cmd/nrlsweep/ ./cmd/nrlvet/ -update

# Seeded coverage-guided crash campaign over every real workload (the CI
# smoke; raise -runs for a deeper hunt).
chaos:
	$(GO) run ./cmd/nrlchaos -runs 25 -seed 1

# Seeded real-crash campaign: worker processes over one file-backed
# store, SIGKILLed at seeded kill points, every restart verified (the
# CI smoke; the 200-round acceptance run is TestKillCampaign200Rounds,
# subtest replicas=1). The store (crash-artifacts/store/r0, whose bbox
# `nrlstat forensics crash-artifacts/store/r0` decodes) and the
# campaign's schedule trace survive for inspection — CI uploads both
# when the campaign fails, and `nrlchaos -real -replaytrace
# crash-artifacts/schedule.jsonl` re-executes the exact kill schedule.
crash:
	mkdir -p crash-artifacts
	$(GO) run ./cmd/nrlchaos -real -rounds 25 -seed 1 -dir crash-artifacts/store -record crash-artifacts/schedule.jsonl

# The same campaign over a three-member replica set: one member
# directory wiped, corrupted, or disk-faulted per round, every recovery
# verified and failovers required to promote (the CI smoke; the
# 200-round acceptance run is TestKillCampaign200Rounds, subtest
# replicas=3). The set root survives in repl-artifacts/set for
# inspection — `nrlstat forensics repl-artifacts/set` decodes it — and
# CI uploads it on failure; `nrlchaos -real -replaytrace
# repl-artifacts/schedule.jsonl` re-executes the exact fault schedule.
replchaos:
	mkdir -p repl-artifacts
	$(GO) run ./cmd/nrlchaos -real -replicas 3 -rounds 25 -seed 1 -appends 20 -capacity 16384 -maxdelay 60ms -dir repl-artifacts/set -record repl-artifacts/schedule.jsonl

# Replay the committed crash-regression corpus
# (internal/chaos/testdata/regressions/*.jsonl): every minimized
# schedule trace is re-executed in-process and must reproduce its
# recorded verdict exactly. `go test ./...` runs this too
# (TestRegressionCorpus); this is the explicit loop for bisecting a
# drifted trace.
replay:
	$(GO) test ./internal/chaos -run 'TestRegressionCorpus|TestReplayTrace' -count=1 -v
