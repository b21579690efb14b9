// Package bench is the repository's one measurement path: it runs the
// registered suites (Suites: the in-memory experiments suite and the
// file-backed persist suite) in-process, producing schema-versioned,
// machine-comparable reports (BENCH_<suite>.json) instead of free-form
// `go test -bench` text. The experiments suite holds the rows of
// EXPERIMENTS.md's E1–E13, and Experiments renders those tables from
// its report; the root package's BenchmarkSuites runs the same Specs
// under testing.B.
//
// A Report carries, per benchmark: throughput (ns/op), sampled latency
// percentiles (p50/p99), allocation rates, and the rates drawn from
// nvm.Stats — NVRAM primitives, flushes, fences and fence-drained words
// per operation, plus bank-mutex contention — so a perf change shows up
// together with the mechanical reason for it (e.g. fewer fence words
// per op after a flush-set change).
//
// Compare diffs two reports benchmark-by-benchmark and flags ns/op
// regressions beyond a threshold, and applies the suite's absolute
// gates (AllocCaps, OverheadPairs) to the fresh report; `nrlbench
// -compare old.json new.json` is the CLI wrapper CI uses as its gate,
// and `make bench` regenerates the committed baselines. DESIGN.md §9 documents the cost
// model the suites measure; EXPERIMENTS.md §9 records the numbers.
package bench
