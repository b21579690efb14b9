package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// Schema identifies the report format. Bump the suffix on any breaking
// change to the Report/Result shape; Compare and ReadFile refuse
// reports from a different schema rather than misreading them.
const Schema = "nrl-bench/1"

// Report is one benchmark-suite run in machine-comparable form.
type Report struct {
	// Schema is always the package's Schema constant.
	Schema string `json:"schema"`
	// Suite names the benchmark suite: a key of Suites().
	Suite string `json:"suite"`
	// Go, GOOS, GOARCH and CPUs record the environment the numbers were
	// taken in; Compare warns when they differ between reports.
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	// Results holds one entry per benchmark, in suite order.
	Results []Result `json:"results"`
}

// Result is one benchmark's measurements. Percentile fields are zero
// when latency sampling was disabled; the nvm.Stats-derived rates are
// zero for benchmarks that do not exercise the persistence side.
type Result struct {
	// Name is the benchmark identifier ("BufferedCASPersist/procs=8").
	Name string `json:"name"`
	// Ops is the number of operations of one throughput round (the rate
	// denominators aggregate over every round).
	Ops int `json:"ops"`
	// NsPerOp is the best round's wall time divided by Ops (workers run
	// concurrently).
	NsPerOp float64 `json:"ns_per_op"`
	// RoundsNs is every round's ns/op in round order — the raw series
	// NsPerOp is the minimum of. The overhead gate pairs the series of
	// a group's two rows for its median-paired estimate (see
	// OverheadResult.Overhead), and a surprising ratio can be read
	// against the round-to-round spread of the machine that produced
	// it. Absent in pre-rounds reports.
	RoundsNs []float64 `json:"rounds_ns,omitempty"`
	// P50Ns and P99Ns are percentiles of individually timed operations,
	// sampled throughout the run and corrected for timer overhead.
	P50Ns float64 `json:"p50_ns"`
	P99Ns float64 `json:"p99_ns"`
	// AllocsPerOp and BytesPerOp are heap-allocation rates over the
	// whole measured region (runtime.MemStats deltas), including the
	// harness's own fixed costs amortised over Ops.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// MemOpsPerOp is the nvm.Stats Total() delta per operation: the
	// NVRAM primitives (reads, writes, CAS, TAS, FAA) one operation
	// issues — the algorithmic cost of recoverability, retries and
	// recovery work, independent of the machine's speed.
	MemOpsPerOp float64 `json:"mem_ops_per_op"`
	// FlushesPerOp, FencesPerOp and FenceWordsPerOp are nvm.Stats
	// deltas per operation: how much persistence traffic one operation
	// issues and how many words its fences actually drain.
	FlushesPerOp    float64 `json:"flushes_per_op"`
	FencesPerOp     float64 `json:"fences_per_op"`
	FenceWordsPerOp float64 `json:"fence_words_per_op"`
	// ShardContention is the raw count of contended bank-mutex
	// acquisitions over the whole run (see nvm.StatsSnapshot).
	ShardContention uint64 `json:"shard_contention"`
}

// newReport returns an empty report for the suite, stamped with the
// current environment.
func newReport(suite string) *Report {
	return &Report{
		Schema: Schema,
		Suite:  suite,
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
	}
}

// Validate checks the report's schema and internal consistency.
func (r *Report) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("bench: unsupported schema %q (want %q)", r.Schema, Schema)
	}
	if r.Suite == "" {
		return fmt.Errorf("bench: report has no suite name")
	}
	seen := make(map[string]bool, len(r.Results))
	for _, res := range r.Results {
		if res.Name == "" {
			return fmt.Errorf("bench: result with empty name in suite %q", r.Suite)
		}
		if seen[res.Name] {
			return fmt.Errorf("bench: duplicate result %q in suite %q", res.Name, r.Suite)
		}
		seen[res.Name] = true
		if res.NsPerOp < 0 || res.Ops < 0 {
			return fmt.Errorf("bench: negative measurement in result %q", res.Name)
		}
	}
	return nil
}

// Result returns the named result and whether it exists.
func (r *Report) Result(name string) (Result, bool) {
	for _, res := range r.Results {
		if res.Name == name {
			return res, true
		}
	}
	return Result{}, false
}

// sorted returns the result names in lexical order (for stable diffs).
func (r *Report) sorted() []string {
	names := make([]string, len(r.Results))
	for i, res := range r.Results {
		names[i] = res.Name
	}
	sort.Strings(names)
	return names
}

// Encode marshals the report as indented JSON with a trailing newline
// (the on-disk BENCH_*.json format).
func (r *Report) Encode() ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the report to path in the Encode format.
func (r *Report) WriteFile(path string) error {
	b, err := r.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadFile loads and validates a report written by WriteFile.
func ReadFile(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
