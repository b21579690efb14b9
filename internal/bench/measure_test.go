package bench

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nrl/internal/nvm"
)

// TestMeasurePersistRates runs a miniature buffered persist workload
// through the real harness and checks the nvm.Stats-derived rates come
// out exact: the workload issues exactly one flush and one fence per
// operation, and each fence drains exactly one word.
func TestMeasurePersistRates(t *testing.T) {
	spec := Spec{
		Name:    "persist",
		Workers: 2,
		Setup: func(workers, _ int) (*nvm.Memory, []func(int)) {
			mem := nvm.New(nvm.WithMode(nvm.Buffered))
			addrs := mem.AllocArray("w", workers, 0)
			ops := make([]func(int), workers)
			for w := range ops {
				p := w + 1
				a := addrs[w]
				ops[w] = func(i int) {
					mem.WriteAt(a, uint64(i), p)
					mem.FlushAt(a, p)
					mem.FenceAt(p)
				}
			}
			return mem, ops
		},
	}
	res := Measure(spec, Options{Ops: 4000, Samples: 400})
	if res.Ops != 4000 {
		t.Fatalf("Ops = %d, want 4000", res.Ops)
	}
	if res.NsPerOp <= 0 {
		t.Fatalf("NsPerOp = %v, want > 0", res.NsPerOp)
	}
	// The throughput phase is bracketed by DrainStats, so the rates are
	// exact, not approximate: warmup and latency-phase traffic must not
	// leak in.
	if res.FlushesPerOp != 1 || res.FencesPerOp != 1 || res.FenceWordsPerOp != 1 {
		t.Errorf("persist rates = %v/%v/%v flushes/fences/fenceWords per op, want 1/1/1",
			res.FlushesPerOp, res.FencesPerOp, res.FenceWordsPerOp)
	}
	if res.P50Ns <= 0 || res.P99Ns < res.P50Ns {
		t.Errorf("percentiles p50=%v p99=%v: want 0 < p50 <= p99", res.P50Ns, res.P99Ns)
	}
}

// TestMeasureSamplingDisabled checks that negative Samples skips the
// latency phase entirely.
func TestMeasureSamplingDisabled(t *testing.T) {
	spec := Spec{
		Name:    "write",
		Workers: 1,
		Setup: func(_, _ int) (*nvm.Memory, []func(int)) {
			mem := nvm.New()
			a := mem.Alloc("x", 0)
			return mem, []func(int){func(i int) { mem.Write(a, uint64(i)) }}
		},
	}
	res := Measure(spec, Options{Ops: 1000, Samples: -1})
	if res.P50Ns != 0 || res.P99Ns != 0 {
		t.Fatalf("sampling disabled but p50=%v p99=%v", res.P50Ns, res.P99Ns)
	}
	if res.NsPerOp <= 0 {
		t.Fatalf("NsPerOp = %v, want > 0", res.NsPerOp)
	}
}

// TestMeasureTotalOpsBudget checks the capacity budget handed to Setup
// covers warmup, throughput and latency phases: a workload that counts
// its invocations must never exceed it.
func TestMeasureTotalOpsBudget(t *testing.T) {
	var calls, budget int
	spec := Spec{
		Name:    "budget",
		Workers: 1,
		Setup: func(_, totalOps int) (*nvm.Memory, []func(int)) {
			budget = totalOps
			return nil, []func(int){func(int) { calls++ }}
		},
	}
	Measure(spec, Options{Ops: 3000, Samples: 300})
	if calls > budget {
		t.Fatalf("workload ran %d ops, Setup was promised at most %d", calls, budget)
	}
}

func TestRunSuiteAssemblesReport(t *testing.T) {
	specs := []Spec{
		{
			Name:    "a",
			Workers: 1,
			Setup: func(_, _ int) (*nvm.Memory, []func(int)) {
				return nil, []func(int){func(int) { time.Sleep(0) }}
			},
		},
	}
	r := RunSuite("test", specs, Options{Ops: 100, Samples: -1})
	if err := r.Validate(); err != nil {
		t.Fatalf("RunSuite report invalid: %v", err)
	}
	if len(r.Results) != 1 || r.Results[0].Name != "a" {
		t.Fatalf("results = %+v", r.Results)
	}
	if !strings.HasPrefix(r.Go, "go") {
		t.Errorf("environment stamp missing: %+v", r)
	}
}

// TestSuitesRegistry pins the suite names the CLI and Makefile depend
// on, and that every spec is well-formed.
func TestSuitesRegistry(t *testing.T) {
	suites := Suites()
	if got, want := strings.Join(SuiteNames(), ","), "experiments,persist"; got != want {
		t.Fatalf("SuiteNames() = %s, want %s", got, want)
	}
	for name, specs := range suites {
		if len(specs) == 0 {
			t.Fatalf("suite %q is empty", name)
		}
		seen := map[string]bool{}
		for _, s := range specs {
			if s.Name == "" || s.Setup == nil {
				t.Fatalf("suite %q has a malformed spec: %+v", name, s)
			}
			if seen[s.Name] {
				t.Fatalf("suite %q has duplicate spec %q", name, s.Name)
			}
			seen[s.Name] = true
		}
	}
	// The acceptance benchmark of the sharded memory must stay present:
	// the committed baseline's 8-process CAS-persist row is the one the
	// regression gate (and EXPERIMENTS.md §9) is anchored to.
	found := false
	for _, s := range suites["experiments"] {
		if s.Name == "BufferedCASPersist/procs=8" {
			found = true
		}
	}
	if !found {
		t.Fatal("experiments suite lost BufferedCASPersist/procs=8")
	}
}

// TestMeasurePanicReachesCaller: an op's panic must surface on the
// goroutine that called Measure, where deferred cleanup (nrlbench's
// CleanupDirs of the persist suite's stores) runs, instead of killing
// the process from a worker goroutine.
func TestMeasurePanicReachesCaller(t *testing.T) {
	defer func() {
		if r := recover(); r != "op failed" {
			t.Fatalf("recovered %v, want the op's panic value", r)
		}
	}()
	op := func(i int) {
		if i == 5 {
			panic("op failed")
		}
	}
	Measure(Spec{Name: "panics", Workers: 2, Setup: func(int, int) (*nvm.Memory, []func(int)) {
		return nil, []func(int){op, op}
	}}, Options{Ops: 100, Samples: -1})
	t.Fatal("Measure returned after a panicking op")
}

// TestMaxProcsScopesWorkers: a spec's MaxProcs holds while its workers
// run, in every phase, and the process's own setting is back after.
func TestMaxProcsScopesWorkers(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	var seen atomic.Int64
	op := func(int) {
		if n := int64(runtime.GOMAXPROCS(0)); n > seen.Load() {
			seen.Store(n)
		}
	}
	Measure(Spec{Name: "one-core", Workers: 2, MaxProcs: 1, Setup: func(int, int) (*nvm.Memory, []func(int)) {
		return nil, []func(int){op, op}
	}}, Options{Ops: 40, Rounds: 2, Samples: 10})
	if got := seen.Load(); got != 1 {
		t.Errorf("workers saw GOMAXPROCS %d, want 1", got)
	}
	if after := runtime.GOMAXPROCS(0); after != before {
		t.Errorf("GOMAXPROCS %d after Measure, want %d", after, before)
	}
}

// TestRunSuiteRepeatsKeepBest: with Repeats, each repeat measures a
// fresh instance, a row reports the repeat with the best round (here
// the middle one of three), and its rounds series holds every repeat's
// rounds.
func TestRunSuiteRepeatsKeepBest(t *testing.T) {
	setups := 0
	s := Spec{Name: "layout", Workers: 1, Setup: func(int, int) (*nvm.Memory, []func(int)) {
		if setups++; setups == 2 {
			return nil, []func(int){func(int) {}}
		}
		return nil, []func(int){func(int) { time.Sleep(100 * time.Microsecond) }}
	}}
	res := RunSuite("repeats", []Spec{s}, Options{Ops: 10, Rounds: 3, Samples: -1, Repeats: 3}).Results[0]
	if setups != 3 {
		t.Errorf("%d setups, want one per repeat", setups)
	}
	if res.NsPerOp >= float64(100*time.Microsecond) {
		t.Errorf("ns/op %.0f: kept a slow repeat", res.NsPerOp)
	}
	if len(res.RoundsNs) != 9 {
		t.Errorf("%d rounds, want 3 per repeat", len(res.RoundsNs))
	}
}
