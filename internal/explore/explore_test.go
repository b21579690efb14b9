package explore

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"nrl/internal/core"
	"nrl/internal/harness"
	"nrl/internal/history"
	"nrl/internal/linearize"
	"nrl/internal/nvm"
	"nrl/internal/proc"
	"nrl/internal/spec"
)

func regModels() linearize.ModelFor {
	return func(obj string) spec.Model { return spec.Register{} }
}

// registry is the exploration cmd/nrlexplore runs for the named registry
// workload, with the given crash budget.
func registry(t *testing.T, name string, crashes int) Config {
	t.Helper()
	w, ok := harness.WorkloadByName(name)
	if !ok {
		t.Fatalf("no registry workload %q", name)
	}
	cfg := ForWorkload(w)
	cfg.MaxCrashes = crashes
	return cfg
}

// TestExhaustiveRegisterWrites enumerates every interleaving of two
// recoverable WRITEs with every placement of up to one crash, checking
// NRL on each execution. This machine-checks the paper's Lemma 2 for the
// bounded configuration; the count is the one EXPERIMENTS.md reports.
func TestExhaustiveRegisterWrites(t *testing.T) {
	stats, err := Run(registry(t, "register", 1))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Complete || stats.Runs != 62732 {
		t.Errorf("%d executions, complete=%v; want 62732, complete", stats.Runs, stats.Complete)
	}
	if stats.Crashes == 0 {
		t.Error("no crashes explored")
	}
	t.Logf("register 2xWRITE: %d executions, %d crashes, max depth %d",
		stats.Runs, stats.Crashes, stats.MaxDepth)
}

// TestExhaustiveRegisterWriteRead adds a reader: every interleaving of a
// WRITE and a READ with up to one crash.
func TestExhaustiveRegisterWriteRead(t *testing.T) {
	stats, err := Run(Config{
		Procs: 2,
		Build: func(sys *proc.System) map[int]func(*proc.Ctx) {
			r := core.NewRegister(sys, "x", 0)
			return map[int]func(*proc.Ctx){
				1: func(c *proc.Ctx) { r.Write(c, core.Distinct(1, 1, 0)) },
				2: func(c *proc.Ctx) { r.Read(c) },
			}
		},
		Models:     regModels(),
		MaxCrashes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Complete {
		t.Error("exploration did not complete")
	}
	t.Logf("register WRITE||READ: %d executions", stats.Runs)
}

// TestExhaustiveCAS enumerates two competing CAS(0,·) operations with up
// to one crash: Lemma 3 for the bounded configuration, including the
// helping-matrix recovery paths. The count is the one EXPERIMENTS.md
// reports.
func TestExhaustiveCAS(t *testing.T) {
	stats, err := Run(registry(t, "cas", 1))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Complete || stats.Runs != 127980 {
		t.Errorf("%d executions, complete=%v; want 127980, complete", stats.Runs, stats.Complete)
	}
	t.Logf("CAS 2x CAS(0,.): %d executions, %d crashes", stats.Runs, stats.Crashes)
}

// TestExhaustiveCASSecondOp explores a chained configuration: p2 CASes
// from p1's value, exercising the helping write at line 6.
func TestExhaustiveCASSecondOp(t *testing.T) {
	v1 := core.DistinctCAS(1, 1, 0)
	v2 := core.DistinctCAS(2, 1, 0)
	stats, err := Run(Config{
		Procs: 2,
		Build: func(sys *proc.System) map[int]func(*proc.Ctx) {
			o := core.NewCASObject(sys, "c")
			return map[int]func(*proc.Ctx){
				1: func(c *proc.Ctx) { o.CAS(c, 0, v1) },
				2: func(c *proc.Ctx) { o.CAS(c, v1, v2) },
			}
		},
		Models:     func(string) spec.Model { return spec.CAS{} },
		MaxCrashes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Complete {
		t.Error("exploration did not complete")
	}
	t.Logf("CAS chained: %d executions", stats.Runs)
}

// TestExhaustiveCounterInc explores two concurrent INCs of Algorithm 4's
// counter with up to one crash. The full space is too large to
// enumerate exhaustively (the operations nest recoverable register
// reads and writes), so MaxRuns bounds the search to a DFS prefix of
// the space: still tens of thousands of distinct executions, each
// checked for NRL and for exactly-once increments.
func TestExhaustiveCounterInc(t *testing.T) {
	cfg := registry(t, "counter", 1)
	cfg.MaxRuns = 30000
	cfg.Invariant = func(sys *proc.System, h history.History) error {
		incs := 0
		for _, s := range h.Steps {
			if s.Kind == history.Res && s.Obj == "ctr" && s.Op == "INC" {
				incs++
			}
		}
		if incs != 2 {
			return fmt.Errorf("completed %d INCs, want 2", incs)
		}
		return nil
	}
	stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs < 30000 {
		t.Errorf("explored only %d runs", stats.Runs)
	}
	t.Logf("counter 2xINC: %d executions (bounded, complete=%v)", stats.Runs, stats.Complete)
}

// TestExplorerFindsStrawmanViolation is the negative control: the
// explorer must discover the Theorem 4 strawman's NRL violation without
// being told the failing schedule.
func TestExplorerFindsStrawmanViolation(t *testing.T) {
	stats, err := Run(registry(t, "strawman", 1))
	if err == nil {
		t.Fatalf("explorer found no violation in %d runs; the wait-free-recovery strawman should fail", stats.Runs)
	}
	if !strings.Contains(err.Error(), "NRL violated") {
		t.Errorf("unexpected error: %v", err)
	}
	t.Logf("violation found after %d executions: %v", stats.Runs, errors.Unwrap(err))
}

// TestExplorerConfigValidation checks the required fields.
func TestExplorerConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("Run accepted an empty config")
	}
}

// TestExplorerMaxDecisions: a configuration with an unbounded await loop
// must be cut off with a diagnostic rather than hang.
func TestExplorerMaxDecisions(t *testing.T) {
	_, err := Run(Config{
		Procs: 1,
		Build: func(sys *proc.System) map[int]func(*proc.Ctx) {
			flag := sys.Mem().Alloc("flag", 0)
			op := &spinOp{flag: flag}
			return map[int]func(*proc.Ctx){
				1: func(c *proc.Ctx) { c.Invoke(op) },
			}
		},
		Models:       regModels(),
		MaxDecisions: 64,
	})
	if err == nil || !strings.Contains(err.Error(), "MaxDecisions") {
		t.Errorf("Run = %v, want MaxDecisions error", err)
	}
}

type spinOp struct {
	flag nvm.Addr
}

func (o *spinOp) Info() proc.OpInfo {
	return proc.OpInfo{Obj: "spin", Op: "SPIN", Entry: 1, RecoverEntry: 1}
}

func (o *spinOp) Exec(c *proc.Ctx, line int) uint64 {
	c.Await(1, func() bool { return c.Read(o.flag) == 1 })
	return 0
}

// TestEngineBacktrack unit-tests the decision engine's DFS ordering.
func TestEngineBacktrack(t *testing.T) {
	e := &engine{limit: 100}
	var leaves []string
	for {
		e.pos = 0
		a := e.choose(2)
		b := e.choose(3)
		leaves = append(leaves, fmt.Sprintf("%d%d", a, b))
		if !e.backtrack() {
			break
		}
	}
	want := []string{"00", "01", "02", "10", "11", "12"}
	if len(leaves) != len(want) {
		t.Fatalf("enumerated %v, want %v", leaves, want)
	}
	for i := range want {
		if leaves[i] != want[i] {
			t.Errorf("leaf %d = %s, want %s", i, leaves[i], want[i])
		}
	}
}

// TestEngineVariableDepth: subtrees of different depths are enumerated
// correctly (the crash/no-crash pattern).
func TestEngineVariableDepth(t *testing.T) {
	e := &engine{limit: 100}
	var leaves []string
	for {
		e.pos = 0
		// Binary decision; on 1 the path ends, on 0 another decision follows.
		if e.choose(2) == 1 {
			leaves = append(leaves, "1")
		} else if e.choose(2) == 1 {
			leaves = append(leaves, "01")
		} else {
			leaves = append(leaves, "00")
		}
		if !e.backtrack() {
			break
		}
	}
	want := []string{"00", "01", "1"}
	if len(leaves) != len(want) {
		t.Fatalf("enumerated %v, want %v", leaves, want)
	}
	for i := range want {
		if leaves[i] != want[i] {
			t.Errorf("leaf %d = %s, want %s", i, leaves[i], want[i])
		}
	}
}

// TestExhaustiveRegisterTwoCrashes deepens the register exploration to a
// crash budget of two (crash-during-recovery placements included),
// bounded by MaxRuns.
func TestExhaustiveRegisterTwoCrashes(t *testing.T) {
	cfg := registry(t, "register", 2)
	cfg.MaxRuns = 120000
	stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs < 120000 && !stats.Complete {
		t.Errorf("stopped early at %d runs without completing", stats.Runs)
	}
	t.Logf("register 2xWRITE, 2 crashes: %d executions (complete=%v)", stats.Runs, stats.Complete)
}

// TestExploreWaitFreeUniversal runs a bounded DFS-prefix exploration of
// the wait-free universal construction with two concurrent INCs and up to
// one crash — every enumerated execution must satisfy NRL and complete
// both increments.
func TestExploreWaitFreeUniversal(t *testing.T) {
	cfg := registry(t, "wf-universal", 1)
	cfg.MaxRuns = 25000
	cfg.Invariant = func(sys *proc.System, h history.History) error {
		incs := 0
		for _, s := range h.Steps {
			if s.Kind == history.Res && s.Op == "INC" {
				incs++
			}
		}
		if incs != 2 {
			return fmt.Errorf("completed %d INCs, want 2", incs)
		}
		return nil
	}
	stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("wait-free universal 2xINC: %d executions (complete=%v)", stats.Runs, stats.Complete)
}
