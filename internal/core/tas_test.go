package core_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"nrl/internal/core"
	"nrl/internal/history"
	"nrl/internal/linearize"
	"nrl/internal/proc"
	"nrl/internal/spec"
)

func tasModels() linearize.ModelFor {
	return func(obj string) spec.Model { return spec.TAS{} }
}

// checkUniqueWinner asserts that exactly one of the responses is 0.
func checkUniqueWinner(t *testing.T, rets []uint64) {
	t.Helper()
	zeros := 0
	for _, r := range rets {
		switch r {
		case 0:
			zeros++
		case 1:
		default:
			t.Fatalf("T&S returned %d, want 0 or 1", r)
		}
	}
	if zeros != 1 {
		t.Errorf("%d processes won T&S, want exactly 1 (responses %v)", zeros, rets)
	}
}

func TestTASSingleProcess(t *testing.T) {
	sys, rec := newSys(nil, 1, nil)
	o := core.NewTAS(sys, "t")
	c := sys.Proc(1).Ctx()
	if got := o.TestAndSet(c); got != 0 {
		t.Errorf("T&S = %d, want 0", got)
	}
	if got := o.Winner(sys.Mem()); got != 1 {
		t.Errorf("Winner = %d, want 1", got)
	}
	if o.Name() != "t" {
		t.Errorf("Name = %q", o.Name())
	}
	mustNRL(t, tasModels(), rec.History())
}

func TestTASDoubleInvokePanics(t *testing.T) {
	sys, _ := newSys(nil, 1, nil)
	o := core.NewTAS(sys, "t")
	c := sys.Proc(1).Ctx()
	o.TestAndSet(c)
	defer func() {
		if recover() == nil {
			t.Error("second T&S by the same process did not panic")
		}
	}()
	o.TestAndSet(c)
}

func TestTASConcurrentFree(t *testing.T) {
	const n = 6
	sys, rec := newSys(nil, n, nil)
	o := core.NewTAS(sys, "t")
	rets := make([]uint64, n+1)
	for p := 1; p <= n; p++ {
		sys.Go(p, func(c *proc.Ctx) { rets[c.P()] = o.TestAndSet(c) })
	}
	sys.Wait()
	checkUniqueWinner(t, rets[1:])
	mustNRL(t, tasModels(), rec.History())
}

func TestTASCrashEveryLineSolo(t *testing.T) {
	// A single process crashing once at every reachable line must still
	// win (it is alone) and the history must satisfy NRL.
	lines := []int{2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 15, 17, 20, 22, 23, 24, 29, 30, 31, 32, 33, 34}
	for _, line := range lines {
		t.Run(fmt.Sprintf("line%d", line), func(t *testing.T) {
			var inj proc.Injector
			if line >= 15 {
				// Recovery lines need a prior crash; crash at line 9
				// leaves R[p]=2 with the primitive t&s taken, which
				// reaches the deep recovery path (Winner still null).
				inj = proc.Multi{
					&proc.AtLine{Obj: "t", Op: "T&S", Line: 9},
					&proc.AtLine{Obj: "t", Op: "T&S", Line: line},
				}
			} else {
				inj = &proc.AtLine{Obj: "t", Op: "T&S", Line: line}
			}
			sys, rec := newSys(inj, 1, nil)
			o := core.NewTAS(sys, "t")
			if got := o.TestAndSet(sys.Proc(1).Ctx()); got != 0 {
				t.Errorf("T&S = %d, want 0 (solo process must win)", got)
			}
			mustNRL(t, tasModels(), rec.History())
		})
	}
}

// TestTASCrashedWinnerRecovery: p1 wins the primitive t&s but crashes
// before declaring itself in Winner; p2 completes (returning 1 — the
// doorway closed); p1's recovery must then claim the win.
func TestTASCrashedWinnerRecovery(t *testing.T) {
	inj := &proc.AtLine{Proc: 1, Obj: "t", Op: "T&S", Line: 9}
	picker := func(candidates []int, step int) int {
		if !inj.Fired() {
			return candidates[0] // p1 first: it wins t&s, then crashes
		}
		for _, c := range candidates {
			if c == 2 {
				return c // p2 runs to completion during p1's recovery
			}
		}
		return candidates[0]
	}
	sys, rec := newSys(inj, 2, proc.NewControlled(picker))
	o := core.NewTAS(sys, "t")
	rets := make([]uint64, 3)
	sys.Run(map[int]func(*proc.Ctx){
		1: func(c *proc.Ctx) { rets[1] = o.TestAndSet(c) },
		2: func(c *proc.Ctx) { rets[2] = o.TestAndSet(c) },
	})
	if rets[1] != 0 {
		t.Errorf("p1 (crashed primitive winner) returned %d, want 0", rets[1])
	}
	if rets[2] != 1 {
		t.Errorf("p2 returned %d, want 1", rets[2])
	}
	if got := o.Winner(sys.Mem()); got != 1 {
		t.Errorf("Winner = %d, want 1", got)
	}
	mustNRL(t, tasModels(), rec.History())
}

// TestTASLateArrivalLoses: the doorway is closed by the time p2 shows up,
// so p2 must return 1 even if the winner has not declared itself yet.
func TestTASLateArrivalLoses(t *testing.T) {
	// p1 runs alone past line 7 (doorway closed), then crashes at line 9;
	// then p2 runs to completion; then p1 recovers.
	inj := &proc.AtLine{Proc: 1, Obj: "t", Op: "T&S", Line: 9}
	picker := func(candidates []int, step int) int {
		if !inj.Fired() {
			return candidates[0]
		}
		for _, c := range candidates {
			if c == 2 {
				return c
			}
		}
		return candidates[0]
	}
	sys, rec := newSys(inj, 2, proc.NewControlled(picker))
	o := core.NewTAS(sys, "t")
	rets := make([]uint64, 3)
	sys.Run(map[int]func(*proc.Ctx){
		1: func(c *proc.Ctx) { rets[1] = o.TestAndSet(c) },
		2: func(c *proc.Ctx) { rets[2] = o.TestAndSet(c) },
	})
	checkUniqueWinner(t, rets[1:])
	if rets[2] != 1 {
		t.Errorf("late arrival p2 returned %d, want 1", rets[2])
	}
	mustNRL(t, tasModels(), rec.History())
}

// TestTASBothCrashDeepRecovery crashes both processes after the doorway
// closes, forcing both through the waiting loops of T&S.RECOVER; the
// smaller id must resolve the race and exactly one winner emerge.
func TestTASBothCrashDeepRecovery(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inj := proc.Multi{
				&proc.AtLine{Proc: 1, Obj: "t", Op: "T&S", Line: 9},
				&proc.AtLine{Proc: 2, Obj: "t", Op: "T&S", Line: 9},
			}
			sys, rec := newSys(inj, 2, proc.NewControlled(proc.RandomPicker(seed)))
			o := core.NewTAS(sys, "t")
			rets := make([]uint64, 3)
			sys.Run(map[int]func(*proc.Ctx){
				1: func(c *proc.Ctx) { rets[1] = o.TestAndSet(c) },
				2: func(c *proc.Ctx) { rets[2] = o.TestAndSet(c) },
			})
			checkUniqueWinner(t, rets[1:])
			mustNRL(t, tasModels(), rec.History())
		})
	}
}

func TestTASStressControlled(t *testing.T) {
	const seeds = 20
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inj := &proc.Random{Rate: 0.04, Seed: seed, MaxCrashes: 4}
			sys, rec := newSys(inj, 4, proc.NewControlled(proc.RandomPicker(seed)))
			o := core.NewTAS(sys, "t")
			rets := make([]uint64, 5)
			bodies := make(map[int]func(*proc.Ctx))
			for p := 1; p <= 4; p++ {
				p := p
				bodies[p] = func(c *proc.Ctx) { rets[p] = o.TestAndSet(c) }
			}
			sys.Run(bodies)
			checkUniqueWinner(t, rets[1:])
			mustNRL(t, tasModels(), rec.History())
		})
	}
}

func TestTASStressFree(t *testing.T) {
	for round := 0; round < 10; round++ {
		inj := &proc.Random{Rate: 0.02, Seed: int64(round), MaxCrashes: 6}
		sys, rec := newSys(inj, 5, nil)
		o := core.NewTAS(sys, "t")
		var zeros atomic.Int32
		for p := 1; p <= 5; p++ {
			sys.Go(p, func(c *proc.Ctx) {
				if o.TestAndSet(c) == 0 {
					zeros.Add(1)
				}
			})
		}
		sys.Wait()
		if zeros.Load() != 1 {
			t.Errorf("round %d: %d winners, want 1", round, zeros.Load())
		}
		mustNRL(t, tasModels(), rec.History())
	}
}

// TestTASRecoveryIsBlocking documents the Theorem 4 phenomenon on the
// positive side: the recovery of a crashed contender spins in its waiting
// loops while another process is mid-operation, and completes once that
// process finishes.
func TestTASRecoveryIsBlocking(t *testing.T) {
	inj := &proc.AtLine{Proc: 2, Obj: "t", Op: "T&S", Line: 9}
	// After p2 crashes, alternate strictly: p2's recovery cannot finish
	// until p1 (stuck mid-operation, R[1]=2) completes, so p2 must spin
	// in await(R[1]=0 or R[1]=3).
	var p2RecoverySpins atomic.Int64
	base := proc.RandomPicker(1)
	picker := func(candidates []int, step int) int {
		if inj.Fired() && len(candidates) == 2 {
			p2RecoverySpins.Add(1)
		}
		return base(candidates, step)
	}
	// p1 enters the doorway first (one warmup pick), then p2 runs and
	// crashes after winning or losing the primitive t&s.
	warm := 0
	outer := func(candidates []int, step int) int {
		if warm < 4 {
			for _, c := range candidates {
				if c == 1 {
					warm++
					return 1
				}
			}
		}
		if !inj.Fired() {
			for _, c := range candidates {
				if c == 2 {
					return 2
				}
			}
		}
		return picker(candidates, step)
	}
	sys, rec := newSys(inj, 2, proc.NewControlled(outer))
	o := core.NewTAS(sys, "t")
	rets := make([]uint64, 3)
	sys.Run(map[int]func(*proc.Ctx){
		1: func(c *proc.Ctx) { rets[1] = o.TestAndSet(c) },
		2: func(c *proc.Ctx) { rets[2] = o.TestAndSet(c) },
	})
	checkUniqueWinner(t, rets[1:])
	mustNRL(t, tasModels(), rec.History())
}

func TestTASHistoryShape(t *testing.T) {
	// Sanity-check the recorded history: one INV and one RES per process.
	sys, rec := newSys(nil, 3, nil)
	o := core.NewTAS(sys, "t")
	for p := 1; p <= 3; p++ {
		sys.Go(p, func(c *proc.Ctx) { o.TestAndSet(c) })
	}
	sys.Wait()
	h := rec.History()
	invs, ress := 0, 0
	for _, s := range h.Steps {
		switch s.Kind {
		case history.Inv:
			invs++
		case history.Res:
			ress++
		}
	}
	if invs != 3 || ress != 3 {
		t.Errorf("history has %d INV / %d RES, want 3/3:\n%s", invs, ress, h)
	}
}

// TestTASReadableBaseVariant exercises the paper's footnote-3 variant
// (readable base t&s replaces the doorway) through the same scenarios as
// the doorway version: solo per-line crashes, concurrency, and the
// crashed-primitive-winner recovery.
func TestTASReadableBaseVariant(t *testing.T) {
	t.Run("solo crash lines", func(t *testing.T) {
		for _, line := range []int{2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 15, 20, 23, 24, 29, 30, 33} {
			inj := &proc.AtLine{Obj: "t", Op: "T&S", Line: line}
			sys, rec := newSys(inj, 1, nil)
			o := core.NewTASReadableBase(sys, "t")
			if got := o.TestAndSet(sys.Proc(1).Ctx()); got != 0 {
				t.Errorf("line %d: T&S = %d, want 0", line, got)
			}
			mustNRL(t, tasModels(), rec.History())
		}
	})
	t.Run("concurrent free", func(t *testing.T) {
		const n = 5
		sys, rec := newSys(nil, n, nil)
		o := core.NewTASReadableBase(sys, "t")
		rets := make([]uint64, n+1)
		for p := 1; p <= n; p++ {
			sys.Go(p, func(c *proc.Ctx) { rets[c.P()] = o.TestAndSet(c) })
		}
		sys.Wait()
		checkUniqueWinner(t, rets[1:])
		mustNRL(t, tasModels(), rec.History())
	})
	t.Run("crashed winner recovers", func(t *testing.T) {
		inj := &proc.AtLine{Proc: 1, Obj: "t", Op: "T&S", Line: 9}
		picker := func(candidates []int, step int) int {
			if !inj.Fired() {
				return candidates[0]
			}
			for _, c := range candidates {
				if c == 2 {
					return c
				}
			}
			return candidates[0]
		}
		sys, rec := newSys(inj, 2, proc.NewControlled(picker))
		o := core.NewTASReadableBase(sys, "t")
		rets := make([]uint64, 3)
		sys.Run(map[int]func(*proc.Ctx){
			1: func(c *proc.Ctx) { rets[1] = o.TestAndSet(c) },
			2: func(c *proc.Ctx) { rets[2] = o.TestAndSet(c) },
		})
		if rets[1] != 0 || rets[2] != 1 {
			t.Errorf("responses = %d,%d, want 0,1", rets[1], rets[2])
		}
		mustNRL(t, tasModels(), rec.History())
	})
	t.Run("stress seeds", func(t *testing.T) {
		for seed := int64(0); seed < 10; seed++ {
			inj := &proc.Random{Rate: 0.04, Seed: seed, MaxCrashes: 4}
			sys, rec := newSys(inj, 4, proc.NewControlled(proc.RandomPicker(seed)))
			o := core.NewTASReadableBase(sys, "t")
			rets := make([]uint64, 5)
			bodies := make(map[int]func(*proc.Ctx))
			for p := 1; p <= 4; p++ {
				p := p
				bodies[p] = func(c *proc.Ctx) { rets[p] = o.TestAndSet(c) }
			}
			sys.Run(bodies)
			checkUniqueWinner(t, rets[1:])
			mustNRL(t, tasModels(), rec.History())
		}
	})
}

// TestTASCrashedContenderOutstepsCrashFree is E6's count side (the cost
// Theorem 4 proves unavoidable): with every contender crashing right
// after the critical t&s (line 9), exactly one process still wins, and
// a crashed contender — whose recovery waits out every process still
// mid-operation — takes more steps than the crash-free per-process mean.
func TestTASCrashedContenderOutstepsCrashFree(t *testing.T) {
	// meanSteps runs one T&S per process under a seeded controlled
	// schedule and averages the steps of the crashed processes (of all
	// processes when crash is false).
	meanSteps := func(n int, seed int64, crash bool) float64 {
		var inj proc.Multi
		for p := 1; crash && p <= n; p++ {
			inj = append(inj, &proc.AtLine{Proc: p, Obj: "t", Op: "T&S", Line: 9})
		}
		sys, rec := newSys(inj, n, proc.NewControlled(proc.RandomPicker(seed)))
		o := core.NewTAS(sys, "t")
		rets := make([]uint64, n+1)
		bodies := map[int]func(*proc.Ctx){}
		for p := 1; p <= n; p++ {
			bodies[p] = func(c *proc.Ctx) { rets[c.P()] = o.TestAndSet(c) }
		}
		sys.Run(bodies)
		checkUniqueWinner(t, rets[1:])
		mustNRL(t, tasModels(), rec.History())
		var steps, counted uint64
		for p := 1; p <= n; p++ {
			if !crash || sys.Proc(p).Crashes() > 0 {
				steps, counted = steps+sys.Proc(p).Steps(), counted+1
			}
		}
		if counted == 0 {
			t.Fatalf("n=%d seed=%d: no contender reached the crash line", n, seed)
		}
		return float64(steps) / float64(counted)
	}
	for _, n := range []int{2, 4, 8} {
		for seed := int64(1); seed <= 5; seed++ {
			if free, crashed := meanSteps(n, seed, false), meanSteps(n, seed, true); crashed <= free {
				t.Errorf("n=%d seed=%d: crashed contender took %.1f steps, crash-free mean %.1f; want more",
					n, seed, crashed, free)
			}
		}
	}
}
