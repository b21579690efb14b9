package core_test

import (
	"fmt"
	"testing"

	"nrl/internal/core"
	"nrl/internal/history"
	"nrl/internal/linearize"
	"nrl/internal/proc"
	"nrl/internal/spec"
)

func regModels(initial uint64) linearize.ModelFor {
	return func(obj string) spec.Model { return spec.Register{Initial: initial} }
}

func newSys(inj proc.Injector, n int, sched proc.Scheduler) (*proc.System, *history.Recorder) {
	rec := history.NewRecorder()
	sys := proc.NewSystem(proc.Config{
		Procs:     n,
		Recorder:  rec,
		Injector:  inj,
		Scheduler: sched,
	})
	return sys, rec
}

func mustNRL(t *testing.T, models linearize.ModelFor, h history.History) {
	t.Helper()
	if err := linearize.CheckNRL(models, h); err != nil {
		t.Fatalf("NRL violated: %v\nhistory:\n%s", err, h)
	}
}

func TestRegisterBasic(t *testing.T) {
	sys, rec := newSys(nil, 1, nil)
	r := core.NewRegister(sys, "x", 0)
	c := sys.Proc(1).Ctx()
	if got := r.Read(c); got != 0 {
		t.Errorf("initial Read = %d, want 0", got)
	}
	r.Write(c, 7)
	if got := r.Read(c); got != 7 {
		t.Errorf("Read = %d, want 7", got)
	}
	if got := r.StrictRead(c); got != 7 {
		t.Errorf("StrictRead = %d, want 7", got)
	}
	if got := r.PersistedResponse(sys.Proc(1).Ctx()); got != 7 {
		t.Errorf("PersistedResponse = %d, want 7", got)
	}
	if r.Name() != "x" {
		t.Errorf("Name = %q", r.Name())
	}
	mustNRL(t, regModels(0), rec.History())
}

func TestRegisterWriteCrashEveryLine(t *testing.T) {
	// Crash the writer once at every line of WRITE's body and once at
	// every line of WRITE.RECOVER; the write must still happen exactly
	// once and the history must satisfy NRL.
	for _, line := range []int{2, 3, 4, 5, 6, 11, 14, 16, 17} {
		t.Run(fmt.Sprintf("line%d", line), func(t *testing.T) {
			var inj proc.Injector
			recoverLine := line >= 11
			if recoverLine {
				// Recovery lines 16-17 are only reachable when the crash
				// happened after the primitive write (crash at line 5
				// leaves LI=4 with R already updated).
				inj = proc.Multi{
					&proc.AtLine{Obj: "x", Op: "WRITE", Line: 5},
					&proc.AtLine{Obj: "x", Op: "WRITE", Line: line},
				}
			} else {
				inj = &proc.AtLine{Obj: "x", Op: "WRITE", Line: line}
			}
			sys, rec := newSys(inj, 1, nil)
			r := core.NewRegister(sys, "x", 0)
			c := sys.Proc(1).Ctx()
			r.Write(c, 10)
			r.Write(c, 20)
			if got := r.Read(c); got != 20 {
				t.Errorf("Read = %d, want 20", got)
			}
			wantCrashes := 1
			if recoverLine {
				wantCrashes = 2
			}
			if got := sys.Proc(1).Crashes(); got != wantCrashes {
				t.Errorf("Crashes = %d, want %d", got, wantCrashes)
			}
			mustNRL(t, regModels(0), rec.History())
		})
	}
}

func TestRegisterStrictReadCrashEveryLine(t *testing.T) {
	for _, line := range []int{30, 31, 32, 35} {
		t.Run(fmt.Sprintf("line%d", line), func(t *testing.T) {
			var inj proc.Injector
			if line == 35 {
				inj = proc.Multi{
					&proc.AtLine{Obj: "x", Op: "STRICTREAD", Line: 31},
					&proc.AtLine{Obj: "x", Op: "STRICTREAD", Line: 35},
				}
			} else {
				inj = &proc.AtLine{Obj: "x", Op: "STRICTREAD", Line: line}
			}
			sys, rec := newSys(inj, 1, nil)
			r := core.NewRegister(sys, "x", 0)
			c := sys.Proc(1).Ctx()
			r.Write(c, 5)
			if got := r.StrictRead(c); got != 5 {
				t.Errorf("StrictRead = %d, want 5", got)
			}
			if got := r.PersistedResponse(sys.Proc(1).Ctx()); got != 5 {
				t.Errorf("PersistedResponse = %d, want 5", got)
			}
			mustNRL(t, regModels(0), rec.History())
		})
	}
}

func TestRegisterReadCrash(t *testing.T) {
	inj := &proc.AtLine{Obj: "x", Op: "READ", Line: 9}
	sys, rec := newSys(inj, 1, nil)
	r := core.NewRegister(sys, "x", 0)
	c := sys.Proc(1).Ctx()
	r.Write(c, 3)
	if got := r.Read(c); got != 3 {
		t.Errorf("Read = %d, want 3", got)
	}
	if !inj.Fired() {
		t.Fatal("injector did not fire")
	}
	mustNRL(t, regModels(0), rec.History())
}

// TestRegisterWriteNotReexecutedAfterInterferingWrite exercises the case
// the paper's Lemma 2 analyses: p1 crashes between its two S_p updates
// (after the primitive write), p2 overwrites, and p1's recovery must NOT
// re-execute the write (re-executing would resurrect an old value).
func TestRegisterWriteNotReexecutedAfterInterferingWrite(t *testing.T) {
	inj := &proc.AtLine{Proc: 1, Obj: "x", Op: "WRITE", Line: 5}
	picker := func(candidates []int, step int) int {
		// Until p1 crashes, run p1; afterwards prefer p2 so its write
		// lands between p1's crash and p1's recovery.
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
	r := core.NewRegister(sys, "x", 0)
	sys.Run(map[int]func(*proc.Ctx){
		1: func(c *proc.Ctx) { r.Write(c, core.Distinct(1, 1, 11)) },
		2: func(c *proc.Ctx) { r.Write(c, core.Distinct(2, 1, 22)) },
	})
	// p2's write must have overwritten p1's: p1 crashed after its
	// primitive write (line 4), p2 then wrote, and p1's recovery has to
	// linearize the crashed write before p2's rather than redo it.
	if got := r.Read(sys.Proc(1).Ctx()); got != core.Distinct(2, 1, 22) {
		t.Errorf("final value = %d, want p2's write %d", got, core.Distinct(2, 1, 22))
	}
	mustNRL(t, regModels(0), rec.History())
}

// TestRegisterWriteReexecutedWhenNoInterference: p1 crashes between the
// S_p updates but before the primitive write; nobody interferes, so
// recovery re-executes and the value lands.
func TestRegisterWriteReexecutedWhenNoInterference(t *testing.T) {
	inj := &proc.AtLine{Proc: 1, Obj: "x", Op: "WRITE", Line: 4}
	sys, rec := newSys(inj, 1, nil)
	r := core.NewRegister(sys, "x", 0)
	c := sys.Proc(1).Ctx()
	v := core.Distinct(1, 1, 9)
	r.Write(c, v)
	if got := r.Read(c); got != v {
		t.Errorf("Read = %d, want %d", got, v)
	}
	mustNRL(t, regModels(0), rec.History())
}

func TestRegisterConcurrentStressControlled(t *testing.T) {
	const (
		seeds = 25
		nProc = 3
		opsPP = 8
	)
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inj := &proc.Random{Rate: 0.03, Seed: seed, MaxCrashes: 5}
			sys, rec := newSys(inj, nProc, proc.NewControlled(proc.RandomPicker(seed)))
			r := core.NewRegister(sys, "x", 0)
			bodies := make(map[int]func(*proc.Ctx))
			for p := 1; p <= nProc; p++ {
				p := p
				bodies[p] = func(c *proc.Ctx) {
					for i := 0; i < opsPP; i++ {
						if i%3 == 2 {
							r.Read(c)
						} else {
							r.Write(c, core.Distinct(p, uint32(i+1), uint32(i)))
						}
					}
				}
			}
			sys.Run(bodies)
			mustNRL(t, regModels(0), rec.History())
		})
	}
}

func TestRegisterConcurrentStressFree(t *testing.T) {
	inj := &proc.Random{Rate: 0.01, Seed: 99, MaxCrashes: 20}
	sys, rec := newSys(inj, 4, nil)
	r := core.NewRegister(sys, "x", 0)
	for p := 1; p <= 4; p++ {
		sys.Go(p, func(c *proc.Ctx) {
			for i := 0; i < 50; i++ {
				if i%4 == 3 {
					r.Read(c)
				} else {
					r.Write(c, core.Distinct(c.P(), uint32(i+1), uint32(i)))
				}
			}
		})
	}
	sys.Wait()
	mustNRL(t, regModels(0), rec.History())
}

func TestRegisterValueValidation(t *testing.T) {
	sys, _ := newSys(nil, 1, nil)
	r := core.NewRegister(sys, "x", 0)
	defer func() {
		if recover() == nil {
			t.Error("Write of an out-of-range value did not panic")
		}
	}()
	r.Write(sys.Proc(1).Ctx(), 1<<63)
}

func TestNewRegisterValidatesInitial(t *testing.T) {
	sys, _ := newSys(nil, 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("NewRegister with out-of-range initial did not panic")
		}
	}()
	core.NewRegister(sys, "bad", 1<<63)
}
