package core_test

import (
	"fmt"
	"testing"

	"nrl/internal/core"
	"nrl/internal/linearize"
	"nrl/internal/proc"
	"nrl/internal/spec"
)

func casModels() linearize.ModelFor {
	return func(obj string) spec.Model { return spec.CAS{} }
}

// v builds a per-process distinct CAS value.
func v(pid int, seq uint32) uint64 { return core.DistinctCAS(pid, seq, 0) }

func TestCASBasic(t *testing.T) {
	sys, rec := newSys(nil, 1, nil)
	o := core.NewCASObject(sys, "c")
	c := sys.Proc(1).Ctx()
	if got := o.Read(c); got != 0 {
		t.Errorf("initial Read = %d, want 0", got)
	}
	if !o.CAS(c, 0, v(1, 1)) {
		t.Error("CAS(0,v) on initial object failed")
	}
	if o.CAS(c, 0, v(1, 2)) {
		t.Error("CAS(0,v') after install succeeded")
	}
	if !o.CAS(c, v(1, 1), v(1, 3)) {
		t.Error("CAS(v,v'') failed")
	}
	if got := o.Read(c); got != v(1, 3) {
		t.Errorf("Read = %d, want %d", got, v(1, 3))
	}
	if o.Name() != "c" {
		t.Errorf("Name = %q", o.Name())
	}
	mustNRL(t, casModels(), rec.History())
}

func TestCASCrashEveryLine(t *testing.T) {
	// One process, crash once at every line of CAS (successful path) and
	// of CAS.RECOVER; semantics and NRL must hold.
	for _, line := range []int{2, 3, 5, 7, 8, 13, 14} {
		t.Run(fmt.Sprintf("line%d", line), func(t *testing.T) {
			var inj proc.Injector
			if line >= 13 {
				inj = proc.Multi{
					&proc.AtLine{Obj: "c", Op: "CAS", Line: 8},
					&proc.AtLine{Obj: "c", Op: "CAS", Line: line},
				}
			} else {
				inj = &proc.AtLine{Obj: "c", Op: "CAS", Line: line}
			}
			sys, rec := newSys(inj, 1, nil)
			o := core.NewCASObject(sys, "c")
			c := sys.Proc(1).Ctx()
			if !o.CAS(c, 0, v(1, 1)) {
				t.Error("CAS failed")
			}
			if got := o.Read(c); got != v(1, 1) {
				t.Errorf("Read = %d, want %d", got, v(1, 1))
			}
			if got := sys.Proc(1).Crashes(); got < 1 {
				t.Errorf("Crashes = %d, want >= 1", got)
			}
			mustNRL(t, casModels(), rec.History())
		})
	}
}

func TestCASFailedPathCrash(t *testing.T) {
	// The object holds someone else's value; a CAS(0,new) fails its
	// compare and returns false at line 4. Crash it around the compare:
	// recovery re-executes (a failed CAS affects nobody) and still
	// returns false.
	for _, line := range []int{3, 4} {
		t.Run(fmt.Sprintf("line%d", line), func(t *testing.T) {
			inj := &proc.AtLine{Proc: 2, Obj: "c", Op: "CAS", Line: line}
			sys, rec := newSys(inj, 2, nil)
			o := core.NewCASObject(sys, "c")
			c1 := sys.Proc(1).Ctx()
			c2 := sys.Proc(2).Ctx()
			if !o.CAS(c1, 0, v(1, 1)) {
				t.Fatal("setup CAS failed")
			}
			if o.CAS(c2, 0, v(2, 1)) {
				t.Error("CAS(0,_) against installed value succeeded")
			}
			if !inj.Fired() {
				t.Fatal("injector did not fire")
			}
			mustNRL(t, casModels(), rec.History())
		})
	}
}

// TestCASFailedPrimitiveCrash drives p2 through the slow failure path:
// p2 reads C (null), p1 installs its value, p2's primitive cas at line 7
// fails, and p2 crashes before reading the response. Recovery finds
// neither <p2,new> in C nor new in R[p2][*], re-executes, and returns
// false.
func TestCASFailedPrimitiveCrash(t *testing.T) {
	inj := &proc.AtLine{Proc: 2, Obj: "c", Op: "CAS", Line: 8}
	// Two warmup picks: one for the invocation yield, one for the Step(2)
	// yield (after which p2 executes the read of C).
	p2Warmup := 0
	picker := func(candidates []int, step int) int {
		if p2Warmup < 2 {
			for _, c := range candidates {
				if c == 2 {
					p2Warmup++
					return 2 // let p2 read C while it is still null
				}
			}
		}
		for _, c := range candidates {
			if c == 1 {
				return 1 // then run p1 to completion
			}
		}
		return candidates[0]
	}
	sys, rec := newSys(inj, 2, proc.NewControlled(picker))
	o := core.NewCASObject(sys, "c")
	var ret1, ret2 bool
	sys.Run(map[int]func(*proc.Ctx){
		1: func(c *proc.Ctx) { ret1 = o.CAS(c, 0, v(1, 1)) },
		2: func(c *proc.Ctx) { ret2 = o.CAS(c, 0, v(2, 1)) },
	})
	if !ret1 {
		t.Error("p1's CAS failed")
	}
	if ret2 {
		t.Error("p2's CAS succeeded although p1 installed first")
	}
	if !inj.Fired() {
		t.Fatal("injector did not fire")
	}
	if got := sys.Proc(2).Crashes(); got != 1 {
		t.Errorf("p2 crashes = %d, want 1", got)
	}
	mustNRL(t, casModels(), rec.History())
}

// TestCASHelpingMatrix exercises the paper's key recovery scenario: p1's
// cas primitive succeeds, p1 crashes before reading the response, p2
// replaces p1's value (writing it to R[p1][p2] first), and p1's recovery
// must still conclude "true" via the helping matrix.
func TestCASHelpingMatrix(t *testing.T) {
	inj := &proc.AtLine{Proc: 1, Obj: "c", Op: "CAS", Line: 8}
	picker := func(candidates []int, step int) int {
		if !inj.Fired() {
			return candidates[0] // run p1 until it crashes
		}
		for _, c := range candidates {
			if c == 2 {
				return c // then run p2 to completion
			}
		}
		return candidates[0]
	}
	sys, rec := newSys(inj, 2, proc.NewControlled(picker))
	o := core.NewCASObject(sys, "c")
	var ret1, ret2 bool
	sys.Run(map[int]func(*proc.Ctx){
		1: func(c *proc.Ctx) { ret1 = o.CAS(c, 0, v(1, 1)) },
		2: func(c *proc.Ctx) { ret2 = o.CAS(c, v(1, 1), v(2, 1)) },
	})
	if !ret1 {
		t.Error("p1's recovered CAS reported failure; helping matrix broken")
	}
	if !ret2 {
		t.Error("p2's CAS failed")
	}
	if got := o.Read(sys.Proc(1).Ctx()); got != v(2, 1) {
		t.Errorf("final value = %d, want %d", got, v(2, 1))
	}
	// p2 must have helped through R[p1][p2] before its cas.
	mustNRL(t, casModels(), rec.History())
}

func TestStrictCASBasic(t *testing.T) {
	sys, rec := newSys(nil, 1, nil)
	o := core.NewCASObject(sys, "c")
	c := sys.Proc(1).Ctx()
	if !o.StrictCAS(c, 0, v(1, 1)) {
		t.Error("StrictCAS failed")
	}
	if resp, ok := o.PersistedCASResponse(sys.Proc(1).Ctx()); !ok || resp != 1 {
		t.Errorf("PersistedCASResponse = %d,%v, want 1,true", resp, ok)
	}
	if o.StrictCAS(c, 0, v(1, 2)) {
		t.Error("second StrictCAS(0,_) succeeded")
	}
	if resp, ok := o.PersistedCASResponse(sys.Proc(1).Ctx()); !ok || resp != 0 {
		t.Errorf("PersistedCASResponse = %d,%v, want 0,true", resp, ok)
	}
	mustNRL(t, casModels(), rec.History())
}

func TestStrictCASCrashEveryLine(t *testing.T) {
	for _, line := range []int{40, 41, 42, 43, 45, 47, 48, 49, 50} {
		t.Run(fmt.Sprintf("line%d", line), func(t *testing.T) {
			var inj proc.Injector
			if line == 50 {
				inj = proc.Multi{
					&proc.AtLine{Obj: "c", Op: "STRICTCAS", Line: 47},
					&proc.AtLine{Obj: "c", Op: "STRICTCAS", Line: 50},
				}
			} else {
				inj = &proc.AtLine{Obj: "c", Op: "STRICTCAS", Line: line}
			}
			sys, rec := newSys(inj, 1, nil)
			o := core.NewCASObject(sys, "c")
			c := sys.Proc(1).Ctx()
			if !o.StrictCAS(c, 0, v(1, 1)) {
				t.Error("StrictCAS failed")
			}
			if resp, ok := o.PersistedCASResponse(sys.Proc(1).Ctx()); !ok || resp != 1 {
				t.Errorf("PersistedCASResponse = %d,%v, want 1,true", resp, ok)
			}
			mustNRL(t, casModels(), rec.History())
		})
	}
}

// TestStrictCASDoubleCrash crashes after the primitive cas took effect
// (response lost, not yet persisted) and then again at the start of
// recovery: the recovery must reconstruct the response from C / the
// helping matrix and persist it.
func TestStrictCASDoubleCrash(t *testing.T) {
	inj := proc.Multi{
		&proc.AtLine{Obj: "c", Op: "STRICTCAS", Line: 47}, // after primitive cas
		&proc.AtLine{Obj: "c", Op: "STRICTCAS", Line: 50}, // at recovery entry
	}
	sys, rec := newSys(inj, 1, nil)
	o := core.NewCASObject(sys, "c")
	c := sys.Proc(1).Ctx()
	if !o.StrictCAS(c, 0, v(1, 1)) {
		t.Error("StrictCAS failed")
	}
	if got := sys.Proc(1).Crashes(); got != 2 {
		t.Errorf("Crashes = %d, want 2", got)
	}
	if resp, ok := o.PersistedCASResponse(sys.Proc(1).Ctx()); !ok || resp != 1 {
		t.Errorf("PersistedCASResponse = %d,%v, want 1,true", resp, ok)
	}
	mustNRL(t, casModels(), rec.History())
}

// TestStrictCASMixedWithPlain interleaves strict and plain CAS operations
// on one object under random schedules and crashes; the single object
// subhistory must stay linearizable against the CAS specification.
func TestStrictCASMixedWithPlain(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		inj := &proc.Random{Rate: 0.03, Seed: seed, MaxCrashes: 4}
		sys, rec := newSys(inj, 3, proc.NewControlled(proc.RandomPicker(seed)))
		o := core.NewCASObject(sys, "c")
		bodies := make(map[int]func(*proc.Ctx))
		for p := 1; p <= 3; p++ {
			p := p
			bodies[p] = func(c *proc.Ctx) {
				for i := 0; i < 5; i++ {
					cur := o.Read(c)
					nv := core.DistinctCAS(p, uint32(i+1), 3)
					if p%2 == 0 {
						o.StrictCAS(c, cur, nv)
					} else {
						o.CAS(c, cur, nv)
					}
				}
			}
		}
		sys.Run(bodies)
		mustNRL(t, casModels(), rec.History())
	}
}

func TestCASConcurrentStressControlled(t *testing.T) {
	const seeds = 25
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inj := &proc.Random{Rate: 0.03, Seed: seed, MaxCrashes: 5}
			sys, rec := newSys(inj, 3, proc.NewControlled(proc.RandomPicker(seed)))
			o := core.NewCASObject(sys, "c")
			bodies := make(map[int]func(*proc.Ctx))
			for p := 1; p <= 3; p++ {
				p := p
				bodies[p] = func(c *proc.Ctx) {
					for i := 0; i < 6; i++ {
						cur := o.Read(c)
						o.CAS(c, cur, core.DistinctCAS(p, uint32(i+1), 0))
					}
				}
			}
			sys.Run(bodies)
			mustNRL(t, casModels(), rec.History())
		})
	}
}

func TestCASConcurrentStressFree(t *testing.T) {
	inj := &proc.Random{Rate: 0.005, Seed: 5, MaxCrashes: 15}
	sys, rec := newSys(inj, 4, nil)
	o := core.NewCASObject(sys, "c")
	for p := 1; p <= 4; p++ {
		sys.Go(p, func(c *proc.Ctx) {
			for i := 0; i < 30; i++ {
				cur := o.Read(c)
				o.CAS(c, cur, core.DistinctCAS(c.P(), uint32(i+1), 7))
			}
		})
	}
	sys.Wait()
	mustNRL(t, casModels(), rec.History())
}

func TestCASValidation(t *testing.T) {
	sys, _ := newSys(nil, 1, nil)
	o := core.NewCASObject(sys, "c")
	c := sys.Proc(1).Ctx()
	tests := []struct {
		name string
		f    func()
	}{
		{"zero new", func() { o.CAS(c, 0, 0) }},
		{"oversized new", func() { o.CAS(c, 0, core.MaxCASValue+1) }},
		{"old equals new", func() { o.CAS(c, 5, 5) }},
		{"strict zero new", func() { o.StrictCAS(c, 0, 0) }},
		{"strict old equals new", func() { o.StrictCAS(c, 7, 7) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tt.f()
		})
	}
}
