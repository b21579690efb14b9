package objects_test

import (
	"fmt"
	"testing"

	"nrl/internal/objects"
	"nrl/internal/proc"
)

func TestFAABasic(t *testing.T) {
	sys, rec := newSys(nil, 2, nil)
	f := objects.NewFAA(sys, "faa")
	c1 := sys.Proc(1).Ctx()
	c2 := sys.Proc(2).Ctx()
	if got := f.Add(c1, 5); got != 0 {
		t.Errorf("first Add returned %d, want 0", got)
	}
	if got := f.Add(c2, 3); got != 5 {
		t.Errorf("second Add returned %d, want 5", got)
	}
	if got := f.Read(c1); got != 8 {
		t.Errorf("Read = %d, want 8", got)
	}
	if f.Name() != "faa" {
		t.Errorf("Name = %q", f.Name())
	}
	if f.CASName() != "faa.cas" {
		t.Errorf("CASName = %q", f.CASName())
	}
	mustNRL(t, rec.History())
}

func TestFAACrashEveryLine(t *testing.T) {
	for _, line := range []int{2, 3, 5, 6, 7, 10} {
		t.Run(fmt.Sprintf("line%d", line), func(t *testing.T) {
			var inj proc.Injector
			if line == 10 {
				inj = proc.Multi{
					&proc.AtLine{Obj: "faa", Op: "FAA", Line: 6},
					&proc.AtLine{Obj: "faa", Op: "FAA", Line: 10},
				}
			} else {
				inj = &proc.AtLine{Obj: "faa", Op: "FAA", Line: line}
			}
			sys, rec := newSys(inj, 1, nil)
			f := objects.NewFAA(sys, "faa")
			c := sys.Proc(1).Ctx()
			if got := f.Add(c, 4); got != 0 {
				t.Errorf("Add returned %d, want 0", got)
			}
			if got := f.Add(c, 4); got != 4 {
				t.Errorf("second Add returned %d, want 4", got)
			}
			if got := f.Read(c); got != 8 {
				t.Errorf("Read = %d, want 8 (add lost or duplicated)", got)
			}
			mustNRL(t, rec.History())
		})
	}
}

func TestFAACrashInsideNestedOps(t *testing.T) {
	// Crash inside the nested CAS-object operations FAA composes over.
	targets := []struct {
		op   string
		line int
	}{
		{"READ", 11},      // nested C.READ
		{"STRICTCAS", 41}, // nested strict CAS, before the primitive
		{"STRICTCAS", 47}, // nested strict CAS, after the primitive
		{"STRICTCAS", 49}, // nested strict CAS, response persisted
	}
	for _, tg := range targets {
		t.Run(fmt.Sprintf("%s@%d", tg.op, tg.line), func(t *testing.T) {
			inj := &proc.AtLine{Obj: "faa.cas", Op: tg.op, Line: tg.line}
			sys, rec := newSys(inj, 1, nil)
			f := objects.NewFAA(sys, "faa")
			c := sys.Proc(1).Ctx()
			f.Add(c, 2)
			f.Add(c, 2)
			if got := f.Read(c); got != 4 {
				t.Errorf("Read = %d, want 4", got)
			}
			if !inj.Fired() {
				t.Error("injector did not fire")
			}
			mustNRL(t, rec.History())
		})
	}
}

// TestFAAExactlyOnceUnderContention checks that, with crashes and
// contention, the final sum equals the total of all completed Adds and
// all returned previous-values are distinct (each Add linearized exactly
// once).
func TestFAAExactlyOnceUnderContention(t *testing.T) {
	const (
		seeds = 15
		nProc = 3
		opsPP = 4
	)
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inj := &proc.Random{Rate: 0.02, Seed: seed, MaxCrashes: 5}
			sys, rec := newSys(inj, nProc, proc.NewControlled(proc.RandomPicker(seed)))
			f := objects.NewFAA(sys, "faa")
			prevs := make([][]uint64, nProc+1)
			bodies := make(map[int]func(*proc.Ctx))
			for p := 1; p <= nProc; p++ {
				p := p
				bodies[p] = func(c *proc.Ctx) {
					for i := 0; i < opsPP; i++ {
						prevs[p] = append(prevs[p], f.Add(c, 1))
					}
				}
			}
			sys.Run(bodies)
			if got := f.Read(sys.Proc(1).Ctx()); got != nProc*opsPP {
				t.Errorf("final sum = %d, want %d", got, nProc*opsPP)
			}
			seen := make(map[uint64]bool)
			for p := 1; p <= nProc; p++ {
				for _, v := range prevs[p] {
					if seen[v] {
						t.Errorf("previous value %d returned twice", v)
					}
					seen[v] = true
				}
			}
			mustNRL(t, rec.History())
		})
	}
}

func TestFAAValidation(t *testing.T) {
	sys, _ := newSys(nil, 1, nil)
	f := objects.NewFAA(sys, "faa")
	c := sys.Proc(1).Ctx()
	for _, d := range []uint64{0, objects.MaxFAAValue + 1} {
		d := d
		t.Run(fmt.Sprint(d), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f.Add(c, d)
		})
	}
}

func TestStrictFAABasic(t *testing.T) {
	sys, rec := newSys(nil, 2, nil)
	f := objects.NewFAA(sys, "faa")
	c1 := sys.Proc(1).Ctx()
	if got := f.AddStrict(c1, 5); got != 0 {
		t.Errorf("AddStrict returned %d, want 0", got)
	}
	if resp, ok := f.PersistedResponse(sys.Proc(1).Ctx()); !ok || resp != 0 {
		t.Errorf("PersistedResponse = %d,%v, want 0,true", resp, ok)
	}
	if got := f.AddStrict(sys.Proc(2).Ctx(), 3); got != 5 {
		t.Errorf("second AddStrict returned %d, want 5", got)
	}
	if got := f.Read(c1); got != 8 {
		t.Errorf("Read = %d, want 8", got)
	}
	mustNRL(t, rec.History())
}

func TestStrictFAACrashEveryLine(t *testing.T) {
	for _, line := range []int{30, 31, 32, 33, 34, 35, 38, 39, 40, 42} {
		t.Run(fmt.Sprintf("line%d", line), func(t *testing.T) {
			var inj proc.Injector
			if line == 42 {
				inj = proc.Multi{
					&proc.AtLine{Obj: "faa", Op: "STRICTFAA", Line: 38},
					&proc.AtLine{Obj: "faa", Op: "STRICTFAA", Line: 42},
				}
			} else {
				inj = &proc.AtLine{Obj: "faa", Op: "STRICTFAA", Line: line}
			}
			sys, rec := newSys(inj, 1, nil)
			f := objects.NewFAA(sys, "faa")
			c := sys.Proc(1).Ctx()
			if got := f.AddStrict(c, 2); got != 0 {
				t.Errorf("AddStrict = %d, want 0", got)
			}
			if resp, ok := f.PersistedResponse(sys.Proc(1).Ctx()); !ok || resp != 0 {
				t.Errorf("PersistedResponse = %d,%v, want 0,true", resp, ok)
			}
			if got := f.AddStrict(c, 2); got != 2 {
				t.Errorf("second AddStrict = %d, want 2 (add lost or duplicated)", got)
			}
			if got := f.Read(c); got != 4 {
				t.Errorf("Read = %d, want 4", got)
			}
			mustNRL(t, rec.History())
		})
	}
}

// TestStrictFAAResponseSurvivesDoubleCrash: the response is recovered via
// the persisted attempt even when the crash clears the volatile delivery
// twice.
func TestStrictFAAResponseSurvivesDoubleCrash(t *testing.T) {
	inj := proc.Multi{
		&proc.AtLine{Obj: "faa", Op: "STRICTFAA", Line: 35}, // after CAS took effect
		&proc.AtLine{Obj: "faa", Op: "STRICTFAA", Line: 42}, // at recovery entry
	}
	sys, rec := newSys(inj, 1, nil)
	f := objects.NewFAA(sys, "faa")
	c := sys.Proc(1).Ctx()
	if got := f.AddStrict(c, 7); got != 0 {
		t.Errorf("AddStrict = %d, want 0", got)
	}
	if got := sys.Proc(1).Crashes(); got != 2 {
		t.Errorf("Crashes = %d, want 2", got)
	}
	if got := f.Read(c); got != 7 {
		t.Errorf("Read = %d, want 7", got)
	}
	mustNRL(t, rec.History())
}

func TestStrictFAAValidation(t *testing.T) {
	sys, _ := newSys(nil, 1, nil)
	f := objects.NewFAA(sys, "faa")
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero delta")
		}
	}()
	f.AddStrict(sys.Proc(1).Ctx(), 0)
}
