package objects_test

import (
	"fmt"
	"strings"
	"testing"

	"nrl/internal/history"
	"nrl/internal/linearize"
	"nrl/internal/objects"
	"nrl/internal/proc"
	"nrl/internal/spec"
)

// models wires sequential specifications for the composite objects used
// in these tests, including the recoverable base objects nested inside
// them.
func models() linearize.ModelFor {
	return func(obj string) spec.Model {
		switch {
		case strings.Contains(obj, ".R["):
			return spec.Register{}
		case strings.HasSuffix(obj, ".cas"), strings.HasSuffix(obj, ".top"),
			strings.HasSuffix(obj, ".head"), strings.HasSuffix(obj, ".tail"):
			return spec.CAS{}
		case strings.HasSuffix(obj, ".alloc"):
			return spec.FAA{}
		case strings.HasPrefix(obj, "ctr"):
			return spec.Counter{}
		case obj == "q":
			return spec.Queue{}
		case strings.HasPrefix(obj, "faa"):
			return spec.FAA{}
		case strings.HasPrefix(obj, "max"):
			return spec.MaxRegister{}
		case strings.HasPrefix(obj, "stk"):
			return spec.Stack{}
		}
		return nil
	}
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

func mustNRL(t *testing.T, h history.History) {
	t.Helper()
	if err := linearize.CheckNRL(models(), h); err != nil {
		t.Fatalf("NRL violated: %v\nhistory:\n%s", err, h)
	}
}

func TestCounterBasic(t *testing.T) {
	sys, rec := newSys(nil, 2, nil)
	ctr := objects.NewCounter(sys, "ctr")
	c1 := sys.Proc(1).Ctx()
	c2 := sys.Proc(2).Ctx()
	ctr.Inc(c1)
	ctr.Inc(c2)
	ctr.Inc(c1)
	if got := ctr.Read(c2); got != 3 {
		t.Errorf("Read = %d, want 3", got)
	}
	if got := ctr.PersistedResponse(sys.Proc(2).Ctx()); got != 3 {
		t.Errorf("PersistedResponse = %d, want 3", got)
	}
	if ctr.Name() != "ctr" {
		t.Errorf("Name = %q", ctr.Name())
	}
	if got := len(ctr.RegisterNames()); got != 2 {
		t.Errorf("RegisterNames count = %d, want 2", got)
	}
	mustNRL(t, rec.History())
}

// TestCounterIncExactlyOnce is the heart of Algorithm 4: no matter where
// INC (or its nested register operations) crashes, the increment happens
// exactly once.
func TestCounterIncExactlyOnce(t *testing.T) {
	type target struct {
		obj  string
		op   string
		line int
	}
	var targets []target
	for _, l := range []int{2, 3, 4, 5, 7} {
		targets = append(targets, target{"ctr", "INC", l})
	}
	// Crash inside the nested recoverable register operations too.
	for _, l := range []int{8, 9} {
		targets = append(targets, target{"ctr.R[1]", "READ", l})
	}
	for _, l := range []int{2, 3, 4, 5, 6} {
		targets = append(targets, target{"ctr.R[1]", "WRITE", l})
	}
	for _, tg := range targets {
		t.Run(fmt.Sprintf("%s.%s@%d", tg.obj, tg.op, tg.line), func(t *testing.T) {
			target := &proc.AtLine{Obj: tg.obj, Op: tg.op, Line: tg.line}
			var inj proc.Injector = target
			if tg.op == "INC" && tg.line == 7 {
				// The recovery line is only reachable after a body crash.
				inj = proc.Multi{&proc.AtLine{Obj: "ctr", Op: "INC", Line: 3}, target}
			}
			sys, rec := newSys(inj, 1, nil)
			ctr := objects.NewCounter(sys, "ctr")
			c := sys.Proc(1).Ctx()
			const incs = 5
			for i := 0; i < incs; i++ {
				ctr.Inc(c)
			}
			if got := ctr.Read(c); got != incs {
				t.Errorf("Read = %d, want %d (increment lost or duplicated)", got, incs)
			}
			if !target.Fired() {
				t.Error("injector did not fire")
			}
			mustNRL(t, rec.History())
		})
	}
}

// TestCounterIncCrashAfterNestedWrite is the scenario the paper walks
// through: the crash occurs inside the nested WRITE, WRITE.RECOVER
// completes it, and INC.RECOVER (seeing LI = 4) must NOT re-execute.
func TestCounterIncCrashAfterNestedWrite(t *testing.T) {
	inj := &proc.AtLine{Obj: "ctr.R[1]", Op: "WRITE", Line: 5}
	sys, rec := newSys(inj, 1, nil)
	ctr := objects.NewCounter(sys, "ctr")
	c := sys.Proc(1).Ctx()
	ctr.Inc(c)
	if got := ctr.Read(c); got != 1 {
		t.Errorf("Read = %d, want 1", got)
	}
	mustNRL(t, rec.History())
}

func TestCounterReadCrashEveryLine(t *testing.T) {
	for _, line := range []int{12, 14, 15, 16, 18} {
		t.Run(fmt.Sprintf("line%d", line), func(t *testing.T) {
			var inj proc.Injector
			if line == 18 {
				inj = proc.Multi{
					&proc.AtLine{Obj: "ctr", Op: "READ", Line: 15},
					&proc.AtLine{Obj: "ctr", Op: "READ", Line: 18},
				}
			} else {
				inj = &proc.AtLine{Obj: "ctr", Op: "READ", Line: line}
			}
			sys, rec := newSys(inj, 2, nil)
			ctr := objects.NewCounter(sys, "ctr")
			c1 := sys.Proc(1).Ctx()
			ctr.Inc(c1)
			ctr.Inc(sys.Proc(2).Ctx())
			if got := ctr.Read(c1); got != 2 {
				t.Errorf("Read = %d, want 2", got)
			}
			if got := ctr.PersistedResponse(sys.Proc(1).Ctx()); got != 2 {
				t.Errorf("PersistedResponse = %d, want 2 (READ is strict)", got)
			}
			mustNRL(t, rec.History())
		})
	}
}

func TestCounterReadCrashInsideNestedRead(t *testing.T) {
	// Crash during the summation loop's nested register READ: the
	// counter's recovery restarts the whole collect.
	inj := &proc.AtLine{Obj: "ctr.R[2]", Op: "READ", Line: 9}
	sys, rec := newSys(inj, 3, nil)
	ctr := objects.NewCounter(sys, "ctr")
	c := sys.Proc(1).Ctx()
	for p := 1; p <= 3; p++ {
		ctr.Inc(sys.Proc(p).Ctx())
	}
	if got := ctr.Read(c); got != 3 {
		t.Errorf("Read = %d, want 3", got)
	}
	if !inj.Fired() {
		t.Error("injector did not fire")
	}
	mustNRL(t, rec.History())
}

func TestCounterStressControlled(t *testing.T) {
	const (
		seeds = 20
		nProc = 3
		opsPP = 5
	)
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inj := &proc.Random{Rate: 0.02, Seed: seed, MaxCrashes: 6}
			sys, rec := newSys(inj, nProc, proc.NewControlled(proc.RandomPicker(seed)))
			ctr := objects.NewCounter(sys, "ctr")
			bodies := make(map[int]func(*proc.Ctx))
			for p := 1; p <= nProc; p++ {
				bodies[p] = func(c *proc.Ctx) {
					for i := 0; i < opsPP; i++ {
						ctr.Inc(c)
						if i%2 == 1 {
							ctr.Read(c)
						}
					}
				}
			}
			sys.Run(bodies)
			if got := ctr.Read(sys.Proc(1).Ctx()); got != nProc*opsPP {
				t.Errorf("final Read = %d, want %d (exactly-once violated)", got, nProc*opsPP)
			}
			mustNRL(t, rec.History())
		})
	}
}

func TestCounterStressFree(t *testing.T) {
	inj := &proc.Random{Rate: 0.005, Seed: 7, MaxCrashes: 25}
	const (
		nProc = 4
		opsPP = 40
	)
	sys, rec := newSys(inj, nProc, nil)
	ctr := objects.NewCounter(sys, "ctr")
	for p := 1; p <= nProc; p++ {
		sys.Go(p, func(c *proc.Ctx) {
			for i := 0; i < opsPP; i++ {
				ctr.Inc(c)
			}
		})
	}
	sys.Wait()
	if got := ctr.Read(sys.Proc(1).Ctx()); got != nProc*opsPP {
		t.Errorf("final Read = %d, want %d", got, nProc*opsPP)
	}
	mustNRL(t, rec.History())
}

// TestCounterFullSystemCrash approximates a whole-system power failure in
// the individual-crash model: every process crashes at its next step
// after a trigger point, then all recover and complete. The counter's
// value must still be exact and the history NRL.
func TestCounterFullSystemCrash(t *testing.T) {
	const nProc = 4
	var inj proc.Multi
	for p := 1; p <= nProc; p++ {
		inj = append(inj, &proc.AtStep{Proc: p, Step: 25})
	}
	sys, rec := newSys(inj, nProc, nil)
	ctr := objects.NewCounter(sys, "ctr")
	for p := 1; p <= nProc; p++ {
		sys.Go(p, func(c *proc.Ctx) {
			for i := 0; i < 10; i++ {
				ctr.Inc(c)
			}
		})
	}
	sys.Wait()
	if got := ctr.Read(sys.Proc(1).Ctx()); got != nProc*10 {
		t.Errorf("counter = %d, want %d", got, nProc*10)
	}
	crashed := 0
	for p := 1; p <= nProc; p++ {
		crashed += sys.Proc(p).Crashes()
	}
	if crashed != nProc {
		t.Errorf("crashed %d processes, want all %d", crashed, nProc)
	}
	mustNRL(t, rec.History())
}

// TestCompositeOpAccessors exercises the exported nesting handles of the
// composite objects by invoking them directly as operations.
func TestCompositeOpAccessors(t *testing.T) {
	sys, rec := newSys(nil, 1, nil)
	ctr := objects.NewCounter(sys, "ctr")
	f := objects.NewFAA(sys, "faa")
	m := objects.NewMaxRegister(sys, "max")
	st := objects.NewStack(sys, "stk", 16)
	q := objects.NewQueue(sys, "q", 16)
	c := sys.Proc(1).Ctx()

	c.Invoke(ctr.IncOp())
	if got := c.Invoke(ctr.ReadOp()); got != 1 {
		t.Errorf("ctr.ReadOp = %d, want 1", got)
	}
	if got := c.Invoke(f.AddStrictOp(), 4); got != 0 {
		t.Errorf("faa.AddStrictOp = %d, want 0", got)
	}
	if got := c.Invoke(f.ReadOp()); got != 4 {
		t.Errorf("faa.ReadOp = %d, want 4", got)
	}
	c.Invoke(m.WriteMaxOp(), 9)
	if got := c.Invoke(m.ReadMaxOp()); got != 9 {
		t.Errorf("max.ReadMaxOp = %d, want 9", got)
	}
	c.Invoke(st.PushOp(), 5)
	if got := c.Invoke(st.PopOp()); got != 5 {
		t.Errorf("stk.PopOp = %d, want 5", got)
	}
	c.Invoke(q.EnqueueOp(), 6)
	if got := c.Invoke(q.DequeueOp()); got != 6 {
		t.Errorf("q.DequeueOp = %d, want 6", got)
	}
	mustNRL(t, rec.History())
}

// TestCounterExactlyOnceAcrossCrashRates is E4's correctness side:
// under random crashes at every rate of the sweep, each INC takes
// effect exactly once, so the final READ equals the INCs issued.
func TestCounterExactlyOnceAcrossCrashRates(t *testing.T) {
	const incs = 10_000
	for _, rate := range []float64{1e-4, 1e-3, 1e-2} {
		inj := &proc.Random{Rate: rate, Seed: 42}
		sys := proc.NewSystem(proc.Config{Procs: 1, Injector: inj})
		ctr := objects.NewCounter(sys, "ctr")
		c := sys.Proc(1).Ctx()
		for i := 0; i < incs; i++ {
			ctr.Inc(c)
		}
		if got := ctr.Read(c); got != incs {
			t.Errorf("rate %g: counter = %d after %d INCs", rate, got, incs)
		}
		if inj.Crashes() == 0 {
			t.Errorf("rate %g: no crash injected; the sweep point tests nothing", rate)
		}
	}
}
