package bench

import (
	"fmt"
	"testing"

	"nrl/internal/objects"
	"nrl/internal/proc"
)

// TestExperimentsMemOpsExact pins the NVRAM primitives per op of the
// crash-free experiment rows. They are counts, not timings, so they
// repeat exactly: the E9/E10 composition costs decompose into their
// nested operations (INC = nested READ 1 + WRITE 4), the universal rows
// replay each log length 0..uniLog-1 exactly once per round, neither
// persistence mode nor instrumentation changes an op's primitives
// (E12, E13), and E11's rows are a READ and a CAS per op whether or not
// the CAS wins.
func TestExperimentsMemOpsExact(t *testing.T) {
	want := map[string]float64{
		"Register/Read/baseline":            1,
		"Register/Read/recoverable":         1,
		"Register/Read/strict":              2,
		"Register/Write/baseline":           1,
		"Register/Write/recoverable":        4,
		"CAS/CAS/baseline":                  1,
		"CAS/CAS/recoverable":               3,
		"CAS/CAS/strict":                    6,
		"TAS/TestAndSet/baseline":           1,
		"TAS/TestAndSet/recoverable":        8,
		"CAS/RetryLoop/baseline/procs=1":    2,
		"CAS/RetryLoop/recoverable/procs=1": 4,
		"Counter/Inc/baseline/procs=1":      2,
		"Counter/Inc/recoverable/procs=1":   5,
		"FAA/Add/baseline":                  1,
		"FAA/Add/recoverable":               10,
		"MaxRegister/WriteMax/recoverable":  8,
		"Stack/PushPop/recoverable":         36,
		"Queue/EnqDeq/recoverable":          36,
		"Lock/AcqRel/recoverable":           19,
		"Universal/Inc/lock-free":           645.496,
		"Universal/Inc/wait-free":           399.5,

		"Counter/Inc/recoverable/procs=1/flightrec=on":               5,
		"Counter/Inc/recoverable/procs=1/flightrec=deep":             5,
		"Counter/Inc/recoverable/procs=1/mode=Buffered":              5,
		"Counter/Inc/recoverable/procs=1/mode=Buffered/flightrec=on": 5,
		"Counter/Inc/recoverable/procs=8/mode=Buffered":              5,
		"Stack/PushPop/recoverable/mode=Buffered":                    36,
		"Queue/EnqDeq/recoverable/mode=Buffered":                     36,
		"BufferedCASPersist/procs=1":                                 2,
		"BufferedCASPersist/procs=2":                                 2,
		"BufferedCASPersist/procs=4":                                 2,
		"BufferedCASPersist/procs=8":                                 2,
		"BufferedContendedCAS/procs=1":                               2,
		"BufferedContendedCAS/procs=8":                               2,
		"Alloc":                                                      0,
	}
	for _, s := range ExperimentsSuite() {
		w, ok := want[s.Name]
		if !ok {
			continue
		}
		delete(want, s.Name)
		if got := Measure(s, Options{Ops: 300, Rounds: 2, Samples: -1}).MemOpsPerOp; got != w {
			t.Errorf("%s: mem_ops_per_op = %v, want %v", s.Name, got, w)
		}
	}
	for name := range want {
		t.Errorf("experiments suite lost row %q", name)
	}
}

// TestExperimentsPersistCountsExact pins the flushes, fences and
// fence-drained words per op of the rows on Buffered memory — the
// counts that fence folding (ROADMAP item 1) lowered. A PUSH+POP and an
// ENQ+DEQ each fence 8 times, one fence per publication, and drain 18
// words (they fenced 18 and 16 times, nearly one word a fence, before
// the fold); E11's persist rows flush and fence one word per op; the
// counter follows the paper's ADR model and fences nothing in either
// mode.
func TestExperimentsPersistCountsExact(t *testing.T) {
	type counts struct{ flushes, fences, words float64 }
	want := map[string]counts{
		"Stack/PushPop/recoverable/mode=Buffered":                    {18, 8, 18},
		"Queue/EnqDeq/recoverable/mode=Buffered":                     {18, 8, 18},
		"BufferedCASPersist/procs=1":                                 {1, 1, 1},
		"BufferedCASPersist/procs=2":                                 {1, 1, 1},
		"BufferedCASPersist/procs=4":                                 {1, 1, 1},
		"BufferedCASPersist/procs=8":                                 {1, 1, 1},
		"Counter/Inc/recoverable/procs=1/mode=Buffered":              {},
		"Counter/Inc/recoverable/procs=1/mode=Buffered/flightrec=on": {},
		"Counter/Inc/recoverable/procs=8/mode=Buffered":              {},
	}
	for _, s := range ExperimentsSuite() {
		w, ok := want[s.Name]
		if !ok {
			continue
		}
		delete(want, s.Name)
		r := Measure(s, Options{Ops: 400, Rounds: 2, Samples: -1})
		if got := (counts{r.FlushesPerOp, r.FencesPerOp, r.FenceWordsPerOp}); got != w {
			t.Errorf("%s: flushes/fences/fence words per op = %v, want %v", s.Name, got, w)
		}
	}
	for name := range want {
		t.Errorf("experiments suite lost row %q", name)
	}
}

// TestExperimentTablesResolve: every table reads rows the suite
// measures, every measured row is shown somewhere, and measuring one
// table's rows picks exactly those, still one interleaved group on one
// core.
func TestExperimentTablesResolve(t *testing.T) {
	measured := map[string]bool{}
	for _, s := range ExperimentsSuite() {
		measured[s.Name] = true
	}
	shown := map[string]bool{}
	exps := Experiments()
	for i, e := range exps {
		if want := fmt.Sprintf("E%d", i+1); e.ID != want {
			t.Errorf("experiment %d is %s, want %s", i, e.ID, want)
		}
		reads := map[string]bool{}
		for _, n := range e.names() {
			if !measured[n] {
				t.Errorf("%s reads %q, which the suite does not measure", e.ID, n)
			}
			reads[n], shown[n] = true, true
		}
		picked := ExperimentSpecs(exps[i : i+1])
		if len(picked) != len(reads) {
			t.Errorf("%s: ExperimentSpecs picked %d rows, the table reads %d", e.ID, len(picked), len(reads))
		}
		for _, s := range picked {
			if !reads[s.Name] || s.Group != "experiments" || s.MaxProcs != 1 {
				t.Errorf("%s: picked %q (group %q, MaxProcs %d)", e.ID, s.Name, s.Group, s.MaxProcs)
			}
		}
	}
	for name := range measured {
		if !shown[name] {
			t.Errorf("row %q is in no table", name)
		}
	}
}

// TestPoolRowStaysInRange: a pooled row moves to a fresh object every
// period ops, so a run many times longer than one object's range never
// drives an object past it. The FAA, max-register and lock rows rely on
// this under a long -benchtime: their period, rangeOps, is below the
// objects' bound.
func TestPoolRowStaysInRange(t *testing.T) {
	const limit = 50
	s := poolRow("pool", 0, limit, func(*proc.System) func(*proc.Ctx) {
		n := 0
		return func(*proc.Ctx) {
			if n++; n > limit {
				panic("bench test: object driven past its range")
			}
		}
	})
	Measure(s, Options{Ops: 20 * limit, Rounds: 3, Samples: 10})
	if rangeOps > objects.MaxFAAValue {
		t.Fatalf("rangeOps %d exceeds objects.MaxFAAValue %d", rangeOps, objects.MaxFAAValue)
	}
}
