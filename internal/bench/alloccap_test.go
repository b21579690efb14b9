package bench

import (
	"strings"
	"testing"
)

func capReport(allocs map[string]float64) *Report {
	r := &Report{Schema: Schema, Suite: "test"}
	for name, a := range allocs {
		r.Results = append(r.Results, Result{Name: name, AllocsPerOp: a})
	}
	return r
}

func TestCheckAllocCapsVerdicts(t *testing.T) {
	caps := map[string]float64{
		"Counter/Inc/recoverable/procs=1":         0,
		"Stack/PushPop/recoverable/mode=Buffered": 0,
		"Queue/EnqDeq/recoverable/mode=Buffered":  0,
	}
	report := capReport(map[string]float64{
		"Counter/Inc/recoverable/procs=1":         1e-5, // harness MemStats noise: within epsilon
		"Stack/PushPop/recoverable/mode=Buffered": 2.0,  // a real allocation: breach
		"Uncapped/Extra/row":                      7.0,  // no cap registered: ignored
		// Queue row absent from the report entirely: Missing.
	})
	results := CheckAllocCaps(report, caps)
	if len(results) != len(caps) {
		t.Fatalf("got %d results, want %d", len(results), len(caps))
	}
	byName := map[string]CapResult{}
	for _, cr := range results {
		byName[cr.Name] = cr
	}
	if cr := byName["Counter/Inc/recoverable/procs=1"]; cr.Breach || cr.Missing {
		t.Errorf("noise-level row: %+v, want ok", cr)
	}
	if cr := byName["Stack/PushPop/recoverable/mode=Buffered"]; !cr.Breach || cr.Missing {
		t.Errorf("allocating row: %+v, want breach", cr)
	}
	if cr := byName["Queue/EnqDeq/recoverable/mode=Buffered"]; !cr.Missing || cr.Breach {
		t.Errorf("absent row: %+v, want missing", cr)
	}
}

func TestGateAllocCaps(t *testing.T) {
	gate := func(caps ...CapResult) error { return (&Comparison{Caps: caps}).Gate() }
	if err := gate(CapResult{Name: "a", Cap: 0, Got: 0}, CapResult{Name: "b", Cap: 0, Got: AllocCapEpsilon / 2}); err != nil {
		t.Errorf("clean results gated: %v", err)
	}
	if err := gate(CapResult{Name: "a", Breach: true}); err == nil {
		t.Error("breach passed the gate")
	} else if !strings.Contains(err.Error(), "1 breach(es)") {
		t.Errorf("breach error = %q, want it to count the breach", err)
	}
	if err := gate(CapResult{Name: "a", Missing: true}); err == nil {
		t.Error("missing capped benchmark passed the gate")
	}
}

// TestAllocCapsNamePersistRows: every persist cap names a row the suite
// produces, and every row is capped.
func TestAllocCapsNamePersistRows(t *testing.T) {
	caps := AllocCaps("persist")
	rows := Suites()["persist"]
	if len(caps) != len(rows) {
		t.Fatalf("%d persist caps for %d rows", len(caps), len(rows))
	}
	for _, b := range rows {
		if _, ok := caps[b.Name]; !ok {
			t.Errorf("persist row %q has no cap", b.Name)
		}
	}
}

// TestAllocCapsCoverExperimentsSuite keeps the registered cap set honest
// against the suite definition: every capped name must be a benchmark
// the experiments suite actually produces, so a renamed benchmark cannot
// silently orphan its cap (the Missing verdict would catch it in CI,
// but this catches it at test time without running the suite). The ten
// caps are the zero-alloc recoverable-op rows, every one at 0.
func TestAllocCapsCoverExperimentsSuite(t *testing.T) {
	caps := AllocCaps("experiments")
	if len(caps) != 10 {
		t.Fatalf("experiments suite has %d caps, want 10", len(caps))
	}
	have := map[string]bool{}
	for _, b := range Suites()["experiments"] {
		have[b.Name] = true
	}
	for name, cap := range caps {
		if cap != 0 {
			t.Errorf("cap for %s is %v, want 0 (the recoverable-op lifecycle allocates nothing)", name, cap)
		}
		if !have[name] {
			t.Errorf("cap registered for %q, which the experiments suite does not produce", name)
		}
	}
	if _, ok := caps["Counter/Inc/recoverable/procs=1"]; !ok {
		t.Error("the headline Counter/Inc/recoverable/procs=1 row is not capped")
	}
}
