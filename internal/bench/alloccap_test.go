package bench

import (
	"strings"
	"testing"
)

func capReport(allocs map[string]float64) *Report {
	r := &Report{Schema: Schema, Suite: "objects"}
	for name, a := range allocs {
		r.Results = append(r.Results, Result{Name: name, AllocsPerOp: a})
	}
	return r
}

func TestCheckAllocCapsVerdicts(t *testing.T) {
	caps := map[string]float64{
		"Counter/Inc/mode=ADR/procs=1":        0,
		"Stack/PushPop/mode=Buffered/procs=1": 0,
		"Queue/EnqDeq/mode=Buffered/procs=1":  0,
	}
	report := capReport(map[string]float64{
		"Counter/Inc/mode=ADR/procs=1":        1e-5, // harness MemStats noise: within epsilon
		"Stack/PushPop/mode=Buffered/procs=1": 2.0,  // a real allocation: breach
		"Uncapped/Extra/row":                  7.0,  // no cap registered: ignored
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
	if cr := byName["Counter/Inc/mode=ADR/procs=1"]; cr.Breach || cr.Missing {
		t.Errorf("noise-level row: %+v, want ok", cr)
	}
	if cr := byName["Stack/PushPop/mode=Buffered/procs=1"]; !cr.Breach || cr.Missing {
		t.Errorf("allocating row: %+v, want breach", cr)
	}
	if cr := byName["Queue/EnqDeq/mode=Buffered/procs=1"]; !cr.Missing || cr.Breach {
		t.Errorf("absent row: %+v, want missing", cr)
	}
}

func TestGateAllocCaps(t *testing.T) {
	clean := []CapResult{{Name: "a", Cap: 0, Got: 0}, {Name: "b", Cap: 0, Got: AllocCapEpsilon / 2}}
	if err := GateAllocCaps(clean); err != nil {
		t.Errorf("clean results gated: %v", err)
	}
	if err := GateAllocCaps([]CapResult{{Name: "a", Breach: true}}); err == nil {
		t.Error("breach passed the gate")
	} else if !strings.Contains(err.Error(), "1 breach(es)") {
		t.Errorf("breach error = %q, want it to count the breach", err)
	}
	if err := GateAllocCaps([]CapResult{{Name: "a", Missing: true}}); err == nil {
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

// TestAllocCapsCoverObjectsSuite keeps the registered cap set honest
// against the suite definition: every capped name must be a benchmark
// the objects suite actually produces, so a renamed benchmark cannot
// silently orphan its cap (the Missing verdict would catch it in CI,
// but this catches it at test time without running the suite).
func TestAllocCapsCoverObjectsSuite(t *testing.T) {
	if caps := AllocCaps("nvm"); caps != nil {
		t.Fatalf("nvm suite has caps %v, want none", caps)
	}
	caps := AllocCaps("objects")
	if len(caps) == 0 {
		t.Fatal("objects suite has no caps")
	}
	have := map[string]bool{}
	for _, b := range Suites()["objects"] {
		have[b.Name] = true
	}
	for name, cap := range caps {
		if cap != 0 {
			t.Errorf("cap for %s is %v, want 0 (the suite is zero-alloc everywhere)", name, cap)
		}
		if !have[name] {
			t.Errorf("cap registered for %q, which the objects suite does not produce", name)
		}
	}
	if _, ok := caps["Counter/Inc/mode=ADR/procs=1"]; !ok {
		t.Error("the headline Counter/Inc/mode=ADR/procs=1 row is not capped")
	}
}
