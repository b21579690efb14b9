package harness

import (
	"testing"

	"nrl/internal/history"
	"nrl/internal/linearize"
	"nrl/internal/proc"
)

// TestWorkloadRegistry runs every real workload crash-free under the
// controlled scheduler and NRL-checks the history, proving the registry's
// Build/Models wiring is consistent for every entry.
func TestWorkloadRegistry(t *testing.T) {
	for _, w := range RealWorkloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			procs := w.Procs(2)
			rec := history.NewRecorder()
			sys := proc.NewSystem(proc.Config{
				Procs:     procs,
				Recorder:  rec,
				Scheduler: proc.NewControlled(proc.RandomPicker(1)),
			})
			if err := sys.Run(w.Build(sys, procs, 2)); err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := linearize.CheckNRL(w.Models, rec.History()); err != nil {
				t.Fatalf("NRL: %v", err)
			}
		})
	}
}

// TestWorkloadBrokenFindable: the broken workload violates NRL under a
// crash at the known bad line, via the registry plumbing alone.
func TestWorkloadBrokenFindable(t *testing.T) {
	w, ok := WorkloadByName("broken")
	if !ok {
		t.Fatal("broken workload missing")
	}
	if w.Procs(4) != 1 {
		t.Errorf("broken workload Procs(4) = %d, want pinned 1", w.Procs(4))
	}
	rec := history.NewRecorder()
	sys := proc.NewSystem(proc.Config{
		Procs:     1,
		Recorder:  rec,
		Injector:  &proc.AtLine{Obj: "bctr", Op: "INC", Line: 5},
		Scheduler: proc.NewControlled(proc.RandomPicker(1)),
	})
	if err := sys.Run(w.Build(sys, 1, 1)); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := linearize.CheckNRL(w.Models, rec.History()); err == nil {
		t.Fatal("checker accepted the broken counter's double-count")
	}
}

// TestWorkloadNames: broken strawmen sort after real workloads and are
// excluded from RealWorkloads.
func TestWorkloadNames(t *testing.T) {
	names := WorkloadNames()
	if len(names) != len(workloads) {
		t.Fatalf("%d names for %d workloads", len(names), len(workloads))
	}
	real := RealWorkloads()
	for i, n := range names {
		if broken := i >= len(real); workloads[n].Broken != broken {
			t.Errorf("strawmen not last: %v", names)
			break
		}
	}
	for _, w := range real {
		if w.Broken {
			t.Errorf("RealWorkloads includes broken %q", w.Name)
		}
	}
}

// TestWorkloadCapacity: the arena-backed workloads size their objects
// from procs × ops, so a crash-free run allocating more than 4,096
// cells — the fixed size they once had — completes with no process
// failure. Stack and queue allocate a cell per iteration; the universal
// constructions log every operation, 1.5 per iteration.
func TestWorkloadCapacity(t *testing.T) {
	for _, c := range []struct {
		name string
		ops  int
	}{{"stack", 2049}, {"queue", 2049}, {"universal", 1366}, {"wf-universal", 1366}} {
		t.Run(c.name, func(t *testing.T) {
			w, _ := WorkloadByName(c.name)
			sys := proc.NewSystem(proc.Config{Procs: 2, RecoverPanics: true})
			if err := sys.Run(w.Build(sys, 2, c.ops)); err != nil {
				t.Fatalf("run: %v", err)
			}
			if f := sys.Failures(); len(f) != 0 {
				t.Fatalf("process failures: %v", f)
			}
		})
	}
}
