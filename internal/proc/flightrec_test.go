package proc

import (
	"testing"

	"nrl/internal/flightrec"
	"nrl/internal/flightrec/forensics"
	"nrl/internal/nvm"
)

// TestFlightRecLifecycle: a crashing nested run leaves a black box whose
// reconstruction tells the same story the run actually had.
func TestFlightRecLifecycle(t *testing.T) {
	rec := flightrec.NewRecorder(flightrec.Options{Slots: 256, Deep: true})
	crashed := false
	sys := NewSystem(Config{
		Procs:     1,
		Mem:       nvm.New(nvm.WithMode(nvm.Buffered)),
		FlightRec: rec,
		Injector: Func(func(pt CrashPoint) bool {
			// One crash, at the nested child's write line.
			if !crashed && pt.Depth == 2 && pt.Line == 2 && !pt.Recovery {
				crashed = true
				return true
			}
			return false
		}),
	})
	child := &childOp{a: sys.Mem().Alloc("A", 0)}
	parent := &parentOp{child: child, r: sys.Mem().Alloc("R", 0)}
	if got := sys.Proc(1).Ctx().Invoke(parent, 7); got != 107 {
		t.Fatalf("Invoke = %d, want 107", got)
	}
	// Persist the result: the flush+fence must land a fence marker in
	// the ring (the toy ops themselves never fence).
	sys.Mem().Persist(parent.r)

	rep := forensics.Reconstruct(rec.Snapshot(), 0)
	pr := rep.Procs[1]
	if pr == nil {
		t.Fatal("no records for p1")
	}
	// Parent begin + child begin, one crash at depth 2, then recovery
	// runs innermost-first: child recover-enter/exit, parent ditto.
	if pr.Begun != 2 || pr.Crashes != 1 || pr.RecoverEnters != 2 || pr.RecoverExits != 2 {
		t.Fatalf("counters = %+v", pr)
	}
	if len(pr.InFlight) != 0 {
		t.Fatalf("completed run left %d frames in flight: %+v", len(pr.InFlight), pr.InFlight)
	}
	if rep.Fences == 0 {
		t.Error("no fence markers recorded (the ops' writes persist)")
	}

	// The same run reconstructed as-if killed mid-child: truncate the
	// record stream at the crash and the child op must show in flight.
	var upToCrash []flightrec.Record
	for _, r := range rec.Snapshot() {
		upToCrash = append(upToCrash, r)
		if r.Kind == flightrec.KindCrash {
			break
		}
	}
	mid := forensics.Reconstruct(upToCrash, 0)
	fl := mid.Procs[1].InFlight
	if len(fl) != 2 {
		t.Fatalf("mid-crash in-flight = %+v", fl)
	}
	if fl[0].Obj != "parent" || fl[1].Obj != "child" || !fl[1].Crashed {
		t.Errorf("mid-crash frames = %+v", fl)
	}
	if fl[1].LI != 1 {
		// The crash hit before line 2 began, so LI_p must still say 1.
		t.Errorf("crashed frame LI = %d, want 1", fl[1].LI)
	}
}

// TestFlightRecShallowDefault: without deep mode, nested ops and
// checkpoints stay out of the ring, but top-level lifecycle remains.
func TestFlightRecShallowDefault(t *testing.T) {
	rec := flightrec.NewRecorder(flightrec.Options{Slots: 256})
	sys := NewSystem(Config{Procs: 1, FlightRec: rec})
	child := &childOp{a: sys.Mem().Alloc("A", 0)}
	parent := &parentOp{child: child, r: sys.Mem().Alloc("R", 0)}
	sys.Proc(1).Ctx().Invoke(parent, 1)

	for _, r := range rec.Snapshot() {
		if r.Kind == flightrec.KindCheckpoint {
			t.Fatal("checkpoint recorded in shallow mode")
		}
		if (r.Kind == flightrec.KindBegin || r.Kind == flightrec.KindEnd) && r.Depth > 1 {
			t.Fatalf("nested %v recorded in shallow mode: %+v", r.Kind, r)
		}
	}
	rep := forensics.Reconstruct(rec.Snapshot(), 0)
	if pr := rep.Procs[1]; pr.Begun != 1 || pr.Ended != 1 {
		t.Fatalf("shallow counters = %+v", pr)
	}
}

// TestFlightRecShallowKillInCascade: the lifecycle run above on the
// default shallow recorder, whose ring holds the nested child's crash
// and recovery but not its begin. Cut at the child's recover-exit — a
// kill between the child's recovery and its parent's — the parent must
// still show in flight, in a complete report.
func TestFlightRecShallowKillInCascade(t *testing.T) {
	rec := flightrec.NewRecorder(flightrec.Options{Slots: 256})
	crashed := false
	sys := NewSystem(Config{
		Procs:     1,
		FlightRec: rec,
		Injector: Func(func(pt CrashPoint) bool {
			if !crashed && pt.Depth == 2 && pt.Line == 2 && !pt.Recovery {
				crashed = true
				return true
			}
			return false
		}),
	})
	child := &childOp{a: sys.Mem().Alloc("A", 0)}
	parent := &parentOp{child: child, r: sys.Mem().Alloc("R", 0)}
	sys.Proc(1).Ctx().Invoke(parent, 7)

	var cut []flightrec.Record
	for _, r := range rec.Snapshot() {
		cut = append(cut, r)
		if r.Kind == flightrec.KindRecoverExit {
			break
		}
	}
	rep := forensics.Reconstruct(cut, 0)
	fl := rep.Procs[1].InFlight
	if len(fl) != 1 || fl[0].Obj != "parent" || fl[0].Depth != 1 || fl[0].BeginSeq == 0 {
		t.Fatalf("killed in the cascade: in flight = %+v, want the parent", fl)
	}
	if rep.Partial {
		t.Errorf("complete ring reported partial: %+v", rep.Procs[1])
	}
	if full := forensics.Reconstruct(rec.Snapshot(), 0); full.InFlightTotal() != 0 || full.Partial {
		t.Errorf("completed run: %d in flight, partial %v", full.InFlightTotal(), full.Partial)
	}
}
