package forensics

import (
	"strings"
	"testing"

	"nrl/internal/flightrec"
)

func TestReconstructInFlight(t *testing.T) {
	r := flightrec.NewRecorder(flightrec.Options{Slots: 64, Deep: true})
	// p1 completes an op; p2 is killed mid-op at depth 2.
	r.Record(flightrec.Rec{Kind: flightrec.KindBegin, P: 1, Depth: 1, Obj: "ctr", Op: "Inc", Val: 1})
	r.Record(flightrec.Rec{Kind: flightrec.KindEnd, P: 1, Depth: 1, Obj: "ctr", Op: "Inc", Val: 2})
	r.Record(flightrec.Rec{Kind: flightrec.KindBegin, P: 2, Depth: 1, Obj: "ctr", Op: "Inc", Val: 3})
	r.Record(flightrec.Rec{Kind: flightrec.KindBegin, P: 2, Depth: 2, Obj: "ctr.R", Op: "Write", Val: 4})
	r.Record(flightrec.Rec{Kind: flightrec.KindCheckpoint, P: 2, Depth: 2, Obj: "ctr.R", Op: "Write", LI: 3})

	rep := Reconstruct(r.Snapshot(), 0)
	if rep.Partial {
		t.Error("complete ring reported partial")
	}
	p1 := rep.Procs[1]
	if p1 == nil || len(p1.InFlight) != 0 || p1.Begun != 1 || p1.Ended != 1 {
		t.Fatalf("p1 = %+v", p1)
	}
	p2 := rep.Procs[2]
	if p2 == nil || len(p2.InFlight) != 2 {
		t.Fatalf("p2 in-flight = %+v", p2)
	}
	if p2.InFlight[0].Obj != "ctr" || p2.InFlight[0].Depth != 1 {
		t.Errorf("outer frame = %+v", p2.InFlight[0])
	}
	inner := p2.InFlight[1]
	if inner.Obj != "ctr.R" || inner.Op != "Write" || inner.Depth != 2 || inner.LI != 3 {
		t.Errorf("inner frame = %+v", inner)
	}
	if rep.InFlightTotal() != 2 {
		t.Errorf("InFlightTotal = %d", rep.InFlightTotal())
	}
}

func TestReconstructCrashRecovery(t *testing.T) {
	r := flightrec.NewRecorder(flightrec.Options{Slots: 64})
	r.Record(flightrec.Rec{Kind: flightrec.KindBegin, P: 1, Depth: 1, Obj: "log", Op: "Append", Val: 5})
	r.Record(flightrec.Rec{Kind: flightrec.KindCrash, P: 1, Depth: 1, Obj: "log", Op: "Append", LI: 2})
	r.Record(flightrec.Rec{Kind: flightrec.KindRecoverEnter, P: 1, Depth: 1, Obj: "log", Op: "Append", LI: 2, Attempt: 1})

	rep := Reconstruct(r.Snapshot(), 0)
	pr := rep.Procs[1]
	if pr.Crashes != 1 || pr.RecoverEnters != 1 {
		t.Fatalf("pr = %+v", pr)
	}
	if len(pr.InFlight) != 1 {
		t.Fatalf("in-flight = %+v", pr.InFlight)
	}
	fr := pr.InFlight[0]
	if !fr.Recovering || fr.LI != 2 || fr.Attempt != 1 {
		t.Errorf("frame = %+v", fr)
	}

	// Recovery completes: the frame closes.
	r.Record(flightrec.Rec{Kind: flightrec.KindRecoverExit, P: 1, Depth: 1, Obj: "log", Op: "Append", Val: 9})
	rep = Reconstruct(r.Snapshot(), 0)
	if n := len(rep.Procs[1].InFlight); n != 0 {
		t.Fatalf("after recover-exit, %d frames in flight", n)
	}
	if rep.Procs[1].RecoverExits != 1 {
		t.Errorf("RecoverExits = %d", rep.Procs[1].RecoverExits)
	}
}

// TestReconstructShallowNestedCrash: a shallow ring, the recorder's
// default, records a nested op's crash and recovery at depth 2 but not
// its begin or end. The nested recover-exit closes only the nested
// frame; the top-level op stays in flight, a complete report, until
// its own recovery exits. A ring cut between the two (a kill in the
// recovery cascade) must still show it.
func TestReconstructShallowNestedCrash(t *testing.T) {
	r := flightrec.NewRecorder(flightrec.Options{Slots: 64})
	r.Record(flightrec.Rec{Kind: flightrec.KindBegin, P: 1, Depth: 1, Obj: "ctr", Op: "Inc", Val: 7})
	r.Record(flightrec.Rec{Kind: flightrec.KindBegin, P: 1, Depth: 2, Obj: "ctr.R", Op: "Write"}) // dropped
	r.Record(flightrec.Rec{Kind: flightrec.KindCrash, P: 1, Depth: 2, Obj: "ctr.R", Op: "Write", LI: 1})

	rep := Reconstruct(r.Snapshot(), 0)
	fl := rep.Procs[1].InFlight
	if len(fl) != 2 || fl[0].Depth != 1 || fl[0].BeginSeq == 0 || fl[0].Crashed ||
		fl[1].Obj != "ctr.R" || fl[1].Depth != 2 || fl[1].BeginSeq != 0 || !fl[1].Crashed || fl[1].LI != 1 {
		t.Fatalf("after the nested crash, in flight = %+v", fl)
	}
	var sb strings.Builder
	rep.Format(&sb)
	if out := sb.String(); !strings.Contains(out, "depth 2: ctr.R/Write crashed (LI=1 attempt=0 arg=0, nested begin not recorded)") ||
		strings.Contains(out, "lost to wrap") {
		t.Errorf("nested frame mislabelled:\n%s", out)
	}

	r.Record(flightrec.Rec{Kind: flightrec.KindRecoverEnter, P: 1, Depth: 2, Obj: "ctr.R", Op: "Write", LI: 1, Attempt: 1})
	r.Record(flightrec.Rec{Kind: flightrec.KindRecoverExit, P: 1, Depth: 2, Obj: "ctr.R", Op: "Write", Val: 3})
	rep = Reconstruct(r.Snapshot(), 0)
	pr := rep.Procs[1]
	if len(pr.InFlight) != 1 || pr.InFlight[0].Obj != "ctr" || pr.InFlight[0].Depth != 1 || pr.InFlight[0].Arg != 7 {
		t.Fatalf("after the nested recover-exit, in flight = %+v, want the top-level ctr/Inc", pr.InFlight)
	}
	if rep.Partial || pr.OrphanEnds != 0 {
		t.Errorf("partial = %v, orphan ends = %d, want a complete report", rep.Partial, pr.OrphanEnds)
	}

	r.Record(flightrec.Rec{Kind: flightrec.KindRecoverEnter, P: 1, Depth: 1, Obj: "ctr", Op: "Inc", Attempt: 1})
	r.Record(flightrec.Rec{Kind: flightrec.KindRecoverExit, P: 1, Depth: 1, Obj: "ctr", Op: "Inc", Val: 1})
	rep = Reconstruct(r.Snapshot(), 0)
	if pr := rep.Procs[1]; len(pr.InFlight) != 0 || pr.OrphanEnds != 0 || rep.Partial {
		t.Fatalf("after the cascade, in flight = %+v, orphan ends = %d, partial = %v", pr.InFlight, pr.OrphanEnds, rep.Partial)
	}
}

func TestReconstructWrapAndOrphans(t *testing.T) {
	r := flightrec.NewRecorder(flightrec.Options{Slots: 8})
	r.Record(flightrec.Rec{Kind: flightrec.KindBegin, P: 1, Depth: 1, Obj: "ctr", Op: "Inc"})
	for i := 0; i < 10; i++ { // wrap: the begin is overwritten
		r.Record(flightrec.Rec{Kind: flightrec.KindFence, P: 1, Val: uint64(i)})
	}
	r.Record(flightrec.Rec{Kind: flightrec.KindEnd, P: 1, Depth: 1, Obj: "ctr", Op: "Inc"})

	rep := Reconstruct(r.Snapshot(), 0)
	if !rep.Wrapped || !rep.Partial {
		t.Fatalf("wrapped ring not flagged: %+v", rep)
	}
	if rep.Procs[1].OrphanEnds != 1 {
		t.Errorf("OrphanEnds = %d, want 1", rep.Procs[1].OrphanEnds)
	}
}

func TestReconstructHarnessCounters(t *testing.T) {
	r := flightrec.NewRecorder(flightrec.Options{Slots: 128, Deep: true})
	for v := uint64(1); v <= 5; v++ {
		r.Record(flightrec.Rec{Kind: flightrec.KindBegin, P: 1, Depth: 1, Obj: "log", Op: "Append", Val: v})
		r.RecordCommit(v, 3)
		r.RecordFence(1, 3)
		r.Record(flightrec.Rec{Kind: flightrec.KindEnd, P: 1, Depth: 1, Obj: "log", Op: "Append", Val: v})
	}
	// A sixth append begins but never completes.
	r.Record(flightrec.Rec{Kind: flightrec.KindBegin, P: 1, Depth: 1, Obj: "log", Op: "Append", Val: 6})

	rep := Reconstruct(r.Snapshot(), 0)
	pr := rep.Procs[1]
	if pr.MaxBegunVal != 6 || pr.MaxEndedVal != 5 {
		t.Fatalf("begun/ended vals = %d/%d, want 6/5", pr.MaxBegunVal, pr.MaxEndedVal)
	}
	if rep.Commits != 5 || rep.CommitWords != 15 || rep.Fences != 5 {
		t.Errorf("commits=%d words=%d fences=%d", rep.Commits, rep.CommitWords, rep.Fences)
	}
	if pr.LastFenceSeq == 0 || pr.LastFenceSeq > pr.LastSeq {
		t.Errorf("fence seq %d vs last %d", pr.LastFenceSeq, pr.LastSeq)
	}
}

func TestFormat(t *testing.T) {
	r := flightrec.NewRecorder(flightrec.Options{Slots: 64})
	r.Record(flightrec.Rec{Kind: flightrec.KindBegin, P: 2, Depth: 1, Obj: "log", Op: "Append", Val: 4})
	r.Record(flightrec.Rec{Kind: flightrec.KindCrash, P: 2, Depth: 1, Obj: "log", Op: "Append", LI: 3})

	rep := Reconstruct(r.Snapshot(), 1)
	var sb strings.Builder
	rep.Format(&sb)
	out := sb.String()
	for _, want := range []string{"PARTIAL", "1 torn", "p2:", "log/Append crashed", "LI=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
