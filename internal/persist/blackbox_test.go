package persist

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nrl/internal/flightrec"
	"nrl/internal/flightrec/forensics"
	"nrl/internal/nvm"
)

func commitWords(t *testing.T, f *File, addr nvm.Addr, vals ...uint64) {
	t.Helper()
	batch := make([]nvm.WordUpdate, len(vals))
	for i, v := range vals {
		batch[i] = nvm.WordUpdate{Addr: addr + nvm.Addr(i), Val: v}
	}
	if err := f.Commit(batch); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

// TestBlackBoxRidesCommits: records issued before a commit are in the
// region a reopened store recovers, and the revived ring keeps growing.
func TestBlackBoxRidesCommits(t *testing.T) {
	dir := t.TempDir()
	rec := flightrec.NewRecorder(flightrec.Options{Slots: 64})
	f, err := Open(dir, Options{BlackBox: rec})
	if err != nil {
		t.Fatal(err)
	}
	rec.Record(flightrec.Rec{Kind: flightrec.KindBegin, P: 1, Depth: 1, Obj: "log", Op: "Append", Val: 7})
	commitWords(t, f, 0, 7)
	rec.Record(flightrec.Rec{Kind: flightrec.KindEnd, P: 1, Depth: 1, Obj: "log", Op: "Append", Val: 7})
	// The end record was issued after the last commit: it is NOT yet
	// durable — exactly the flush-before-fence contract. Close without
	// another commit, as a SIGKILL would.
	f.Close()

	rec2 := flightrec.NewRecorder(flightrec.Options{Slots: 64})
	f2, err := Open(dir, Options{BlackBox: rec2})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	rep := f2.Report()
	if rep.BlackBoxTorn != 0 {
		t.Fatalf("torn = %d", rep.BlackBoxTorn)
	}
	recs := rec2.Recovered()
	var kinds []flightrec.Kind
	for _, r := range recs {
		if r.Kind != flightrec.KindNameObj && r.Kind != flightrec.KindNameOp {
			kinds = append(kinds, r.Kind)
		}
	}
	// begin + commit marker survive; the post-fence end does not.
	if len(kinds) != 2 || kinds[0] != flightrec.KindBegin || kinds[1] != flightrec.KindCommit {
		t.Fatalf("recovered kinds = %v, want [begin commit]", kinds)
	}
	fr := forensics.Reconstruct(recs, rep.BlackBoxTorn)
	if fr.InFlightTotal() != 1 {
		t.Fatalf("in-flight = %d, want 1 (the unfinished append)", fr.InFlightTotal())
	}
	if fr.Commits != 1 {
		t.Fatalf("commits = %d", fr.Commits)
	}
}

// TestBlackBoxTornRegion: a torn recorder region must degrade to a
// partial report and must never fail recovery of the data itself.
func TestBlackBoxTornRegion(t *testing.T) {
	dir := t.TempDir()
	rec := flightrec.NewRecorder(flightrec.Options{Slots: 64})
	f, err := Open(dir, Options{BlackBox: rec})
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 4; v++ {
		rec.Record(flightrec.Rec{Kind: flightrec.KindBegin, P: 1, Depth: 1, Obj: "log", Op: "Append", Val: v})
		commitWords(t, f, 0, v)
	}
	f.Close()

	// Tear two record slots and scribble over the region header.
	path := filepath.Join(dir, BlackBoxName)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[3] ^= 0xff        // header
	img[32+40] ^= 0xff    // first slot's payload
	img[32+32+40] ^= 0xa5 // second slot's payload
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	rec2 := flightrec.NewRecorder(flightrec.Options{Slots: 64})
	f2, err := Open(dir, Options{BlackBox: rec2})
	if err != nil {
		t.Fatalf("torn black box failed data recovery: %v", err)
	}
	defer f2.Close()
	rep := f2.Report()
	if rep.BlackBoxTorn != 3 { // header + 2 slots
		t.Errorf("BlackBoxTorn = %d, want 3", rep.BlackBoxTorn)
	}
	if rep.BlackBoxRecords == 0 {
		t.Error("no records survived a partially torn region")
	}
	// The data recovered untouched.
	if v, ok := f2.Recovered(0); !ok || v != 4 {
		t.Errorf("data word = %d,%v, want 4,true", v, ok)
	}
	fr := forensics.Reconstruct(rec2.Recovered(), rep.BlackBoxTorn)
	if !fr.Partial {
		t.Error("torn region did not yield a partial report")
	}
}

// TestBlackBoxAbsentRegion: a store that never had a recorder opens
// cleanly with one, and vice versa.
func TestBlackBoxAbsentRegion(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	commitWords(t, f, 0, 42)
	f.Close()

	rec := flightrec.NewRecorder(flightrec.Options{Slots: 64})
	f2, err := Open(dir, Options{BlackBox: rec})
	if err != nil {
		t.Fatal(err)
	}
	rep := f2.Report()
	if rep.BlackBoxRecords != 0 || rep.BlackBoxTorn != 0 {
		t.Errorf("fresh region reported %d/%d", rep.BlackBoxRecords, rep.BlackBoxTorn)
	}
	commitWords(t, f2, 1, 43)
	f2.Close()

	// Reopening without a recorder ignores the region file.
	f3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f3.Close()
	if v, ok := f3.Recovered(1); !ok || v != 43 {
		t.Errorf("data word = %d,%v, want 43,true", v, ok)
	}
}

// TestBlackBoxWriteFailureDegrades: exhausting the bbox.pwrite retry
// budget degrades the store exactly like any other commit I/O failure —
// the recorder is not allowed to silently fall behind the data.
func TestBlackBoxWriteFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	rec := flightrec.NewRecorder(flightrec.Options{Slots: 64})
	fail := false
	f, err := Open(dir, Options{
		BlackBox: rec,
		Retries:  1,
		Sleep:    func(time.Duration) {},
		Inject: func(op string) error {
			if fail && op == "bbox.pwrite" {
				return errors.New("injected bbox failure")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec.Record(flightrec.Rec{Kind: flightrec.KindBegin, P: 1, Depth: 1, Obj: "log", Op: "Append"})
	commitWords(t, f, 0, 1)
	fail = true
	rec.Record(flightrec.Rec{Kind: flightrec.KindBegin, P: 1, Depth: 1, Obj: "log", Op: "Append"})
	err = f.Commit([]nvm.WordUpdate{{Addr: 1, Val: 2}})
	var de *nvm.DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("commit after bbox failure = %v, want DegradedError", err)
	}
	if f.Err() == nil {
		t.Fatal("store not sticky-degraded")
	}
}
