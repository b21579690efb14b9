package persist_test

import (
	"errors"
	"os"
	"strings"
	"testing"

	"nrl/internal/nvm"
	"nrl/internal/persist"
)

// tinySegOpts forces rotation every few records so segment-boundary
// behavior shows up in small tests.
func tinySegOpts() persist.Options {
	o := fastOpts()
	o.SegmentBytes = 256        // ~2 single-page records per segment
	o.CheckpointBytes = 1 << 20 // keep checkpoints out of the way
	return o
}

func TestSegmentRotationAndRecovery(t *testing.T) {
	dir := t.TempDir()
	f := open(t, dir, tinySegOpts())
	for i := 0; i < 12; i++ {
		commit(t, f, nvm.WordUpdate{Addr: nvm.Addr(i * 6), Val: uint64(1000 + i)})
	}
	if got := f.Seq(); got != 12 {
		t.Fatalf("Seq = %d, want 12", got)
	}
	f.Close()

	if segs := walSegs(t, dir); len(segs) < 3 {
		t.Fatalf("segments = %v, want rotation to have produced several", segs)
	}

	g := open(t, dir, tinySegOpts())
	defer g.Close()
	rep := g.Report()
	if rep.WALRecords != 12 || rep.WALSegments < 3 || rep.WALDiscarded != 0 {
		t.Fatalf("report = %+v, want 12 records across several clean segments", rep)
	}
	for i := 0; i < 12; i++ {
		if got, ok := g.Recovered(nvm.Addr(i * 6)); !ok || got != uint64(1000+i) {
			t.Fatalf("Recovered(%d) = %d,%v, want %d", i*6, got, ok, 1000+i)
		}
	}
}

// TestCrossSegmentTornTail: damage in an older segment must discard
// everything from the damage point on — including whole later segments
// — never replay records across a hole.
func TestCrossSegmentTornTail(t *testing.T) {
	dir := t.TempDir()
	f := open(t, dir, tinySegOpts())
	for i := 0; i < 12; i++ {
		commit(t, f, nvm.WordUpdate{Addr: 0, Val: uint64(i)})
	}
	f.Close()

	segs := walSegs(t, dir)
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %v", segs)
	}
	// Corrupt the last record in the middle segment.
	mid := segs[len(segs)/2]
	b, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	recs := recordStarts(b)
	b[recs[len(recs)-1]+20] ^= 0xff
	if err := os.WriteFile(mid, b, 0o644); err != nil {
		t.Fatal(err)
	}

	g := open(t, dir, tinySegOpts())
	defer g.Close()
	rep := g.Report()
	if rep.WALRecords >= 12 || rep.WALDiscarded == 0 {
		t.Fatalf("report = %+v, want records discarded from the damaged segment on", rep)
	}
	// The data pages carry the final value regardless; the chain's torn
	// suffix must not have rolled it back.
	if got, ok := g.Recovered(0); !ok || got != 11 {
		t.Fatalf("Recovered(0) = %d,%v, want 11", got, ok)
	}
}

func TestSetEpochSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	f := open(t, dir, fastOpts())
	commit(t, f, nvm.WordUpdate{Addr: 0, Val: 1})
	if err := f.SetEpoch(3); err != nil {
		t.Fatalf("SetEpoch: %v", err)
	}
	if err := f.SetEpoch(3); err == nil {
		t.Fatal("SetEpoch accepted a non-increasing epoch")
	}
	commit(t, f, nvm.WordUpdate{Addr: 0, Val: 2})
	f.Close()

	g := open(t, dir, fastOpts())
	defer g.Close()
	if got := g.Epoch(); got != 3 {
		t.Fatalf("Epoch after reopen = %d, want 3", got)
	}
	if got, ok := g.Recovered(0); !ok || got != 2 {
		t.Fatalf("Recovered(0) = %d,%v, want 2", got, ok)
	}
}

// shipToMirror wires a File's shipper hook straight into a Mirror, the
// minimal single-follower replication loop: each record is appended and
// fenced at once.
type shipToMirror struct {
	t *testing.T
	m *persist.Mirror
}

func (s *shipToMirror) Append(seq, epoch uint64, rec []byte) {
	if err := s.m.Append(seq, rec); err != nil {
		s.t.Errorf("mirror Append(%d): %v", seq, err)
	}
	if err := s.m.Fence(); err != nil {
		s.t.Errorf("mirror Fence(%d): %v", seq, err)
	}
}

func (s *shipToMirror) Checkpoint(uint64) {}

// TestMirrorPromotion is the replication core in miniature: records
// shipped to a follower directory, which is then promoted by nothing
// more than persist.Open — and carries the identical committed state.
func TestMirrorPromotion(t *testing.T) {
	leaderDir := t.TempDir()
	followerDir := t.TempDir()

	m, err := persist.OpenMirror(followerDir, tinySegOpts())
	if err != nil {
		t.Fatalf("OpenMirror: %v", err)
	}
	opts := tinySegOpts()
	opts.Shipper = &shipToMirror{t: t, m: m}
	f := open(t, leaderDir, opts)
	for i := 0; i < 9; i++ {
		commit(t, f, nvm.WordUpdate{Addr: nvm.Addr(i), Val: uint64(50 + i)})
	}
	f.Close()
	if got := m.Seq(); got != 9 {
		t.Fatalf("mirror Seq = %d, want 9", got)
	}
	m.Close()

	// Promote: the follower dir opens as a first-class store.
	p := open(t, followerDir, tinySegOpts())
	defer p.Close()
	if got := p.Seq(); got != 9 {
		t.Fatalf("promoted Seq = %d, want 9", got)
	}
	for i := 0; i < 9; i++ {
		if got, ok := p.Recovered(nvm.Addr(i)); !ok || got != uint64(50+i) {
			t.Fatalf("promoted Recovered(%d) = %d,%v, want %d", i, got, ok, 50+i)
		}
	}
}

func TestMirrorRejectsSequenceGap(t *testing.T) {
	dir := t.TempDir()
	m, err := persist.OpenMirror(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Append(5, []byte("not a record"))
	if !errors.Is(err, persist.ErrSeqGap) {
		t.Fatalf("Append with gap = %v, want ErrSeqGap", err)
	}
}

// TestRecordsSinceAndSnapshotCatchUp drives both catch-up paths: a
// lagging mirror healed by records, and one too far behind (the leader
// checkpointed the range away) healed by snapshot transfer.
func TestRecordsSinceAndSnapshotCatchUp(t *testing.T) {
	leaderDir := t.TempDir()
	f := open(t, leaderDir, tinySegOpts())
	for i := 0; i < 6; i++ {
		commit(t, f, nvm.WordUpdate{Addr: nvm.Addr(i), Val: uint64(i + 1)})
	}

	// Record catch-up from 0: the chain runs from genesis.
	recs, ok, err := f.RecordsSince(0)
	if err != nil || !ok || len(recs) != 6 {
		t.Fatalf("RecordsSince(0) = %d recs, ok=%v, err=%v; want 6,true", len(recs), ok, err)
	}
	lateDir := t.TempDir()
	m, err := persist.OpenMirror(lateDir, tinySegOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := m.Append(r.Seq, r.Rec); err != nil {
			t.Fatalf("Append(%d): %v", r.Seq, err)
		}
	}
	if err := m.Fence(); err != nil {
		t.Fatal(err)
	}
	m.Close()
	p := open(t, lateDir, tinySegOpts())
	if got, ok := p.Recovered(3); !ok || got != 4 {
		t.Fatalf("record-caught-up Recovered(3) = %d,%v, want 4", got, ok)
	}
	p.Close()

	// Snapshot catch-up: fold the log away, then a fresh mirror can no
	// longer be fed records from genesis.
	img, seq, err := f.Snapshot()
	if err != nil || seq != 6 {
		t.Fatalf("Snapshot = seq %d, err %v; want 6", seq, err)
	}
	if _, ok, _ := f.RecordsSince(0); ok {
		t.Fatal("RecordsSince(0) still ok after checkpoint folded the chain")
	}
	snapDir := t.TempDir()
	m2, err := persist.OpenMirror(snapDir, tinySegOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.InstallSnapshot(img, seq, f.Epoch()); err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}
	// Shipping continues after the snapshot.
	commit(t, f, nvm.WordUpdate{Addr: 0, Val: 99})
	recs, ok, err = f.RecordsSince(seq)
	if err != nil || !ok || len(recs) != 1 {
		t.Fatalf("RecordsSince(%d) = %d recs, ok=%v, err=%v; want 1,true", seq, len(recs), ok, err)
	}
	if err := m2.Append(recs[0].Seq, recs[0].Rec); err != nil {
		t.Fatalf("post-snapshot Append: %v", err)
	}
	if err := m2.Fence(); err != nil {
		t.Fatal(err)
	}
	m2.Close()
	f.Close()

	p2 := open(t, snapDir, tinySegOpts())
	defer p2.Close()
	if got := p2.Seq(); got != 7 {
		t.Fatalf("snapshot-caught-up Seq = %d, want 7", got)
	}
	if got, ok := p2.Recovered(0); !ok || got != 99 {
		t.Fatalf("snapshot-caught-up Recovered(0) = %d,%v, want 99", got, ok)
	}
	if got, ok := p2.Recovered(5); !ok || got != 6 {
		t.Fatalf("snapshot-caught-up Recovered(5) = %d,%v, want 6", got, ok)
	}
}

func TestScanDirReportsPrefixAndEpoch(t *testing.T) {
	dir := t.TempDir()
	f := open(t, dir, tinySegOpts())
	for i := 0; i < 5; i++ {
		commit(t, f, nvm.WordUpdate{Addr: 0, Val: uint64(i)})
	}
	if err := f.SetEpoch(2); err != nil {
		t.Fatal(err)
	}
	commit(t, f, nvm.WordUpdate{Addr: 0, Val: 5})
	f.Close()

	rep, err := persist.ScanDir(dir)
	if err != nil {
		t.Fatalf("ScanDir: %v", err)
	}
	if rep.Prefix != 6 || rep.Epoch != 2 || !rep.ManifestOK || !rep.HeaderOK {
		t.Fatalf("scan = %+v, want Prefix=6 Epoch=2 manifest+header OK", rep)
	}
	if rep.Records != 6 || len(rep.RecSums) != 6 {
		t.Fatalf("scan = %+v, want 6 chained records with sums", rep)
	}
	if rep.RecSums[0].Seq != 1 || rep.RecSums[5].Seq != 6 {
		t.Fatalf("RecSums = %+v, want seqs 1..6", rep.RecSums)
	}

	// Scans are read-only: a second scan and a real open agree.
	rep2, err := persist.ScanDir(dir)
	if err != nil || rep2.Prefix != rep.Prefix || rep2.Records != rep.Records {
		t.Fatalf("second scan diverged: %+v vs %+v (err %v)", rep2, rep, err)
	}
	g := open(t, dir, tinySegOpts())
	defer g.Close()
	if g.Seq() != rep.Prefix || g.Epoch() != rep.Epoch {
		t.Fatalf("open disagrees with scan: seq %d/%d epoch %d/%d",
			g.Seq(), rep.Prefix, g.Epoch(), rep.Epoch)
	}
}

// TestManifestDamageIsRecoverable: the manifest is a witness, not a
// dependency — losing it must demote nothing but the metadata.
func TestManifestDamageIsRecoverable(t *testing.T) {
	dir := t.TempDir()
	f := open(t, dir, fastOpts())
	commit(t, f, nvm.WordUpdate{Addr: 0, Val: 77})
	f.Close()

	if err := os.WriteFile(dir+"/"+persist.ManifestName, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	g := open(t, dir, fastOpts())
	defer g.Close()
	if got, ok := g.Recovered(0); !ok || got != 77 {
		t.Fatalf("Recovered(0) = %d,%v after manifest damage, want 77", got, ok)
	}
	// Recovery rewrote it.
	rep, err := persist.ScanDir(dir)
	if err != nil || !rep.ManifestOK {
		t.Fatalf("manifest not healed: %+v, err %v", rep, err)
	}
}

// TestRecSumsDistinguishRecords: the divergence fingerprint must differ
// between records with different payloads and between different
// sequences — a checksum taken over the full raw record (trailing CRC
// included) degenerates to the same fixed residue for every valid
// record and would make replica divergence undetectable.
func TestRecSumsDistinguishRecords(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	f := open(t, dirA, fastOpts())
	commit(t, f, nvm.WordUpdate{Addr: 0, Val: 1})
	commit(t, f, nvm.WordUpdate{Addr: 0, Val: 2})
	f.Close()
	g := open(t, dirB, fastOpts())
	commit(t, g, nvm.WordUpdate{Addr: 0, Val: 99})
	g.Close()

	repA, err := persist.ScanDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := persist.ScanDir(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if repA.RecSums[0].Sum == repA.RecSums[1].Sum {
		t.Errorf("seqs 1 and 2 share fingerprint %d", repA.RecSums[0].Sum)
	}
	if repA.RecSums[0].Sum == repB.RecSums[0].Sum {
		t.Errorf("divergent seq-1 records share fingerprint %d", repA.RecSums[0].Sum)
	}
}

// TestZeroTailIsCleanEnd: a segment that reads as zeros past its last
// record — what preallocation leaves — ends cleanly, and the chain runs
// on into the next segment for recovery, ScanDir and OpenMirror alike.
// Any other bytes there, such as a record cut short, are a torn tail.
func TestZeroTailIsCleanEnd(t *testing.T) {
	dir := t.TempDir()
	f := open(t, dir, tinySegOpts())
	for i := 0; i < 10; i++ {
		commit(t, f, nvm.WordUpdate{Addr: nvm.Addr(i * 6), Val: uint64(1000 + i)})
	}
	f.Close()
	segs := walSegs(t, dir)
	if len(segs) < 3 {
		t.Fatalf("segments = %v, want several", segs)
	}
	// Zero-extend every segment, preallocated or not.
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, fi.Size()+8<<10); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := persist.ScanDir(dir)
	if err != nil || rep.Records != 10 || rep.DiscardedBytes != 0 || rep.Prefix != 10 {
		t.Fatalf("ScanDir = %+v, err %v; want 10 records, none discarded", rep, err)
	}
	m, err := persist.OpenMirror(dir, tinySegOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Seq(); got != 10 {
		t.Fatalf("mirror Seq = %d, want 10", got)
	}
	m.Close()
	if got := walSegs(t, dir); len(got) != len(segs) {
		t.Fatalf("OpenMirror trimmed a clean chain: %v -> %v", segs, got)
	}

	// A record cut short in the middle segment, zeros after it: torn,
	// and the chain stops there.
	mid := segs[len(segs)/2]
	b, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	recs := recordStarts(b)
	last := recs[len(recs)-1]
	end := last + (last - recs[len(recs)-2])
	copy(b[end:], b[last:last+30])
	if err := os.WriteFile(mid, b, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = persist.ScanDir(dir)
	if err != nil || rep.Records >= 10 || rep.DiscardedBytes == 0 {
		t.Fatalf("ScanDir after a torn record = %+v, err %v; want the chain cut at it", rep, err)
	}
	g := open(t, dir, tinySegOpts())
	defer g.Close()
	if r := g.Report(); r.WALRecords != rep.Records || r.WALDiscarded == 0 {
		t.Fatalf("recovery = %+v, want %d records and a discarded tail", r, rep.Records)
	}
	for i := 0; i < 10; i++ {
		if got, ok := g.Recovered(nvm.Addr(i * 6)); !ok || got != uint64(1000+i) {
			t.Fatalf("Recovered(%d) = %d,%v, want %d", i*6, got, ok, 1000+i)
		}
	}
}

// TestMirrorSyncsBeforeRotating: a mirror retires a segment only after
// syncing it. Rotating first would leave the boundary record in the page
// cache while the next segment's header, synced by the next fence, names
// it as its base — and the record would count toward quorum unsynced.
func TestMirrorSyncsBeforeRotating(t *testing.T) {
	var ops []string
	mopts := tinySegOpts()
	mopts.Inject = func(op string) error {
		ops = append(ops, op)
		return nil
	}
	m, err := persist.OpenMirror(t.TempDir(), mopts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	opts := tinySegOpts()
	opts.Shipper = &shipToMirror{t: t, m: m}
	f := open(t, t.TempDir(), opts)
	defer f.Close()
	ops = nil
	for i := 0; i < 12; i++ {
		commit(t, f, nvm.WordUpdate{Addr: nvm.Addr(i), Val: uint64(i)})
	}
	appended, rotations := false, 0
	for _, op := range ops {
		switch op {
		case "wal.append":
			appended = true
		case "wal.fsync":
			appended = false
		case "seg.create":
			rotations++
			if appended {
				t.Fatalf("seg.create between a record's wal.append and its wal.fsync: %s", strings.Join(ops, " "))
			}
		}
	}
	if rotations == 0 {
		t.Fatal("the mirror never rotated")
	}
}
