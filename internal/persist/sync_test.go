package persist

import (
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nrl/internal/nvm"
)

// withSyncSegment substitutes the WAL segment sync for one test.
func withSyncSegment(t *testing.T, sync func(*os.File) error) {
	t.Helper()
	old := syncSegment
	syncSegment = sync
	t.Cleanup(func() { syncSegment = old })
}

// TestSyncErrorIsNotRetried: a sync syscall that fails once must degrade
// the store at once. The kernel may have dropped the failed pages, so a
// retry that succeeds would acknowledge a record that never reached the
// disk.
func TestSyncErrorIsNotRetried(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(dir, Options{Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	commitWords(t, f, 0, 1)

	var calls atomic.Int32
	withSyncSegment(t, func(fd *os.File) error {
		if calls.Add(1) == 1 {
			return errors.New("injected EIO")
		}
		return datasync(fd)
	})
	err = f.Commit([]nvm.WordUpdate{{Addr: 0, Val: 2}})
	if !errors.Is(err, nvm.ErrDegraded) {
		t.Fatalf("Commit after a failed sync = %v, want ErrDegraded", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("sync called %d times, want 1 (no retry)", n)
	}
	if _, retries, _ := f.Metrics(); retries != 0 {
		t.Fatalf("retries = %d, want 0", retries)
	}
	if got := f.Seq(); got != 1 {
		t.Fatalf("Seq = %d after the failed commit, want 1", got)
	}
}

// TestOverlappingSyncFailure: the first of two overlapping commits fails
// its sync only after the second commit's sync has returned nil. The
// second commit must still fail — its record sits behind one that may be
// lost — and recovery must keep every acknowledged commit.
func TestOverlappingSyncFailure(t *testing.T) {
	if !syncOutsideLock {
		t.Skip("commits sync under the store lock on this platform")
	}
	dir := t.TempDir()
	f, err := Open(dir, Options{Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	commitWords(t, f, 0, 1) // acknowledged

	firstIn := make(chan struct{})
	secondOut := make(chan struct{})
	var calls atomic.Int32
	withSyncSegment(t, func(fd *os.File) error {
		if calls.Add(1) == 1 {
			close(firstIn)
			<-secondOut
			return errors.New("injected EIO")
		}
		defer close(secondOut)
		return datasync(fd)
	})

	errs := make(chan error, 2)
	go func() { errs <- f.Commit([]nvm.WordUpdate{{Addr: 0, Val: 2}}) }()
	<-firstIn
	go func() { errs <- f.Commit([]nvm.WordUpdate{{Addr: 6, Val: 3}}) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, nvm.ErrDegraded) {
			t.Errorf("overlapping commit = %v, want ErrDegraded", err)
		}
	}
	if got := f.Seq(); got != 1 {
		t.Errorf("Seq = %d, want 1: neither overlapping commit completed", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// Each failed commit was in flight: recovery may show it or not, but
	// never lose the acknowledged one.
	if v, ok := g.Recovered(0); !ok || (v != 1 && v != 2) {
		t.Fatalf("Recovered(0) = %d,%v, want 1 or 2", v, ok)
	}
}

// TestCommitSyncsOwnFile pins what the overlapping syncs rely on. Linux
// reports a writeback error once per open file description, so a sync
// sharing one with an overlapping sync can miss the error on its own
// record's pages. Every commit therefore syncs through a description no
// sync in flight shares — not the one its record was written through —
// taken before that write, so the report cannot have gone out before.
func TestCommitSyncsOwnFile(t *testing.T) {
	if !syncOutsideLock {
		t.Skip("commits sync under the store lock on this platform")
	}
	var store atomic.Pointer[File]
	f, err := Open(t.TempDir(), Options{
		Sleep:           func(time.Duration) {},
		SegmentBytes:    512,
		CheckpointBytes: 2048,
		Inject: func(op string) error {
			// Runs under the store lock. One committer at a time
			// returns its description before the next takes it, so a
			// spare left at the write means it was not yet taken.
			if g := store.Load(); g != nil && op == "wal.append" && len(g.spare) != 0 {
				t.Errorf("record written with %d spare descriptions: the sync's is taken after the write", len(g.spare))
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	store.Store(f)
	for v := uint64(1); v <= 40; v++ {
		commitWords(t, f, 0, v)
	}
	store.Store(nil)

	var mu sync.Mutex
	busy := map[*os.File]bool{}
	overlap := 0
	withSyncSegment(t, func(fd *os.File) error {
		mu.Lock()
		if busy[fd] {
			t.Error("two syncs in flight share an open file description")
		}
		if fd == f.seg {
			t.Error("sync through the description records are written through")
		}
		busy[fd] = true
		overlap = max(overlap, len(busy))
		mu.Unlock()
		time.Sleep(time.Millisecond)
		err := datasync(fd)
		mu.Lock()
		delete(busy, fd)
		mu.Unlock()
		return err
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := uint64(1); v <= 30; v++ {
				if err := f.Commit([]nvm.WordUpdate{{Addr: nvm.Addr(w * 6), Val: v}}); err != nil {
					t.Errorf("Commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if overlap < 2 {
		t.Errorf("at most %d syncs overlapped, want the test to overlap some", overlap)
	}
	f.mu.Lock()
	spare := len(f.spare)
	f.mu.Unlock()
	if spare > 4 {
		t.Errorf("%d spare descriptions for 4 committers", spare)
	}
}

// TestHousekeepingRunsQuiescent: page rewrites, rotations, checkpoints,
// SetEpoch and Snapshot touch the store only while no commit is in
// flight, so no data page carries a record that is not yet durable and
// no sync targets a retired segment. The failpoint hook runs at every
// physical I/O; under the store lock it checks the in-flight count.
func TestHousekeepingRunsQuiescent(t *testing.T) {
	var store atomic.Pointer[File]
	var housekeeping atomic.Int32
	opts := Options{
		Sleep:           func(time.Duration) {},
		SegmentBytes:    512,
		CheckpointBytes: 2048,
		Inject: func(op string) error {
			f := store.Load()
			if f == nil {
				return nil // Open's own recovery
			}
			switch op {
			case "data.pwrite", "data.fsync", "seg.create", "seg.remove", "manifest.write", "data.read":
				housekeeping.Add(1)
				if f.inflight != 0 {
					t.Errorf("%s with %d commits in flight", op, f.inflight)
				}
			}
			return nil
		},
	}
	f, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	store.Store(f)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := uint64(1); v <= 60; v++ {
				if err := f.Commit([]nvm.WordUpdate{{Addr: nvm.Addr(w * 6), Val: v}}); err != nil {
					t.Errorf("Commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for e := uint64(1); e <= 5; e++ {
			if err := f.SetEpoch(e); err != nil {
				t.Errorf("SetEpoch: %v", err)
			}
			if _, _, err := f.Snapshot(); err != nil {
				t.Errorf("Snapshot: %v", err)
			}
		}
	}()
	wg.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if housekeeping.Load() == 0 {
		t.Fatal("no housekeeping I/O ran")
	}
}

// TestMirrorSyncFailureIsFinal: a follower's sync that fails once must
// fail every later call. The kernel may have marked the failed pages
// clean, so a later sync that succeeds would let the records count
// toward quorum without being on the disk.
func TestMirrorSyncFailureIsFinal(t *testing.T) {
	m, err := OpenMirror(t.TempDir(), Options{Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Append(1, []byte("record one")); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	withSyncSegment(t, func(fd *os.File) error {
		if calls.Add(1) == 1 {
			return errors.New("injected EIO")
		}
		return datasync(fd)
	})
	if err := m.Fence(); err == nil {
		t.Fatal("Fence over a failed sync = nil")
	}
	if err := m.Fence(); err == nil {
		t.Fatal("Fence after a failed sync = nil, want the failure again")
	}
	if err := m.Append(2, []byte("record two")); err == nil {
		t.Fatal("Append after a failed sync = nil")
	}
	if err := m.SetEpoch(1); err == nil {
		t.Fatal("SetEpoch after a failed sync = nil")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("sync called %d times, want 1", n)
	}
}

// TestMirrorAppendsDuringFence: Fence syncs outside the mirror's lock,
// so an append lands while it runs. Fence then counts only what was
// appended before it, and a rotation it makes due first syncs the
// record that landed meanwhile.
func TestMirrorAppendsDuringFence(t *testing.T) {
	m, err := OpenMirror(t.TempDir(), Options{Sleep: func(time.Duration) {}, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rec := make([]byte, 48)
	if err := m.Append(1, rec); err != nil {
		t.Fatal(err)
	}
	var syncs atomic.Int32
	withSyncSegment(t, func(fd *os.File) error {
		if syncs.Add(1) == 1 {
			if err := m.Append(2, rec); err != nil {
				t.Errorf("Append during Fence: %v", err)
			}
		}
		return datasync(fd)
	})
	if err := m.Fence(); err != nil {
		t.Fatal(err)
	}
	if n := syncs.Load(); n != 2 {
		t.Fatalf("%d syncs, want 2: the record appended during the first must be synced before the rotation", n)
	}
	if m.segIndex != 1 || m.synced != 2 {
		t.Fatalf("segment %d, synced through %d; want a rotation to segment 1 after syncing 2", m.segIndex, m.synced)
	}
}
