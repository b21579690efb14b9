package replica_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"nrl/internal/flightrec"
	"nrl/internal/nvm"
	"nrl/internal/persist"
	"nrl/internal/replica"
)

// dirs makes n replica directories under one temp root, named r0..r{n-1}.
func dirs(t *testing.T, n int) []string {
	t.Helper()
	root := t.TempDir()
	ds := make([]string, n)
	for i := range ds {
		ds[i] = filepath.Join(root, fmt.Sprintf("r%d", i))
	}
	return ds
}

// fastOpts is the base Set configuration for tests: no real sleeping,
// tiny segments so rotation happens, and a fixed seed.
func fastOpts(ds []string) replica.Options {
	return replica.Options{
		Dirs: ds,
		Persist: persist.Options{
			Sleep:        func(time.Duration) {},
			SegmentBytes: 512,
		},
		Seed: 42,
	}
}

func openSet(t *testing.T, opts replica.Options) *replica.Set {
	t.Helper()
	s, err := replica.Open(opts)
	if err != nil {
		t.Fatalf("replica.Open: %v", err)
	}
	return s
}

func commitVal(t *testing.T, s *replica.Set, a nvm.Addr, v uint64) {
	t.Helper()
	if err := s.Commit([]nvm.WordUpdate{{Addr: a, Val: v}}); err != nil {
		t.Fatalf("Commit(%d=%d): %v", a, v, err)
	}
}

func TestReplicatedCommitAndReopen(t *testing.T) {
	ds := dirs(t, 3)
	s := openSet(t, fastOpts(ds))
	for i := 0; i < 20; i++ {
		s.Grow(nvm.Addr(i), 0)
		commitVal(t, s, nvm.Addr(i), uint64(100+i))
	}
	if got := s.Seq(); got != 20 {
		t.Fatalf("Seq = %d, want 20", got)
	}
	st := s.Status()
	if len(st.Members) != 3 || st.Members[0].Role != "leader" {
		t.Fatalf("status = %+v, want 3 members led by %s", st, s.LeaderDir())
	}
	for _, m := range st.Members {
		if !m.Healthy || m.Seq != 20 {
			t.Fatalf("member %+v, want healthy at seq 20", m)
		}
	}
	s.Close()

	// Reopen: the election must land on the same durable prefix.
	s2 := openSet(t, fastOpts(ds))
	defer s2.Close()
	for i := 0; i < 20; i++ {
		if got, ok := s2.Recovered(nvm.Addr(i)); !ok || got != uint64(100+i) {
			t.Fatalf("Recovered(%d) = %d,%v, want %d", i, got, ok, 100+i)
		}
	}
}

// TestLeaderFaultPromotesFollower is the tentpole behavior: the
// leader's disk dies mid-service, a follower is promoted in a higher
// epoch, the interrupted commit completes, and nothing acked is lost.
func TestLeaderFaultPromotesFollower(t *testing.T) {
	ds := dirs(t, 3)
	var failLeader atomic.Bool
	opts := fastOpts(ds)
	opts.InjectFor = func(i int) func(op string) error {
		if i != 0 {
			return nil
		}
		return func(op string) error {
			if failLeader.Load() {
				return errors.New("injected disk failure")
			}
			return nil
		}
	}
	s := openSet(t, opts)
	defer s.Close()
	if s.LeaderDir() != ds[0] {
		t.Fatalf("leader = %s, want %s", s.LeaderDir(), ds[0])
	}
	epoch0 := s.Epoch()
	for i := 0; i < 10; i++ {
		s.Grow(nvm.Addr(i), 0)
		commitVal(t, s, nvm.Addr(i), uint64(i+1))
	}

	// Kill the leader directory's I/O. The very next commit must fail
	// over and still succeed.
	failLeader.Store(true)
	s.Grow(nvm.Addr(10), 0)
	commitVal(t, s, nvm.Addr(10), 999)

	if s.LeaderDir() == ds[0] {
		t.Fatal("leader did not move off the faulted directory")
	}
	if s.Epoch() <= epoch0 {
		t.Fatalf("epoch = %d, want above %d after failover", s.Epoch(), epoch0)
	}
	st := s.Status()
	if st.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", st.Promotions)
	}
	// Service continues: every pre- and post-failover value is durable.
	for i := 0; i < 10; i++ {
		commitVal(t, s, nvm.Addr(i), uint64(1000+i))
	}
	if got, ok := s.Recovered(10); !ok || got != 999 {
		t.Fatalf("Recovered(10) = %d,%v, want 999", got, ok)
	}
}

// TestFailoverSurvivesReopen: after a promotion, a full restart's
// election must pick the new epoch's history — the demoted leader can
// never win with its stale suffix.
func TestFailoverSurvivesReopen(t *testing.T) {
	ds := dirs(t, 3)
	var failFirst atomic.Bool
	mk := func() replica.Options {
		opts := fastOpts(ds)
		opts.InjectFor = func(i int) func(op string) error {
			if i != 0 {
				return nil
			}
			return func(op string) error {
				if failFirst.Load() {
					return errors.New("injected disk failure")
				}
				return nil
			}
		}
		return opts
	}
	s := openSet(t, mk())
	s.Grow(0, 0)
	commitVal(t, s, 0, 1)
	failFirst.Store(true)
	commitVal(t, s, 0, 2) // fails over
	commitVal(t, s, 0, 3) // post-failover history
	newLeader := s.LeaderDir()
	newEpoch := s.Epoch()
	s.Close()

	failFirst.Store(false) // the old leader's disk comes back healthy
	s2 := openSet(t, mk())
	defer s2.Close()
	if got := s2.LeaderDir(); got == ds[0] {
		t.Fatalf("stale leader %s won re-election against epoch %d history on %s", got, newEpoch, newLeader)
	}
	if got := s2.Epoch(); got < newEpoch {
		t.Fatalf("reopened epoch = %d, want >= %d", got, newEpoch)
	}
	if got, ok := s2.Recovered(0); !ok || got != 3 {
		t.Fatalf("Recovered(0) = %d,%v, want 3", got, ok)
	}
}

// TestQuorumLossDegrades: with a majority of directories dead, commits
// must degrade sticky — carrying both nvm.ErrDegraded and
// replica.ErrNoQuorum, with the root cause resolvable end-to-end.
func TestQuorumLossDegrades(t *testing.T) {
	ds := dirs(t, 3)
	rootCause := errors.New("simulated media failure")
	var failFollowers atomic.Bool
	opts := fastOpts(ds)
	opts.InjectFor = func(i int) func(op string) error {
		if i == 0 {
			return nil
		}
		return func(op string) error {
			if failFollowers.Load() {
				return rootCause
			}
			return nil
		}
	}
	s := openSet(t, opts)
	defer s.Close()
	s.Grow(0, 0)
	commitVal(t, s, 0, 1)

	failFollowers.Store(true)
	var err error
	for i := 0; i < 10; i++ {
		if err = s.Commit([]nvm.WordUpdate{{Addr: 0, Val: uint64(2 + i)}}); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("commits kept succeeding with both followers dead")
	}
	if !errors.Is(err, nvm.ErrDegraded) {
		t.Fatalf("err = %v, want nvm.ErrDegraded in chain", err)
	}
	if !errors.Is(err, replica.ErrNoQuorum) {
		t.Fatalf("err = %v, want replica.ErrNoQuorum in chain", err)
	}
	// Sticky: later commits fail identically.
	if err2 := s.Commit([]nvm.WordUpdate{{Addr: 0, Val: 99}}); !errors.Is(err2, nvm.ErrDegraded) {
		t.Fatalf("degradation not sticky: %v", err2)
	}
	if s.Err() == nil {
		t.Fatal("Err() = nil after degradation")
	}
}

// TestFollowerHealsAfterTransientFault: a follower that drops out comes
// back via the heal path and counts toward quorum again.
func TestFollowerHealsAfterTransientFault(t *testing.T) {
	ds := dirs(t, 3)
	var failOne atomic.Bool
	opts := fastOpts(ds)
	opts.ShipRetries = 1
	opts.InjectFor = func(i int) func(op string) error {
		if i != 2 {
			return nil
		}
		return func(op string) error {
			if failOne.Load() {
				return errors.New("transient follower fault")
			}
			return nil
		}
	}
	s := openSet(t, opts)
	defer s.Close()
	s.Grow(0, 0)
	commitVal(t, s, 0, 1)

	failOne.Store(true)
	commitVal(t, s, 0, 2) // follower 2 faults; quorum holds at 2/3
	st := s.Status()
	faulted := 0
	for _, m := range st.Members {
		if m.Role == "faulted" {
			faulted++
		}
	}
	if faulted != 1 {
		t.Fatalf("status after fault = %+v, want exactly one faulted member", st)
	}

	failOne.Store(false)
	// Heal backoff is measured in commits; a handful of commits must
	// bring the follower back.
	for i := 0; i < 20; i++ {
		commitVal(t, s, 0, uint64(10+i))
	}
	st = s.Status()
	if st.Heals == 0 {
		t.Fatalf("status = %+v, want at least one heal", st)
	}
	for _, m := range st.Members {
		if !m.Healthy {
			t.Fatalf("member %+v still unhealthy after heal window", m)
		}
		if m.Seq != st.Members[0].Seq {
			t.Fatalf("member %+v behind leader seq %d after heal", m, st.Members[0].Seq)
		}
	}
}

// TestSnapshotCatchUp: a follower that missed a checkpointed range is
// healed by snapshot transfer, not records.
func TestSnapshotCatchUp(t *testing.T) {
	ds := dirs(t, 3)
	var failOne atomic.Bool
	opts := fastOpts(ds)
	opts.Persist.CheckpointBytes = 2048 // checkpoint every few records
	opts.ShipRetries = 0
	opts.InjectFor = func(i int) func(op string) error {
		if i != 2 {
			return nil
		}
		return func(op string) error {
			if failOne.Load() {
				return errors.New("long follower outage")
			}
			return nil
		}
	}
	s := openSet(t, opts)
	defer s.Close()
	s.Grow(0, 0)
	commitVal(t, s, 0, 1)
	failOne.Store(true)
	// Enough commits that the outage spans at least one checkpoint: the
	// leader's log no longer holds the follower's gap.
	for i := 0; i < 40; i++ {
		commitVal(t, s, 0, uint64(i+2))
	}
	failOne.Store(false)
	// The heal backoff is exponential in the consecutive failures the
	// outage piled up, measured in commits: keep committing until the
	// schedule readmits the follower.
	last := uint64(0)
	for i := 0; i < 200; i++ {
		last = uint64(100 + i)
		commitVal(t, s, 0, last)
		if st := s.Status(); st.Heals > 0 {
			break
		}
	}
	st := s.Status()
	for _, m := range st.Members {
		if !m.Healthy || m.Seq != st.Members[0].Seq {
			t.Fatalf("member %+v not caught up to leader %+v", m, st.Members[0])
		}
	}
	// The healed follower can win a fresh election and serve the state.
	s.Close()
	s2 := openSet(t, fastOpts(ds))
	defer s2.Close()
	if got, ok := s2.Recovered(0); !ok || got != last {
		t.Fatalf("Recovered(0) = %d,%v, want %d", got, ok, last)
	}
}

// TestOpenSkipsCorruptDirectory: a replica directory damaged beyond
// recovery must not win the election — and must not block Open.
func TestOpenSkipsCorruptDirectory(t *testing.T) {
	ds := dirs(t, 3)
	s := openSet(t, fastOpts(ds))
	s.Grow(0, 0)
	for i := 0; i < 10; i++ {
		commitVal(t, s, 0, uint64(i+1))
	}
	leaderDir := s.LeaderDir()
	s.Close()

	// Trash the previous leader's data file header over committed state:
	// persist.Open rejects it as corrupt.
	data := filepath.Join(leaderDir, "data")
	b, err := os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16 && i < len(b); i++ {
		b[i] ^= 0xff
	}
	if err := os.WriteFile(data, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openSet(t, fastOpts(ds))
	defer s2.Close()
	if s2.LeaderDir() == leaderDir {
		t.Fatal("election picked the corrupt directory")
	}
	if got, ok := s2.Recovered(0); !ok || got != 10 {
		t.Fatalf("Recovered(0) = %d,%v, want 10", got, ok)
	}
	// The corrupt member is reported, not hidden.
	st := s2.Status()
	if len(st.Members) != 3 {
		t.Fatalf("status = %+v, want all 3 members listed", st)
	}
}

// TestReportCountsLeaderRepair: a torn data page in the member the
// election picks is repaired from its WAL, and Report says so.
func TestReportCountsLeaderRepair(t *testing.T) {
	ds := dirs(t, 3)
	s := openSet(t, replica.Options{Dirs: ds, Seed: 42})
	s.Grow(0, 0)
	s.Grow(6, 0)
	if err := s.Commit([]nvm.WordUpdate{{Addr: 0, Val: 41}, {Addr: 6, Val: 42}}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Every member holds the same (epoch, prefix), so the lowest index
	// wins the next election. Tear its page 1 (addr 6) mid-write.
	fd, err := os.OpenFile(filepath.Join(ds[0], "data"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fd.WriteAt([]byte("torn!torn!torn!torn!torn!torn!ha"), 64+1*64); err != nil {
		t.Fatal(err)
	}
	fd.Close()

	s2 := openSet(t, replica.Options{Dirs: ds, Seed: 42})
	defer s2.Close()
	if s2.LeaderDir() != ds[0] {
		t.Fatalf("leader = %s, want %s", s2.LeaderDir(), ds[0])
	}
	if rep := s2.Report(); rep.Torn != 1 || rep.Repaired != 1 {
		t.Fatalf("Report() = %+v, want Torn=1 Repaired=1", rep)
	}
	if got, ok := s2.Recovered(6); !ok || got != 42 {
		t.Fatalf("Recovered(6) = %d,%v after repair, want 42,true", got, ok)
	}
}

// TestSingleDirDegenerates: one directory is an unreplicated store —
// same API, quorum of one.
func TestSingleDirDegenerates(t *testing.T) {
	ds := dirs(t, 1)
	s := openSet(t, fastOpts(ds))
	if s.Quorum() != 1 {
		t.Fatalf("Quorum = %d, want 1", s.Quorum())
	}
	s.Grow(0, 0)
	commitVal(t, s, 0, 7)
	s.Close()
	s2 := openSet(t, fastOpts(ds))
	defer s2.Close()
	if got, ok := s2.Recovered(0); !ok || got != 7 {
		t.Fatalf("Recovered(0) = %d,%v, want 7", got, ok)
	}
}

// TestMemoryOverReplicaSet runs the real stack — nvm.Memory in Buffered
// mode over a Set — through a mid-workload failover: the memory layer
// must never observe it.
func TestMemoryOverReplicaSet(t *testing.T) {
	ds := dirs(t, 3)
	var failLeader atomic.Bool
	opts := fastOpts(ds)
	opts.InjectFor = func(i int) func(op string) error {
		if i != 0 {
			return nil
		}
		return func(op string) error {
			if failLeader.Load() {
				return errors.New("injected disk failure")
			}
			return nil
		}
	}
	s := openSet(t, opts)
	defer s.Close()

	mem := nvm.New(nvm.WithMode(nvm.Buffered), nvm.WithBackend(s))
	a := mem.Alloc("x", 0)
	for i := 1; i <= 5; i++ {
		mem.Write(a, uint64(i))
		mem.Flush(a)
		mem.Fence()
	}
	failLeader.Store(true)
	for i := 6; i <= 10; i++ {
		mem.Write(a, uint64(i))
		mem.Flush(a)
		mem.Fence()
	}
	if err := mem.Err(); err != nil {
		t.Fatalf("memory degraded across failover: %v", err)
	}
	if s.Status().Promotions == 0 {
		t.Fatal("no promotion happened; the fault never bit")
	}
	s.Close()

	// A fresh stack over the surviving directories recovers the value.
	s2 := openSet(t, fastOpts(ds))
	defer s2.Close()
	mem2 := nvm.New(nvm.WithMode(nvm.Buffered), nvm.WithBackend(s2))
	a2 := mem2.Alloc("x", 0)
	if got := mem2.Durable(a2); got != 10 {
		t.Fatalf("Durable = %d, want 10", got)
	}
}

// TestFlightRecorderRidesFailover: the black box is attached to the
// leader's store; after promotion its ring must be rewritten wholesale
// into the new leader's directory, so a post-crash forensics read of
// the serving directory explains the full history.
func TestFlightRecorderRidesFailover(t *testing.T) {
	ds := dirs(t, 3)
	var failLeader atomic.Bool
	rec := flightrec.NewRecorder(flightrec.Options{})
	opts := fastOpts(ds)
	opts.Persist.BlackBox = rec
	opts.InjectFor = func(i int) func(op string) error {
		if i != 0 {
			return nil
		}
		return func(op string) error {
			// The bbox writes share the leader directory's fate.
			if failLeader.Load() {
				return errors.New("injected disk failure")
			}
			return nil
		}
	}
	s := openSet(t, opts)
	defer s.Close()
	s.Grow(0, 0)
	for i := 1; i <= 4; i++ {
		rec.Record(flightrec.Rec{Kind: flightrec.KindBegin, P: 1, Depth: 1, Obj: "x", Op: "Set", Val: uint64(i)})
		commitVal(t, s, 0, uint64(i))
		rec.Record(flightrec.Rec{Kind: flightrec.KindEnd, P: 1, Depth: 1, Obj: "x", Op: "Set", Val: uint64(i)})
	}
	failLeader.Store(true)
	rec.Record(flightrec.Rec{Kind: flightrec.KindBegin, P: 1, Depth: 1, Obj: "x", Op: "Set", Val: 5})
	commitVal(t, s, 0, 5)
	rec.Record(flightrec.Rec{Kind: flightrec.KindEnd, P: 1, Depth: 1, Obj: "x", Op: "Set", Val: 5})
	commitVal(t, s, 0, 6) // the end record rides this commit's sync
	newLeader := s.LeaderDir()
	if newLeader == ds[0] {
		t.Fatal("no failover happened")
	}
	s.Close()

	// Crash-read the new leader's bbox: the whole story must be there,
	// including records written before the failover.
	rec2 := flightrec.NewRecorder(flightrec.Options{})
	f, err := persist.Open(newLeader, persist.Options{
		Sleep:    func(time.Duration) {},
		BlackBox: rec2,
	})
	if err != nil {
		t.Fatalf("open new leader: %v", err)
	}
	defer f.Close()
	recs := rec2.Recovered()
	var begins, ends int
	for _, r := range recs {
		switch r.Kind {
		case flightrec.KindBegin:
			begins++
		case flightrec.KindEnd:
			ends++
		}
	}
	if begins < 5 || ends < 5 {
		t.Fatalf("recovered %d begins / %d ends from new leader's bbox, want >= 5 each (%d records)",
			begins, ends, len(recs))
	}
}

// TestDegradedCauseChain: the sticky error a dead set returns must
// resolve the root I/O failure through errors.Is end-to-end, replica
// and persist wrapping included.
func TestDegradedCauseChain(t *testing.T) {
	ds := dirs(t, 1)
	rootCause := errors.New("EIO at the bottom")
	var fail atomic.Bool
	opts := fastOpts(ds)
	opts.InjectFor = func(int) func(op string) error {
		return func(op string) error {
			if fail.Load() {
				return rootCause
			}
			return nil
		}
	}
	s := openSet(t, opts)
	defer s.Close()
	s.Grow(0, 0)
	commitVal(t, s, 0, 1)
	fail.Store(true)
	err := s.Commit([]nvm.WordUpdate{{Addr: 0, Val: 2}})
	if err == nil {
		t.Fatal("commit succeeded with dead disk")
	}
	if !errors.Is(err, nvm.ErrDegraded) {
		t.Fatalf("err = %v, want nvm.ErrDegraded", err)
	}
	if !errors.Is(err, rootCause) {
		t.Fatalf("err = %v, want root cause %v resolvable via errors.Is", err, rootCause)
	}
	var de *nvm.DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *nvm.DegradedError via errors.As", err)
	}
}
