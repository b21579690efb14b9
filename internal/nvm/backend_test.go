package nvm_test

import (
	"errors"
	"fmt"
	"testing"

	"nrl/internal/nvm"
)

// fakeBackend is an in-memory Backend recording the commit stream, with
// an optional injected failure.
type fakeBackend struct {
	durable map[nvm.Addr]uint64 // "storage" from a previous incarnation
	grown   map[nvm.Addr]uint64
	commits [][]nvm.WordUpdate
	fail    error
	closed  bool
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{durable: map[nvm.Addr]uint64{}, grown: map[nvm.Addr]uint64{}}
}

func (b *fakeBackend) Recovered(a nvm.Addr) (uint64, bool) {
	v, ok := b.durable[a]
	return v, ok
}

func (b *fakeBackend) Grow(a nvm.Addr, init uint64) { b.grown[a] = init }

func (b *fakeBackend) Commit(batch []nvm.WordUpdate) error {
	if b.fail != nil {
		return b.fail
	}
	cp := append([]nvm.WordUpdate(nil), batch...)
	b.commits = append(b.commits, cp)
	for _, u := range cp {
		b.durable[u.Addr] = u.Val
	}
	return nil
}

func (b *fakeBackend) Close() error {
	b.closed = true
	return nil
}

func TestBackendBufferedFenceCommitsFlushedWords(t *testing.T) {
	b := newFakeBackend()
	mem := nvm.New(nvm.WithMode(nvm.Buffered), nvm.WithBackend(b))
	x := mem.Alloc("x", 0)
	y := mem.Alloc("y", 0)

	mem.Write(x, 7)
	mem.Write(y, 9)
	mem.Flush(x)
	mem.Fence()

	if len(b.commits) != 1 {
		t.Fatalf("commits = %d, want 1", len(b.commits))
	}
	if got := b.commits[0]; len(got) != 1 || got[0] != (nvm.WordUpdate{Addr: x, Val: 7}) {
		t.Fatalf("commit batch = %v, want [{%d 7}]", got, x)
	}
	if v, ok := b.Recovered(y); ok {
		t.Fatalf("unflushed word committed: y = %d", v)
	}

	// A fence with nothing flushing must not call the backend at all.
	mem.Fence()
	if len(b.commits) != 1 {
		t.Fatalf("empty fence committed: %d batches", len(b.commits))
	}

	mem.Flush(y)
	mem.Fence()
	if len(b.commits) != 2 {
		t.Fatalf("commits = %d, want 2", len(b.commits))
	}
	if mem.Durable(y) != 9 {
		t.Fatalf("Durable(y) = %d, want 9", mem.Durable(y))
	}
}

func TestBackendAllocRecoversDurableValues(t *testing.T) {
	b := newFakeBackend()
	b.durable[0] = 41
	mem := nvm.New(nvm.WithMode(nvm.Buffered), nvm.WithBackend(b))

	x := mem.Alloc("x", 5) // recovered: init ignored
	fresh := mem.Alloc("fresh", 3)

	if got := mem.Read(x); got != 41 {
		t.Fatalf("recovered Read(x) = %d, want 41", got)
	}
	if got := mem.Durable(x); got != 41 {
		t.Fatalf("recovered Durable(x) = %d, want 41", got)
	}
	if got := mem.Read(fresh); got != 3 {
		t.Fatalf("fresh Read = %d, want 3", got)
	}
	if init, ok := b.grown[fresh]; !ok || init != 3 {
		t.Fatalf("fresh word not grown: grown = %v", b.grown)
	}
	if _, ok := b.grown[x]; ok {
		t.Fatal("recovered word was grown")
	}
}

func TestBackendADRCommitsEveryMutation(t *testing.T) {
	b := newFakeBackend()
	mem := nvm.New(nvm.WithBackend(b)) // default ADR
	x := mem.Alloc("x", 0)

	mem.Write(x, 1)
	if !mem.CAS(x, 1, 2) {
		t.Fatal("CAS failed")
	}
	mem.CAS(x, 99, 100) // failed CAS must not commit
	mem.FAA(x, 3)
	mem.TAS(x)

	want := []uint64{1, 2, 5, 1}
	if len(b.commits) != len(want) {
		t.Fatalf("commits = %d, want %d", len(b.commits), len(want))
	}
	for i, w := range want {
		if got := b.commits[i]; len(got) != 1 || got[0].Addr != x || got[0].Val != w {
			t.Fatalf("commit %d = %v, want {%d %d}", i, got, x, w)
		}
	}
}

func TestBackendFailureDegradesToReadOnly(t *testing.T) {
	b := newFakeBackend()
	mem := nvm.New(nvm.WithMode(nvm.Buffered), nvm.WithBackend(b))
	x := mem.Alloc("x", 0)

	mem.Write(x, 7)
	mem.Persist(x)
	if err := mem.Err(); err != nil {
		t.Fatalf("healthy Err = %v", err)
	}

	b.fail = errors.New("disk on fire")
	mem.Write(x, 8)
	mem.Flush(x)
	mem.Fence() // commit fails -> degrade

	err := mem.Err()
	if err == nil {
		t.Fatal("Err = nil after failed commit")
	}
	if !errors.Is(err, nvm.ErrDegraded) {
		t.Fatalf("Err = %v, not ErrDegraded", err)
	}
	var de *nvm.DegradedError
	if !errors.As(err, &de) || de.Cause == nil {
		t.Fatalf("Err = %#v, want *DegradedError with cause", err)
	}

	// The simulated durable state must not have advanced past storage.
	if got := mem.Durable(x); got != 7 {
		t.Fatalf("Durable(x) = %d after failed commit, want 7", got)
	}

	// Read-only: reads work, every mutation is rejected, nothing panics.
	if got := mem.Read(x); got != 8 {
		t.Fatalf("degraded Read = %d, want 8", got)
	}
	mem.Write(x, 100)
	if got := mem.Read(x); got != 8 {
		t.Fatalf("degraded Write applied: Read = %d", got)
	}
	if mem.CAS(x, 8, 101) {
		t.Fatal("degraded CAS succeeded")
	}
	if got := mem.FAA(x, 5); got != 8 {
		t.Fatalf("degraded FAA = %d, want current value 8", got)
	}
	if got := mem.TAS(x); got != 8 {
		t.Fatalf("degraded TAS = %d, want current value 8", got)
	}
	mem.Persist(x) // no-op, must not re-enter the backend
	if got := mem.Read(x); got != 8 {
		t.Fatalf("degraded memory mutated: Read = %d", got)
	}
}

func TestPhaseHookTransitions(t *testing.T) {
	var phases []nvm.Phase
	mem := nvm.New(nvm.WithMode(nvm.Buffered), nvm.WithPhaseHook(func(p nvm.Phase) {
		phases = append(phases, p)
	}))
	x := mem.Alloc("x", 0)

	mem.Write(x, 1) // clean -> dirty
	mem.Write(x, 2) // already dirty: no transition
	mem.Flush(x)
	mem.Fence()

	want := []nvm.Phase{nvm.PhaseDirty, nvm.PhaseFlushing, nvm.PhaseFenced}
	if fmt.Sprint(phases) != fmt.Sprint(want) {
		t.Fatalf("phases = %v, want %v", phases, want)
	}

	// With a backend, the fence ends in idle (the commit completed).
	phases = nil
	b := newFakeBackend()
	mem2 := nvm.New(nvm.WithMode(nvm.Buffered), nvm.WithBackend(b),
		nvm.WithPhaseHook(func(p nvm.Phase) { phases = append(phases, p) }))
	y := mem2.Alloc("y", 0)
	mem2.Write(y, 1)
	mem2.Flush(y)
	mem2.Fence()
	want = []nvm.Phase{nvm.PhaseDirty, nvm.PhaseFlushing, nvm.PhaseIdle}
	if fmt.Sprint(phases) != fmt.Sprint(want) {
		t.Fatalf("backend phases = %v, want %v", phases, want)
	}
}

func TestPhaseStrings(t *testing.T) {
	names := map[nvm.Phase]string{
		nvm.PhaseIdle:      "idle",
		nvm.PhaseDirty:     "dirty",
		nvm.PhaseFlushing:  "flushing",
		nvm.PhaseFenced:    "fenced",
		nvm.PhaseMidCommit: "mid-commit",
	}
	for p, want := range names {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", p, got, want)
		}
	}
}
