package nvm

import (
	"errors"
	"fmt"
)

// Backend turns a Memory's simulated persistence into real persistence:
// when one is installed (WithBackend), the durable side of every word
// lives in the backend's storage — a file, in package persist — and
// Fence becomes a real commit instead of a metadata update.
//
// In Buffered mode the Memory hands the backend one Commit per fence,
// carrying exactly the words captured by flushes since the previous
// fence. In ADR mode every successful mutation is committed immediately
// (each store is durable the moment it is applied, which is what ADR
// means).
//
// Allocation must be deterministic across incarnations of a program:
// a word's identity in the backend is its address, which is assigned in
// Alloc order. Rebuild the same objects in the same order after a
// restart and Alloc returns each word's recovered durable value.
type Backend interface {
	// Recovered reports the durable value the backend's storage holds
	// for a from a previous incarnation, if any.
	Recovered(a Addr) (uint64, bool)

	// Grow records that a fresh word (one with no recovered value) was
	// allocated at a with the given initial value. The word is tracked
	// in memory only; it becomes durable with the first Commit that
	// touches its page.
	Grow(a Addr, init uint64)

	// Commit makes a batch of fenced words durable, atomically: after a
	// crash at any point, recovery observes either the whole batch or
	// none of it. A non-nil error means the batch could not be made
	// durable (even after the backend's own retries); the Memory reacts
	// by degrading to read-only. Fences of different processes may call
	// Commit concurrently. Commit must not retain the batch: its backing
	// array is the fencing process's flush buffer, reused by its next
	// flush.
	Commit(batch []WordUpdate) error

	// Close releases the backend's resources. It does not flush:
	// anything committed is already durable.
	Close() error
}

// WordUpdate is one fenced word a Backend.Commit must make durable.
type WordUpdate struct {
	Addr Addr
	Val  uint64
}

// Phase names the stations of the persistence state machine, as
// observed through WithPhaseHook (and, for the commit-side stations,
// through the backend's own hook — see persist.Options.PhaseHook):
//
//	idle → dirty → flushing → fenced → mid-commit → idle
//
// Dirty and flushing are entered by the Memory (a store landed in the
// volatile buffer; a flush captured a value awaiting fence). Fenced and
// mid-commit are entered by a real backend (the commit record is
// durable; the data pages are being rewritten). The kill-harness uses
// the hook stream to record which phase a SIGKILL landed in.
type Phase uint8

const (
	// PhaseIdle: no un-persisted state is outstanding; the last fence
	// (and its commit, if a backend is installed) completed.
	PhaseIdle Phase = iota
	// PhaseDirty: a store landed in the volatile buffer of a clean word.
	PhaseDirty
	// PhaseFlushing: a flush captured a word's value; it becomes durable
	// at the next fence.
	PhaseFlushing
	// PhaseFenced: a fence reached its atomic commit point (the
	// backend's commit record is durable) but the data pages have not
	// been rewritten yet.
	PhaseFenced
	// PhaseMidCommit: the backend is rewriting data pages in place; a
	// crash here leaves torn pages that recovery must repair from the
	// commit record.
	PhaseMidCommit
	// PhaseFailover: a failover-capable backend (a replica set) is
	// replacing its degraded primary store with a promoted peer. The
	// memory above never observes this as an error — the commit that
	// triggered it completes on the new primary — but a crash here must
	// elect the same winner again, which is why the new epoch is made
	// durable on a quorum before the first post-failover ack.
	PhaseFailover
)

// String returns the phase name used by the kill-harness coverage table.
func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseDirty:
		return "dirty"
	case PhaseFlushing:
		return "flushing"
	case PhaseFenced:
		return "fenced"
	case PhaseMidCommit:
		return "mid-commit"
	case PhaseFailover:
		return "failover"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// ErrDegraded is the sentinel for a memory or backend that exhausted its
// I/O retry budget and degraded to read-only. Match with errors.Is; the
// concrete error is a *DegradedError carrying the cause.
var ErrDegraded = errors.New("nvm: degraded to read-only")

// DegradedError is the typed error a degraded memory or backend
// returns. It matches ErrDegraded under errors.Is and unwraps to the
// I/O failure that triggered the degradation.
type DegradedError struct {
	Cause error
}

// Error implements error.
func (e *DegradedError) Error() string {
	if e.Cause == nil {
		return ErrDegraded.Error()
	}
	return ErrDegraded.Error() + ": " + e.Cause.Error()
}

// Is reports target == ErrDegraded, so errors.Is(err, ErrDegraded)
// matches without unwrapping through Cause.
func (e *DegradedError) Is(target error) bool { return target == ErrDegraded }

// Unwrap returns the I/O failure that triggered the degradation.
func (e *DegradedError) Unwrap() error { return e.Cause }

type backendOption struct{ b Backend }

func (o backendOption) apply(m *Memory) { m.backend = o.b }

// WithBackend installs a durable storage backend. See Backend for the
// commit discipline and the deterministic-allocation requirement.
func WithBackend(b Backend) Option { return backendOption{b} }

type phaseHookOption struct{ fn func(Phase) }

func (o phaseHookOption) apply(m *Memory) { m.phase = o.fn }

// WithPhaseHook installs a callback observing persistence-phase
// transitions (Buffered mode only): every store to a clean word, every
// flush and every fence fires it, after the primitive took effect. The
// hook is called synchronously from the mutating goroutine with no
// memory lock held, so it may call back into the Memory — CrashAll
// included, which simulates a power failure at that point.
func WithPhaseHook(fn func(Phase)) Option { return phaseHookOption{fn} }

// Err returns nil while the memory is healthy, and the sticky
// *DegradedError once it has degraded to read-only: reads keep working,
// but every mutation and persistence primitive is rejected (writes are
// dropped, CAS fails, TAS and FAA return the current value unchanged,
// Flush and Fence do nothing). Callers running over a real backend
// should poll Err at their durability points.
func (m *Memory) Err() error {
	if !m.degraded.Load() {
		return nil
	}
	m.degMu.Lock()
	defer m.degMu.Unlock()
	return m.degErr
}

// degrade records the first degradation cause and makes the memory
// read-only. A cause that is not already a *DegradedError (as a
// persist.File's is) is wrapped in one.
func (m *Memory) degrade(err error) {
	m.degMu.Lock()
	defer m.degMu.Unlock()
	if m.degErr == nil {
		if _, ok := err.(*DegradedError); !ok {
			err = &DegradedError{Cause: err} //nrl:ignore degraded-mode error path; backend has already failed
		}
		m.degErr = err
		m.degraded.Store(true)
	}
}

// commitOne commits a single ADR-mode mutation through the backend,
// degrading the memory if the backend cannot make it durable.
func (m *Memory) commitOne(a Addr, v uint64) {
	if err := m.backend.Commit([]WordUpdate{{Addr: a, Val: v}}); err != nil {
		m.degrade(err)
	}
}
