package proc

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

// CrashPoint describes the point at which a crash may be injected: process
// p is about to execute the given line of the given operation. Every
// field is the process's own state: a step reads no counter another
// process writes, so the system-wide step count is not among them (see
// System.GlobalSteps).
type CrashPoint struct {
	Proc     int
	Obj      string
	Op       string
	Line     int
	ProcStep uint64 // number of steps p has taken (1-based, this one included)
	Crashes  int    // crashes p has suffered so far
	Depth    int    // nesting depth (1 = top-level operation)
	Attempt  int    // recovery attempts of the current frame so far
	Recovery bool   // the line belongs to recovery code (entered via RecStep)
	Awaiting bool   // the process is inside an Await/AwaitFor loop
}

// Injector decides whether a process crashes at a given point. Injectors
// must be safe for concurrent use (the free scheduler runs processes in
// parallel).
type Injector interface {
	ShouldCrash(pt CrashPoint) bool
}

// Never is an Injector that never crashes anything.
type Never struct{}

// ShouldCrash always reports false.
func (Never) ShouldCrash(CrashPoint) bool { return false }

// Func adapts a function to the Injector interface.
type Func func(pt CrashPoint) bool

// ShouldCrash calls f.
func (f Func) ShouldCrash(pt CrashPoint) bool { return f(pt) }

// AtLine crashes process Proc the Occurrence-th time (1-based) it is about
// to execute Line of operation Op on object Obj, and never again. A zero
// Occurrence means 1. Empty Obj/Op or zero Proc match anything.
type AtLine struct {
	Proc       int
	Obj        string
	Op         string
	Line       int
	Occurrence int

	hits  atomic.Int64
	fired atomic.Bool
}

// ShouldCrash implements Injector.
func (a *AtLine) ShouldCrash(pt CrashPoint) bool {
	if a.fired.Load() {
		return false
	}
	if a.Proc != 0 && pt.Proc != a.Proc {
		return false
	}
	if a.Obj != "" && pt.Obj != a.Obj {
		return false
	}
	if a.Op != "" && pt.Op != a.Op {
		return false
	}
	if pt.Line != a.Line {
		return false
	}
	occ := a.Occurrence
	if occ == 0 {
		occ = 1
	}
	if a.hits.Add(1) != int64(occ) {
		return false
	}
	a.fired.Store(true)
	return true
}

// Fired reports whether the injector has crashed its target.
func (a *AtLine) Fired() bool { return a.fired.Load() }

// AtStep crashes process Proc when its per-process step counter reaches
// Step, once.
type AtStep struct {
	Proc int
	Step uint64

	fired atomic.Bool
}

// ShouldCrash implements Injector.
func (a *AtStep) ShouldCrash(pt CrashPoint) bool {
	if a.fired.Load() || pt.Proc != a.Proc || pt.ProcStep != a.Step {
		return false
	}
	a.fired.Store(true)
	return true
}

// Random crashes each step independently with probability Rate, driven by
// a seeded generator, stopping after MaxCrashes total crashes (0 means
// unlimited — use with care: unbounded crashes can livelock recovery).
//
// Reproducibility contract: the generator is consulted under a mutex, one
// draw per offered crash point, so the decision sequence is a pure
// function of the order in which crash points arrive. Under the
// controlled scheduler that order is deterministic and so is the
// injector. Under the free scheduler the arrival order races, so a single
// shared Random is NOT reproducible across runs; for reproducible
// campaigns derive one injector per process from a single seed (set Proc,
// seed each via NewRandom with SplitSeed) so every decision stream
// depends only on its own process's step sequence.
type Random struct {
	Rate       float64
	Seed       int64
	MaxCrashes int
	// Proc, when non-zero, restricts the injector to that process: points
	// of other processes are ignored without consuming a random draw.
	Proc int

	once    sync.Once
	mu      sync.Mutex
	rng     *rand.Rand
	crashes int
}

// NewRandom returns a Random injector drawing from src instead of the
// default Seed-derived generator, so campaigns can derive independent
// per-process streams from one master seed (see SplitSeed). maxCrashes
// bounds the total crashes (0 = unlimited).
func NewRandom(rate float64, maxCrashes int, src rand.Source) *Random {
	r := &Random{Rate: rate, MaxCrashes: maxCrashes}
	r.once.Do(func() { r.rng = rand.New(src) })
	return r
}

// SplitSeed derives a stream seed from one master seed and a stream index
// (e.g. a process id), using a splitmix64 finalization so that nearby
// inputs yield uncorrelated outputs.
func SplitSeed(seed int64, stream int) int64 {
	z := uint64(seed) + uint64(stream)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// ShouldCrash implements Injector.
func (r *Random) ShouldCrash(pt CrashPoint) bool {
	if r.Proc != 0 && pt.Proc != r.Proc {
		return false
	}
	r.once.Do(func() { r.rng = rand.New(rand.NewSource(r.Seed)) })
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.MaxCrashes > 0 && r.crashes >= r.MaxCrashes {
		return false
	}
	if r.rng.Float64() >= r.Rate {
		return false
	}
	r.crashes++
	return true
}

// Crashes reports how many crashes the injector has produced.
func (r *Random) Crashes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.crashes
}

// Multi combines injectors: a process crashes if any member says so.
// Members are consulted in order; consultation stops at the first yes, so
// stateful members later in the list do not observe points swallowed by
// earlier members.
type Multi []Injector

// ShouldCrash implements Injector.
func (m Multi) ShouldCrash(pt CrashPoint) bool {
	for _, in := range m {
		if in.ShouldCrash(pt) {
			return true
		}
	}
	return false
}
