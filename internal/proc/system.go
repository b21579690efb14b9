package proc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nrl/internal/flightrec"
	"nrl/internal/history"
	"nrl/internal/nvm"
	"nrl/internal/trace"
)

// Config configures a System.
type Config struct {
	// Procs is the number of processes, identified 1..Procs.
	Procs int
	// Mem is the shared NVRAM. If nil, a fresh ADR memory is created.
	Mem *nvm.Memory
	// Recorder, if non-nil, receives every history step.
	Recorder *history.Recorder
	// Tracer, if non-nil, receives a structured trace event for every
	// operation lifecycle transition (invoke/response/crash/recover/
	// recover-done) and for every NVRAM primitive issued through a Ctx,
	// attributed to the issuing process and its inner-most pending
	// operation. Accesses made on Mem directly are counted in
	// nvm.Memory.Stats only. nil skips event construction entirely; see
	// internal/trace for the sinks.
	Tracer trace.Tracer
	// FlightRec, if non-nil, receives a crash-surviving flight-recorder
	// record for every operation lifecycle transition (begin/end at top
	// level, crash, recovery entry/exit at any depth; nested begin/end
	// and per-step LI checkpoints too when the recorder runs in deep
	// mode) and — installed into Mem via nvm.Memory.SetRecorder — one
	// fence marker per drained fence. Unlike Tracer, whose events die
	// with the process, these records ride the durable store's commit
	// fences when the recorder is also installed as persist.BlackBox.
	FlightRec *flightrec.Recorder
	// Injector decides crash points (default: Never).
	Injector Injector
	// Scheduler controls interleaving (default: Free).
	Scheduler Scheduler
	// AwaitBudget bounds the iterations of any single Ctx.Await loop; when
	// exceeded the run panics with a diagnostic, turning livelocks into
	// test failures. 0 applies DefaultAwaitBudget; negative means
	// unlimited.
	AwaitBudget int
	// RecoverPanics, when set, converts non-crash panics in process
	// programs (await-budget exhaustion, algorithm bugs) into errors
	// reported by Run/Err instead of crashing the whole test binary. The
	// model checker in package explore uses this to turn livelocked
	// branches into diagnostics. Leave false in ordinary tests so bugs
	// fail loudly.
	RecoverPanics bool
}

// DefaultAwaitBudget is the Await iteration bound applied when
// Config.AwaitBudget is zero.
const DefaultAwaitBudget = 5_000_000

// System holds N processes sharing an NVRAM, a crash injector, a scheduler
// and a history recorder. It plays the role of "the system" in the paper's
// model: it resurrects crashed processes by invoking recovery functions.
type System struct {
	mem           *nvm.Memory
	rec           *history.Recorder
	tracer        trace.Tracer
	frec          *flightrec.Recorder
	frecDeep      bool // cached FlightRec.DeepMode(): gates per-step checkpoints
	inj           Injector
	sched         Scheduler
	procs         []*Proc
	awaitBudget   int
	recoverPanics bool
	wg            sync.WaitGroup

	failMu   sync.Mutex
	failures []error

	parkMu sync.Mutex
	parked map[int]*awaitState // processes inside an Await loop, by id
}

// NewSystem creates a system with cfg.Procs processes.
func NewSystem(cfg Config) *System {
	if cfg.Procs <= 0 {
		panic("proc: Config.Procs must be positive")
	}
	mem := cfg.Mem
	if mem == nil {
		mem = nvm.New()
	}
	inj := cfg.Injector
	if inj == nil {
		inj = Never{}
	}
	sched := cfg.Scheduler
	if sched == nil {
		sched = Free{}
	}
	budget := cfg.AwaitBudget
	if budget == 0 {
		budget = DefaultAwaitBudget
	}
	if cfg.FlightRec != nil {
		mem.SetRecorder(cfg.FlightRec)
	}
	s := &System{
		mem:           mem,
		rec:           cfg.Recorder,
		tracer:        cfg.Tracer,
		frec:          cfg.FlightRec,
		frecDeep:      cfg.FlightRec != nil && cfg.FlightRec.DeepMode(),
		inj:           inj,
		sched:         sched,
		awaitBudget:   budget,
		recoverPanics: cfg.RecoverPanics,
		parked:        make(map[int]*awaitState),
	}
	s.procs = make([]*Proc, cfg.Procs+1)
	for p := 1; p <= cfg.Procs; p++ {
		pr := &Proc{id: p, sys: s}
		pr.ctx = &Ctx{p: pr}
		s.procs[p] = pr
	}
	return s
}

// N returns the number of processes.
func (s *System) N() int { return len(s.procs) - 1 }

// Mem returns the shared NVRAM.
func (s *System) Mem() *nvm.Memory { return s.mem }

// Proc returns process p (1-based).
func (s *System) Proc(p int) *Proc { return s.procs[p] }

// GlobalSteps reports the total number of steps taken system-wide: the
// sum of the per-process counters, read when asked. No step writes a
// shared counter, so under the free scheduler the sum is a moment's
// reading of a moving total; under the controlled scheduler, where one
// process runs between yields, it is exact.
func (s *System) GlobalSteps() uint64 {
	var n uint64
	for _, p := range s.procs[1:] {
		n += p.steps.Load()
	}
	return n
}

// History returns the history recorded so far (empty if no recorder).
func (s *System) History() history.History {
	if s.rec == nil {
		return history.History{}
	}
	return s.rec.History()
}

// Go launches body as the program of process p. Use Wait to join. Go is
// for the free scheduler; with a controlled scheduler use Run, which
// announces the participant set before starting anyone.
func (s *System) Go(p int, body func(*Ctx)) {
	pr := s.procs[p]
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer pr.done.Store(true)
		s.sched.Start(p)
		defer s.sched.Done(p)
		if s.recoverPanics {
			defer func() {
				if r := recover(); r != nil {
					var err error
					switch e := r.(type) {
					case *StuckError:
						// Keep the structured report reachable via
						// errors.As on Err/Failures.
						err = fmt.Errorf("process %d stuck: %w", p, e)
					case *ArityError, *DepthError:
						// The arena's typed limit errors (arena.go) stay
						// reachable via errors.As too.
						err = fmt.Errorf("process %d exceeded an arena bound: %w", p, e.(error))
					default:
						err = fmt.Errorf("process %d panicked: %v", p, r)
					}
					s.failMu.Lock()
					s.failures = append(s.failures, err)
					s.failMu.Unlock()
				}
			}()
		}
		body(pr.ctx)
	}()
}

// Wait blocks until all launched process programs finish.
func (s *System) Wait() { s.wg.Wait() }

// Err returns the first process-program failure captured under
// Config.RecoverPanics, or nil.
func (s *System) Err() error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	if len(s.failures) == 0 {
		return nil
	}
	return s.failures[0]
}

// Failures returns every process-program failure captured under
// Config.RecoverPanics, in the order they occurred. Campaign runners use
// this to distinguish an all-stuck run (every failure is a *StuckError)
// from a genuine algorithm panic.
func (s *System) Failures() []error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	out := make([]error, len(s.failures))
	copy(out, s.failures)
	return out
}

// Run executes the given process programs (keyed by process id) to
// completion. It announces the participant set to the scheduler first, as
// the controlled scheduler requires. Under Config.RecoverPanics it
// returns the first captured process failure.
func (s *System) Run(bodies map[int]func(*Ctx)) error {
	ids := make([]int, 0, len(bodies))
	for p := range bodies {
		ids = append(ids, p)
	}
	s.sched.Begin(ids)
	for p, body := range bodies {
		s.Go(p, body)
	}
	s.Wait()
	return s.Err()
}

// crashSignal is the panic value used to model a crash of one process.
type crashSignal struct{ proc int }

// Proc is one process of the system.
type Proc struct {
	id  int
	sys *System
	ctx *Ctx

	// frames is the process's frame arena (see arena.go): the fixed
	// backing store of its operation stack, sized by the nesting-depth
	// bound MaxNestingDepth. frames[:depth] are the pending operations,
	// outermost first; depth is the stack pointer. Both are touched only
	// by the process's own goroutine. A crash leaves the occupied prefix
	// in place — recovery re-enters the very frames LI_p was recorded
	// into — and a completed operation merely decrements depth, so the
	// uncontended op lifecycle performs no heap allocation at all.
	frames [MaxNestingDepth]frame
	depth  int
	// steps and crashes are atomics only so that StuckReport builders and
	// System.GlobalSteps can read them from other goroutines; all writes
	// happen on the process's own goroutine.
	steps   atomic.Uint64
	crashes atomic.Int32
	done    atomic.Bool
	// awaiting is only touched by the process's own goroutine; it flags
	// steps taken inside an Await loop for CrashPoint.Awaiting.
	awaiting bool

	// frefObj/frefOp/frefCache are a one-entry flight-recorder Ref cache
	// (own-goroutine only): a process typically invokes the same operation
	// in a loop, and Refs are stable, so push usually skips the interning
	// tables entirely. The string compares hit the pointer-equality fast
	// path when the names come from the same OpInfo.
	frefObj   string
	frefOp    string
	frefCache flightrec.Ref
}

// ID returns the process id (1-based).
func (p *Proc) ID() int { return p.id }

// Steps reports how many steps the process has taken.
func (p *Proc) Steps() uint64 { return p.steps.Load() }

// Crashes reports how many crashes the process has suffered.
func (p *Proc) Crashes() int { return int(p.crashes.Load()) }

// Ctx returns the process's context (useful for single-threaded tests that
// do not go through Go/Run).
func (p *Proc) Ctx() *Ctx { return p.ctx }

func (p *Proc) top() *frame { return &p.frames[p.depth-1] }

// push claims the next arena frame for an invocation of op, resetting
// it and snapshotting args into its inline array. The bounds are the
// arena's two documented limits: more than MaxOpArgs arguments raises a
// typed *ArityError, nesting past MaxNestingDepth a typed *DepthError
// (both delivered by panic here — Ctx.Invoke cannot return an error —
// and converted to plain errors under Config.RecoverPanics; callers
// wanting the error without the panic use Ctx.TryInvoke).
func (p *Proc) push(op Operation, args []uint64) *frame {
	if len(args) > MaxOpArgs {
		info := op.Info()
		panic(&ArityError{Obj: info.Obj, Op: info.Op, Got: len(args), Max: MaxOpArgs})
	}
	if p.depth >= MaxNestingDepth {
		info := op.Info()
		panic(&DepthError{Obj: info.Obj, Op: info.Op, Depth: p.depth + 1, Max: MaxNestingDepth})
	}
	fr := &p.frames[p.depth]
	p.depth++
	var opID int64
	if p.sys.rec != nil {
		opID = p.sys.rec.NewOpID()
	}
	*fr = frame{op: op, opID: opID}
	fr.nargs = copy(fr.args[:], args)
	return fr
}

func (p *Proc) pop() {
	p.depth--
}

func (p *Proc) record(k history.Kind, fr *frame, args []uint64, ret uint64) {
	if p.sys.rec == nil {
		return
	}
	info := fr.op.Info()
	p.sys.rec.Append(history.Step{
		Kind: k, Proc: p.id, Obj: info.Obj, Op: info.Op,
		Args: args, Ret: ret, OpID: fr.opID,
	})
}

// emitOp sends one operation-lifecycle trace event for fr. The event
// snapshots the frame's LI, recovery-attempt count and nesting depth, and
// the process's step counter and the system-wide sum, at the moment of
// emission.
func (p *Proc) emitOp(k trace.Kind, fr *frame, args []uint64, ret uint64) {
	t := p.sys.tracer
	if t == nil {
		return
	}
	info := fr.op.Info()
	t.Emit(trace.Event{
		Kind: k, P: p.id, Obj: info.Obj, Op: info.Op,
		Depth: p.depth, Line: fr.li, Attempt: fr.attempts,
		PStep: p.steps.Load(), GStep: p.sys.GlobalSteps(),
		Addr: int32(nvm.InvalidAddr), Args: args, Ret: ret,
	})
}

// recordFR writes one flight-recorder record for fr. Unlike emitOp's
// trace events, these survive the process: the recorder's ring rides
// the durable backend's commit fences. The first operation argument
// (begin) or the response (end/recover-exit) travels in Val — it is
// what lets the kill harness line surviving records up against
// recovered state. The gstep field carries the process's own step
// count, so the always-on recorder reads no other process's counter.
func (p *Proc) recordFR(kind flightrec.Kind, fr *frame, val uint64) {
	r := p.sys.frec
	if r == nil {
		return
	}
	// Apply the recorder's shallow-mode drop before resolving the
	// attribution: a record that will be dropped anyway should not pay
	// (or trigger) name interning.
	if !r.Keeps(kind, p.depth) {
		return
	}
	if !fr.frefOK {
		info := fr.op.Info()
		if info.Obj != p.frefObj || info.Op != p.frefOp {
			p.frefCache = r.Ref(info.Obj, info.Op)
			p.frefObj, p.frefOp = info.Obj, info.Op
		}
		fr.fref, fr.frefOK = p.frefCache, true
	}
	r.RecordOp(kind, p.id, p.depth, fr.fref,
		fr.li, fr.attempts, val, p.steps.Load())
}

// call runs a top-level operation to completion, surviving any number of
// crashes. It is the system's resurrection loop. The loop is closure-free
// by construction: each attempt is a plain method call whose crash
// handling is a deferred method (catchCrash), so the hot path — one
// uncrashed attempt — performs no heap allocation.
//
//nrl:hotpath every recoverable operation runs through here (ROADMAP item 1)
func (p *Proc) call(op Operation, args []uint64) uint64 {
	fr := p.push(op, args)
	p.record(history.Inv, fr, fr.argSlice(), 0)
	p.emitOp(trace.Invoke, fr, fr.argSlice(), 0)
	p.recordFR(flightrec.KindBegin, fr, fr.firstArg())
	ret, ok := p.attempt(true)
	for !ok {
		ret, ok = p.attempt(false)
	}
	return ret
}

// attempt runs one execution attempt of the process's top-level
// operation — the fresh body on the first attempt, the recovery cascade
// (resume) after a crash — converting a crash panic of this process into
// ok=false. The interrupted frames stay resident in the arena, so the
// next attempt re-enters exactly the state LI_p witnessed.
//
//nrl:hotpath every recoverable operation runs through here (ROADMAP item 1)
func (p *Proc) attempt(fresh bool) (ret uint64, ok bool) {
	defer p.catchCrash(&ok)
	if fresh {
		return p.execTop(), true
	}
	return p.resume(), true
}

// execTop executes the top frame's body from its entry line and retires
// the frame (the response records, then the pop).
//
//nrl:hotpath every recoverable operation runs through here (ROADMAP item 1)
func (p *Proc) execTop() uint64 {
	fr := p.top()
	r := fr.op.Exec(p.ctx, fr.op.Info().Entry)
	p.record(history.Res, fr, nil, r)
	p.emitOp(trace.Response, fr, nil, r)
	p.recordFR(flightrec.KindEnd, fr, r)
	p.pop()
	return r
}

// catchCrash is the deferred crash handler of attempt: a crash panic of
// this process marks the attempt failed (ok=false) after recording the
// crash; any other panic propagates. It is a method rather than a
// deferred closure so the recovery machinery itself stays off the heap.
func (p *Proc) catchCrash(ok *bool) {
	if r := recover(); r != nil {
		cs, isCrash := r.(crashSignal)
		if !isCrash || cs.proc != p.id {
			panic(r)
		}
		p.onCrash()
		*ok = false
	}
}

// onCrash records the crash step and discards volatile state. The crashed
// operation is the inner-most pending one (the top frame).
func (p *Proc) onCrash() {
	p.crashes.Add(1)
	p.record(history.Crash, p.top(), nil, 0)
	p.emitOp(trace.Crash, p.top(), nil, 0)
	p.recordFR(flightrec.KindCrash, p.top(), 0)
	for i := 0; i < p.depth; i++ {
		p.frames[i].childValid = false
	}
}

// resume is the recover step: the system invokes the recovery function of
// the inner-most pending operation. As each frame completes, its response
// is delivered (volatilely) to the parent frame and the parent's recovery
// function runs, continuing outward until the whole stack unwinds. A crash
// during recovery panics out to the caller's attempt loop.
//
// This is the single place the paper's recovery-function contract is
// discharged, so all of it is stated here:
//
//   - Same arguments: the frame's args survive the crash (they are
//     system state, not process state), and Exec re-enters with them —
//     Ctx.Arg reads the identical values the interrupted invocation got.
//   - LI_p: the frame's li register names the last *body* instruction
//     begun (Ctx.Step updates it after the crash check; Ctx.RecStep
//     never touches it), so a recovery entered at RecoverEntry can test
//     LI exactly as Algorithm 4's "LI_p < 4" does, across repeated
//     crashes during recovery.
//   - Inner-most first: recovery starts at the top frame and cascades
//     outward; each completed child's response reaches its parent only
//     through the volatile child register (Ctx.ChildResp), which any
//     further crash invalidates — the paper's motivation for strict
//     operations.
//
// ALGORITHMS.md ("Recovery semantics") maps each clause back to the
// paper's model section.
//
//nrl:hotpath every recoverable operation runs through here (ROADMAP item 1)
func (p *Proc) resume() uint64 {
	p.record(history.Rec, p.top(), nil, 0)
	var ret uint64
	for {
		fr := p.top()
		fr.attempts++
		p.emitOp(trace.Recover, fr, nil, 0)
		p.recordFR(flightrec.KindRecoverEnter, fr, 0)
		ret = fr.op.Exec(p.ctx, fr.op.Info().RecoverEntry)
		p.record(history.Res, fr, nil, ret)
		p.emitOp(trace.RecoverDone, fr, nil, ret)
		p.recordFR(flightrec.KindRecoverExit, fr, ret)
		p.pop()
		if p.depth == 0 {
			return ret
		}
		parent := p.top()
		parent.child, parent.childValid = ret, true
	}
}
