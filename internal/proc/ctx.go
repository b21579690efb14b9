package proc

import (
	"runtime"

	"nrl/internal/flightrec"
	"nrl/internal/history"
	"nrl/internal/nvm"
	"nrl/internal/trace"
)

// Ctx is the execution context handed to operation implementations and
// process programs. Each process has exactly one Ctx; it must only be used
// from that process's goroutine.
type Ctx struct {
	p *Proc
}

// P returns the executing process's id (1-based).
func (c *Ctx) P() int { return c.p.id }

// N returns the number of processes in the system.
func (c *Ctx) N() int { return c.p.sys.N() }

// Mem returns the shared NVRAM. Operation code reads only its Mode: a
// direct access is a raw one (pid 0), counted but never traced.
func (c *Ctx) Mem() *nvm.Memory { return c.p.sys.mem }

// Step marks that the process is about to execute the given pseudo-code
// line of an operation's body: it yields to the scheduler, gives the
// crash injector a chance to crash the process here (a crash leaves LI at
// the previous line — the instruction has not begun), and then records
// the line into the current frame's non-volatile LI.
//
//nrl:hotpath per-line op primitive (ROADMAP item 1)
func (c *Ctx) Step(line int) {
	c.step(line, true)
}

// RecStep is Step for lines of a recovery function: it yields and may
// crash, but does NOT update LI. The model's LI_p identifies the
// instruction of the interrupted operation's body; recovery code must
// preserve it so that a crash during recovery leaves the next recovery
// attempt with the same information (only re-executed body lines, entered
// through Step, advance LI again).
//
//nrl:hotpath per-line op primitive (ROADMAP item 1)
func (c *Ctx) RecStep(line int) {
	c.step(line, false)
}

func (c *Ctx) step(line int, updateLI bool) {
	p := c.p
	ps := p.steps.Add(1)
	p.sys.sched.Yield(p.id)
	fr := p.top()
	info := fr.op.Info()
	pt := CrashPoint{
		Proc:     p.id,
		Obj:      info.Obj,
		Op:       info.Op,
		Line:     line,
		ProcStep: ps,
		Crashes:  int(p.crashes.Load()),
		Depth:    p.depth,
		Attempt:  fr.attempts,
		Recovery: !updateLI,
		Awaiting: p.awaiting,
	}
	if p.sys.inj.ShouldCrash(pt) {
		panic(crashSignal{proc: p.id})
	}
	if updateLI {
		fr.li = line
		// LI_p checkpoints are deep-mode-only: the frecDeep guard keeps
		// the shallow hot path at one predictable branch per step.
		if p.sys.frecDeep {
			p.recordFR(flightrec.KindCheckpoint, fr, 0)
		}
	}
}

// LI returns the current frame's last-instruction register: the line of
// the pseudo-code instruction most recently begun before the crash (0 if
// none).
func (c *Ctx) LI() int { return c.p.top().li }

// Arg returns the i-th argument of the current operation. Arguments are
// part of the system-maintained frame — stored inline in the process's
// arena, bounded by MaxOpArgs — and survive crashes, matching the
// paper's assumption that a recovery function receives the same
// arguments as the interrupted invocation.
func (c *Ctx) Arg(i int) uint64 { return c.p.top().args[i] }

// NArgs returns the number of arguments of the current operation.
func (c *Ctx) NArgs() int { return c.p.top().nargs }

// ChildResp returns the response of a nested operation that was completed
// by its recovery function immediately before the current frame's recovery
// function was invoked. The value models a response freshly written to a
// volatile register: ok is false if no such response exists (in
// particular, after any subsequent crash).
func (c *Ctx) ChildResp() (resp uint64, ok bool) {
	fr := c.p.top()
	return fr.child, fr.childValid
}

// Invoke executes operation op with the given arguments. At the top level
// (no pending operation) it additionally plays the system's role,
// resurrecting the process through the operation's recovery function after
// every crash, and so always returns the operation's final response.
// Nested invocations run inline and propagate crashes to the top level.
//
// The arguments are snapshotted into the invocation's arena frame (they
// are system state and survive crashes), so the variadic slice never
// escapes and an uncontended invocation allocates nothing. Invocations
// beyond the arena's bounds — more than MaxOpArgs arguments, nesting
// deeper than MaxNestingDepth — fail with the typed *ArityError /
// *DepthError values: Invoke has no error result, so it panics with the
// typed value (Config.RecoverPanics converts the panic into an error on
// which errors.As recovers it); TryInvoke returns the same errors
// without panicking.
//
//nrl:hotpath per-line op primitive (ROADMAP item 1)
func (c *Ctx) Invoke(op Operation, args ...uint64) uint64 {
	p := c.p
	// The invocation itself is a scheduling point: under the controlled
	// scheduler this makes the order of invocation steps part of the
	// deterministic schedule rather than a goroutine startup race.
	p.sys.sched.Yield(p.id)
	if p.depth == 0 {
		return p.call(op, args)
	}
	fr := p.push(op, args)
	p.record(history.Inv, fr, fr.argSlice(), 0)
	p.emitOp(trace.Invoke, fr, fr.argSlice(), 0)
	p.recordFR(flightrec.KindBegin, fr, fr.firstArg())
	ret := op.Exec(c, op.Info().Entry)
	p.record(history.Res, fr, nil, ret)
	p.emitOp(trace.Response, fr, nil, ret)
	p.recordFR(flightrec.KindEnd, fr, ret)
	p.pop()
	return ret
}

// TryInvoke is Invoke with the arena's limit checks surfaced as a
// returned error instead of a typed panic: an invocation with more than
// MaxOpArgs arguments returns a *ArityError, one that would nest deeper
// than MaxNestingDepth a *DepthError, and the operation is not started
// in either case. A nil error means the operation ran to completion and
// ret is its response, exactly as Invoke would have returned it.
func (c *Ctx) TryInvoke(op Operation, args ...uint64) (ret uint64, err error) {
	if len(args) > MaxOpArgs {
		info := op.Info()
		return 0, &ArityError{Obj: info.Obj, Op: info.Op, Got: len(args), Max: MaxOpArgs}
	}
	if c.p.depth >= MaxNestingDepth {
		info := op.Info()
		return 0, &DepthError{Obj: info.Obj, Op: info.Op, Depth: c.p.depth + 1, Max: MaxNestingDepth}
	}
	return c.Invoke(op, args...), nil
}

// Await repeatedly executes RecStep(line) and evaluates cond until it
// holds, yielding the processor between iterations. It implements the
// paper's await(...) busy-wait construct (which appears only in recovery
// code, hence the LI-preserving step). If the system's await budget is
// exceeded, Await panics with a *StuckError carrying a full StuckReport:
// a blocked recovery that nobody can unblock is a livelock, and tests
// should fail loudly rather than hang. Under Config.RecoverPanics the
// panic is converted into an error (errors.As recovers the report).
func (c *Ctx) Await(line int, cond func() bool) {
	c.awaitFor(line, 0, cond)
}

// AwaitFor is Await with a declared dependency: on names the process whose
// step the condition is waiting on, so that a StuckReport can tell a
// genuine livelock ("everyone I wait on is parked or done") from a run
// that is merely slow. Pass 0 when the dependency is unknown.
func (c *Ctx) AwaitFor(line, on int, cond func() bool) {
	c.awaitFor(line, on, cond)
}

func (c *Ctx) awaitFor(line, on int, cond func() bool) {
	p := c.p
	budget := p.sys.awaitBudget
	st, prev := p.sys.park(p, line, on, p.top().attempts)
	defer p.sys.unpark(p, prev)
	wasAwaiting := p.awaiting
	p.awaiting = true
	defer func() { p.awaiting = wasAwaiting }()
	for i := 0; ; i++ {
		c.RecStep(line)
		if cond() {
			return
		}
		st.iters.Store(uint64(i + 1))
		if budget > 0 && i >= budget {
			panic(&StuckError{Report: p.sys.stuckReport(p.id, line, budget)})
		}
		runtime.Gosched()
	}
}

// Read is shorthand for Mem().Read issued by this process: it counts in
// the process's stats stripe and, in a traced system, is emitted as an
// event attributed to the inner-most pending operation (see emitMem).
// Operation code reaches NVRAM only through these Ctx primitives, so a
// trace holds every primitive an operation issues.
//
//nrl:hotpath per-line op primitive (ROADMAP item 1)
func (c *Ctx) Read(a nvm.Addr) uint64 {
	v := c.p.sys.mem.ReadAt(a, c.p.id)
	if c.p.sys.tracer != nil {
		c.p.emitMem(trace.MemRead, a, v)
	}
	return v
}

// Write is shorthand for Mem().Write issued by this process; see Read.
//
//nrl:hotpath per-line op primitive (ROADMAP item 1)
func (c *Ctx) Write(a nvm.Addr, v uint64) {
	c.p.sys.mem.WriteAt(a, v, c.p.id)
	if c.p.sys.tracer != nil {
		c.p.emitMem(trace.MemWrite, a, v)
	}
}

// CAS is shorthand for Mem().CAS issued by this process; see Read. The
// event's Ret is 1 for a successful swap and 0 for a failed one.
//
//nrl:hotpath per-line op primitive (ROADMAP item 1)
func (c *Ctx) CAS(a nvm.Addr, old, new uint64) bool {
	ok := c.p.sys.mem.CASAt(a, old, new, c.p.id)
	if c.p.sys.tracer != nil {
		var ret uint64
		if ok {
			ret = 1
		}
		c.p.emitMem(trace.MemCAS, a, ret)
	}
	return ok
}

// TAS is shorthand for Mem().TAS issued by this process; see Read.
//
//nrl:hotpath per-line op primitive (ROADMAP item 1)
func (c *Ctx) TAS(a nvm.Addr) uint64 {
	prev := c.p.sys.mem.TASAt(a, c.p.id)
	if c.p.sys.tracer != nil {
		c.p.emitMem(trace.MemTAS, a, prev)
	}
	return prev
}

// FAA is shorthand for Mem().FAA issued by this process; see Read.
//
//nrl:hotpath per-line op primitive (ROADMAP item 1)
func (c *Ctx) FAA(a nvm.Addr, delta uint64) uint64 {
	prev := c.p.sys.mem.FAAAt(a, delta, c.p.id)
	if c.p.sys.tracer != nil {
		c.p.emitMem(trace.MemFAA, a, prev)
	}
	return prev
}

// Flush is shorthand for Mem().Flush issued by this process: the
// capture joins the process's own flush set; see Read.
//
//nrl:hotpath per-line op primitive (ROADMAP item 1)
func (c *Ctx) Flush(a nvm.Addr) {
	c.p.sys.mem.FlushAt(a, c.p.id) //nrl:ignore delegation shorthand: the fence is the calling operation's line, not this wrapper's
	if c.p.sys.tracer != nil {
		c.p.emitMem(trace.MemFlush, a, 0)
	}
}

// Fence is shorthand for Mem().Fence issued by this process: it drains
// the process's own flush set; see Read.
//
//nrl:hotpath per-line op primitive (ROADMAP item 1)
func (c *Ctx) Fence() {
	c.p.sys.mem.FenceAt(c.p.id)
	if c.p.sys.tracer != nil {
		c.p.emitMem(trace.MemFence, nvm.InvalidAddr, 0)
	}
}

// Persist is Flush followed by Fence: the word's current value is
// durable when it returns.
//
//nrl:hotpath per-line op primitive (ROADMAP item 1)
func (c *Ctx) Persist(a nvm.Addr) {
	c.Flush(a)
	c.Fence()
}

// emitMem sends the trace event of one memory primitive the process
// issued, after the primitive returned. The event belongs to the
// inner-most pending operation; at depth 0 it is attributed to the root
// of the target word's allocation name instead. A fence has no address
// (a is nvm.InvalidAddr); a flush carries the word's name. A mutation a
// degraded memory rejected was not counted in its stats, and is not
// traced either.
func (p *Proc) emitMem(k trace.Kind, a nvm.Addr, ret uint64) {
	mem := p.sys.mem
	if k != trace.MemRead && mem.Err() != nil {
		return
	}
	e := trace.Event{Kind: k, P: p.id, Depth: p.depth, Addr: int32(a), Ret: ret}
	if p.depth > 0 {
		info := p.top().op.Info()
		e.Obj, e.Op = info.Obj, info.Op
	}
	if a != nvm.InvalidAddr {
		name := mem.Name(a)
		if e.Obj == "" {
			e.Obj = trace.Root(name)
		}
		if k == trace.MemFlush {
			e.Name = name
		}
	}
	p.sys.tracer.Emit(e)
}
