package proc

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// awaitState is the system-side record of one process parked in an
// Await/AwaitFor loop. All fields except iters are immutable after
// registration; iters is updated by the owning goroutine and read
// atomically by report builders on other goroutines.
type awaitState struct {
	proc    int
	obj, op string
	line    int
	depth   int
	attempt int
	on      int // process id being awaited (0 = unknown)
	iters   atomic.Uint64
}

// AwaitInfo describes one process parked in an Await loop at the moment a
// StuckReport was taken.
type AwaitInfo struct {
	Proc    int
	Obj     string
	Op      string
	Line    int
	Depth   int
	Attempt int
	// On is the process id the await condition is waiting on (declared via
	// Ctx.AwaitFor), or 0 if unknown.
	On int
	// Iters is the number of completed await iterations.
	Iters uint64
}

// String renders the parked process, its await site, and (when
// declared) the process it is waiting on.
func (a AwaitInfo) String() string {
	s := fmt.Sprintf("p%d parked in %s.%s await@%d (depth %d, attempt %d, %d iters",
		a.Proc, a.Obj, a.Op, a.Line, a.Depth, a.Attempt, a.Iters)
	if a.On != 0 {
		s += fmt.Sprintf(", waiting on p%d", a.On)
	}
	return s + ")"
}

// ProcStatus summarises one process of the system for a StuckReport.
type ProcStatus struct {
	Proc    int
	Steps   uint64
	Crashes int
	Done    bool // the process program has returned
	Parked  bool // the process is inside an Await loop
}

// StuckReport is the structured diagnosis produced when a process exhausts
// its await budget: which processes are parked where, who they are waiting
// on, and whether progress looks possible. It replaces the blunt panic
// string for campaign runs (see Config.RecoverPanics and StuckError).
type StuckReport struct {
	// Proc, Line and Budget identify the await whose budget was exhausted.
	Proc   int
	Line   int
	Budget int
	// GlobalStep is the system-wide step count at report time
	// (System.GlobalSteps).
	GlobalStep uint64
	// Parked lists every process inside an Await loop (including Proc).
	Parked []AwaitInfo
	// Procs is the status of every process, in id order.
	Procs []ProcStatus
}

// Verdict classifies the stuckness: "livelock" when every parked process
// is waiting on a process that is itself parked or already done (nobody
// left to unblock them), "possibly slow" when some awaited process is
// still running, "unknown" when dependencies are undeclared.
func (r *StuckReport) Verdict() string {
	if len(r.Parked) == 0 {
		return "unknown (no process parked)"
	}
	status := make(map[int]ProcStatus, len(r.Procs))
	for _, ps := range r.Procs {
		status[ps.Proc] = ps
	}
	unknown := false
	for _, a := range r.Parked {
		if a.On == 0 {
			unknown = true
			continue
		}
		on := status[a.On]
		if !on.Done && !on.Parked {
			return fmt.Sprintf("possibly slow: p%d awaits p%d, which is still running", a.Proc, a.On)
		}
	}
	if unknown {
		return "unknown (await without a declared dependency; use Ctx.AwaitFor to name the awaited process)"
	}
	return "livelock: every parked process waits on a process that is itself parked or done"
}

// String renders the full report.
func (r *StuckReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stuck report (global step %d): p%d exhausted await budget (%d iterations) at line %d\n",
		r.GlobalStep, r.Proc, r.Budget, r.Line)
	for _, a := range r.Parked {
		fmt.Fprintf(&b, "  %s\n", a)
	}
	for _, ps := range r.Procs {
		state := "running"
		if ps.Done {
			state = "done"
		} else if ps.Parked {
			state = "parked"
		}
		fmt.Fprintf(&b, "  p%d: %s (%d steps, %d crashes)\n", ps.Proc, state, ps.Steps, ps.Crashes)
	}
	fmt.Fprintf(&b, "  verdict: %s", r.Verdict())
	return b.String()
}

// StuckError is the panic/error value carrying a StuckReport. Under
// Config.RecoverPanics the system converts it into an error retrievable
// via Err/Failures (use errors.As to get the report back); without
// RecoverPanics it propagates as a panic, as livelocks in ordinary tests
// should fail loudly.
type StuckError struct {
	Report StuckReport
}

// Error implements error. The first line matches the historical await
// budget panic message.
func (e *StuckError) Error() string {
	return fmt.Sprintf("proc: process %d exceeded await budget (%d iterations) at line %d; likely livelock\n%s",
		e.Report.Proc, e.Report.Budget, e.Report.Line, e.Report.String())
}

// park registers p as waiting inside an Await loop and returns the state
// record (for iteration counting) plus the previously registered state,
// which the caller must restore on exit.
func (s *System) park(p *Proc, line, on, attempt int) (st, prev *awaitState) {
	info := p.top().op.Info()
	st = &awaitState{
		proc:    p.id,
		obj:     info.Obj,
		op:      info.Op,
		line:    line,
		depth:   p.depth,
		attempt: attempt,
		on:      on,
	}
	s.parkMu.Lock()
	prev = s.parked[p.id]
	s.parked[p.id] = st
	s.parkMu.Unlock()
	return st, prev
}

// unpark restores the previous await registration of p (nil for none).
func (s *System) unpark(p *Proc, prev *awaitState) {
	s.parkMu.Lock()
	if prev == nil {
		delete(s.parked, p.id)
	} else {
		s.parked[p.id] = prev
	}
	s.parkMu.Unlock()
}

// Parked returns a snapshot of every process currently inside an Await
// loop, in process-id order.
func (s *System) Parked() []AwaitInfo {
	s.parkMu.Lock()
	out := make([]AwaitInfo, 0, len(s.parked))
	for _, st := range s.parked {
		out = append(out, AwaitInfo{
			Proc: st.proc, Obj: st.obj, Op: st.op, Line: st.line,
			Depth: st.depth, Attempt: st.attempt, On: st.on,
			Iters: st.iters.Load(),
		})
	}
	s.parkMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Proc < out[j].Proc })
	return out
}

// stuckReport assembles the full diagnosis for an exhausted await budget
// of process p at the given line.
func (s *System) stuckReport(p, line, budget int) StuckReport {
	r := StuckReport{
		Proc:       p,
		Line:       line,
		Budget:     budget,
		GlobalStep: s.GlobalSteps(),
		Parked:     s.Parked(),
	}
	parked := make(map[int]bool, len(r.Parked))
	for _, a := range r.Parked {
		parked[a.Proc] = true
	}
	for q := 1; q <= s.N(); q++ {
		pr := s.procs[q]
		r.Procs = append(r.Procs, ProcStatus{
			Proc:    q,
			Steps:   pr.Steps(),
			Crashes: pr.Crashes(),
			Done:    pr.done.Load(),
			Parked:  parked[q],
		})
	}
	return r
}
