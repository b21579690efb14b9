// Package rme implements recoverable mutual exclusion — the problem
// (Golab & Ramaraju) whose individual-process crash-recovery model
// inspired the paper's — as a modular construction over the repository's
// nesting-safe recoverable base objects, demonstrating the paper's thesis
// one level up: because the strict recoverable fetch-and-add never loses
// a response, the lock never loses a ticket, and mutual exclusion plus
// starvation-freedom survive any number of crashes inside Acquire and
// Release.
//
// The lock is a ticket lock:
//
//   - Next is a recoverable fetch-and-add object; Acquire draws a ticket
//     with the strict variant (Definition 1), so the drawn ticket is
//     always recoverable — a lost ticket would deadlock the queue, which
//     is exactly the failure mode the paper's strictness machinery rules
//     out.
//   - Serving is a plain NVRAM word advanced only by the lock holder.
//
// A process that crashes inside Acquire resumes waiting for its ticket
// (or re-draws one if the ticket provably was not issued); a process that
// crashes inside Release re-executes the idempotent hand-off. Crashes in
// the critical section itself are the client's concern, as in the RME
// literature: the recovery function of the client's enclosing operation
// re-enters the critical section still holding the lock (Serving still
// equals its ticket) and must release it.
package rme

import (
	"fmt"

	"nrl/internal/nvm"
	"nrl/internal/objects"
	"nrl/internal/proc"
)

// Lock is a recoverable ticket lock.
type Lock struct {
	name    string
	next    *objects.FAA
	serving nvm.Addr
	ticket  []nvm.Addr // MyTicket_p
	have    []nvm.Addr // HaveTicket_p

	acquire *acquireOp
	release *releaseOp
}

// NewLock allocates a recoverable ticket lock.
func NewLock(sys *proc.System, name string) *Lock {
	mem := sys.Mem()
	n := sys.N()
	l := &Lock{
		name:    name,
		next:    objects.NewFAA(sys, name+".next"),
		serving: mem.Alloc(name+".Serving", 0),
		ticket:  mem.AllocArray(name+".MyTicket", n+1, 0),
		have:    mem.AllocArray(name+".HaveTicket", n+1, 0),
	}
	l.acquire = &acquireOp{lock: l}
	l.release = &releaseOp{lock: l}
	return l
}

// Name returns the lock's name.
func (l *Lock) Name() string { return l.name }

// Acquire blocks until the caller holds the lock and returns the caller's
// ticket number (0-based, FIFO).
func (l *Lock) Acquire(c *proc.Ctx) uint64 {
	return c.Invoke(l.acquire)
}

// Release hands the lock to the next ticket. It must be called by the
// current holder.
func (l *Lock) Release(c *proc.Ctx) {
	c.Invoke(l.release)
}

// Holding reports whether process p currently holds the lock (its drawn
// ticket is being served). It reads NVRAM only and is safe to call from
// recovery code.
func (l *Lock) Holding(mem *nvm.Memory, p int) bool {
	return mem.Read(l.have[p]) == 1 && mem.Read(l.serving) == mem.Read(l.ticket[p])
}

// InnerNames returns the nested objects' names for checker wiring: the
// ticket dispenser FAA and its CAS object.
func (l *Lock) InnerNames() (nextFAA, nextCAS string) {
	return l.next.Name(), l.next.CASName()
}

// acquireOp is ACQUIRE, program for process p:
//
//	 1: HaveTicket_p <- 0
//	 2: t <- Next.STRICTFAA(1)          (nested, strict: the ticket is
//	                                     persisted before STRICTFAA returns)
//	 3: MyTicket_p <- t
//	 4: HaveTicket_p <- 1
//	 5: await(Serving = t)
//	 6: return t
//
//	ACQUIRE.RECOVER:
//	 8: if LI = 0 then proceed from line 1 (nothing happened yet;
//	      HaveTicket_p may be a stale 1 from a previous acquisition, so
//	      it must not be consulted before line 1 has cleared it)
//	    if HaveTicket_p = 1 then t <- MyTicket_p, proceed from line 5
//	    if LI >= 2 then the strict FAA completed (possibly through its
//	      own recovery): t <- Next's persisted response, proceed from
//	      line 3
//	    proceed from line 1
type acquireOp struct {
	lock *Lock
}

func (o *acquireOp) Info() proc.OpInfo {
	return proc.OpInfo{Obj: o.lock.name, Op: "ACQUIRE", Entry: 1, RecoverEntry: 8}
}

func (o *acquireOp) Exec(c *proc.Ctx, line int) uint64 {
	var (
		p = c.P()
		t uint64
	)
	for {
		switch line {
		case 1:
			c.Step(1)
			c.Write(o.lock.have[p], 0)
			line = 2
		case 2:
			c.Step(2)
			t = c.Invoke(o.lock.next.AddStrictOp(), 1)
			line = 3
		case 3:
			c.Step(3)
			c.Write(o.lock.ticket[p], t)
			line = 4
		case 4:
			c.Step(4)
			c.Write(o.lock.have[p], 1)
			line = 5
		case 5:
			c.Await(5, func() bool { return c.Read(o.lock.serving) == t }) //nrl:ignore await predicate closure; the acquirer is parked, off the hot path
			c.Step(6)
			return t
		case 8:
			c.RecStep(8)
			if c.LI() == 0 {
				line = 1
				continue
			}
			if c.Read(o.lock.have[p]) == 1 {
				t = c.Read(o.lock.ticket[p])
				line = 5
				continue
			}
			if c.LI() >= 2 {
				// Line 1 ran (HaveTicket cleared) and the strict FAA was
				// invoked, hence completed; its persisted response is
				// this operation's ticket.
				resp, ok := o.lock.next.PersistedResponse(c)
				if !ok {
					panic(fmt.Sprintf("rme: lock %q: strict FAA completed without persisted response", o.lock.name))
				}
				t = resp
				line = 3
				continue
			}
			line = 1
		default:
			panic(fmt.Sprintf("rme: acquireOp bad line %d", line))
		}
	}
}

// releaseOp is RELEASE, program for process p:
//
//	 1: t <- MyTicket_p
//	 2: Serving <- t + 1
//	 3: return ack
//
//	RELEASE.RECOVER: proceed from line 1 (idempotent: only the holder
//	advances Serving from t, so re-writing t+1 is harmless)
type releaseOp struct {
	lock *Lock
}

func (o *releaseOp) Info() proc.OpInfo {
	return proc.OpInfo{Obj: o.lock.name, Op: "RELEASE", Entry: 1, RecoverEntry: 5}
}

func (o *releaseOp) Exec(c *proc.Ctx, line int) uint64 {
	var (
		p = c.P()
		t uint64
	)
	for {
		switch line {
		case 1:
			c.Step(1)
			t = c.Read(o.lock.ticket[p])
			line = 2
		case 2:
			c.Step(2)
			c.Write(o.lock.serving, t+1)
			line = 3
		case 3:
			c.Step(3)
			return objects.Ack
		case 5:
			c.RecStep(5)
			line = 1
		default:
			panic(fmt.Sprintf("rme: releaseOp bad line %d", line))
		}
	}
}
