// Package objects builds higher-level recoverable objects modularly from
// the nesting-safe recoverable base objects of package core, exactly as
// the paper's Section 3.4 prescribes: because the base operations satisfy
// NRL, they are linearized and deliver their responses before returning,
// even across repeated crashes, so the constructions here only need to
// make their own bookkeeping crash-safe.
//
// Counter is the paper's Algorithm 4. FAA, MaxRegister and Stack are
// extensions in the same style, demonstrating composition over the
// recoverable CAS object (including its strict variant).
package objects

import (
	"fmt"

	"nrl/internal/core"
	"nrl/internal/nvm"
	"nrl/internal/proc"
)

// Ack is re-exported for convenience.
const Ack = core.Ack

// Counter is the nesting-safe recoverable counter of Algorithm 4. Each
// process p increments its own recoverable register R[p]; READ sums all
// registers and is strict (it persists its response in Res_p before
// returning).
type Counter struct {
	name string
	regs []*core.Register // R[p], one recoverable register per process
	res  []nvm.Addr       // nrl:recovery-state Res_p: per-process persisted response

	inc  *counterInc
	read *counterRead
}

// NewCounter allocates a recoverable counter.
func NewCounter(sys *proc.System, name string) *Counter {
	n := sys.N()
	o := &Counter{
		name: name,
		regs: make([]*core.Register, n+1),
		res:  sys.Mem().AllocArray(name+".Res", n+1, 0),
	}
	for p := 1; p <= n; p++ {
		o.regs[p] = core.NewRegister(sys, fmt.Sprintf("%s.R[%d]", name, p), 0)
	}
	o.inc = &counterInc{ctr: o}
	o.read = &counterRead{ctr: o}
	return o
}

// Name returns the object's name.
func (o *Counter) Name() string { return o.name }

// Inc atomically increments the counter.
func (o *Counter) Inc(c *proc.Ctx) {
	c.Invoke(o.inc)
}

// Read returns the counter's value. The operation is strict: the response
// is persisted in the caller's Res_p word before it returns.
func (o *Counter) Read(c *proc.Ctx) uint64 {
	return c.Invoke(o.read)
}

// IncOp exposes INC for direct nesting.
func (o *Counter) IncOp() proc.Operation { return o.inc }

// ReadOp exposes READ for direct nesting.
func (o *Counter) ReadOp() proc.Operation { return o.read }

// PersistedResponse returns the value the last READ of c's process
// persisted in its Res_p.
func (o *Counter) PersistedResponse(c *proc.Ctx) uint64 {
	return c.Read(o.res[c.P()])
}

// RegisterNames returns the names of the nested recoverable registers (for
// wiring sequential specifications in checkers).
func (o *Counter) RegisterNames() []string {
	names := make([]string, 0, len(o.regs)-1)
	for _, r := range o.regs[1:] {
		names = append(names, r.Name())
	}
	return names
}

// counterInc is Algorithm 4's INC, program for process p:
//
//	 2: temp <- R[p].READ
//	 3: temp <- temp + 1
//	 4: R[p].WRITE(temp)
//	 5: return ack
//
//	INC.RECOVER:
//	 7: if LI_p < 4 then
//	 8:   proceed from line 2
//	 9: else
//	10:   return ack
//
// The distinct-values requirement of the nested recoverable register is
// satisfied by the counter's semantics: R[p] is written only by p with
// strictly increasing values.
type counterInc struct {
	ctr *Counter
}

func (o *counterInc) Info() proc.OpInfo {
	return proc.OpInfo{Obj: o.ctr.name, Op: "INC", Entry: 2, RecoverEntry: 7}
}

func (o *counterInc) Exec(c *proc.Ctx, line int) uint64 {
	var (
		p    = c.P()
		temp uint64
	)
	for {
		switch line {
		case 2:
			c.Step(2)
			temp = c.Invoke(o.ctr.regs[p].ReadOp())
			line = 3
		case 3:
			c.Step(3)
			temp = temp + 1
			line = 4
		case 4:
			c.Step(4)
			c.Invoke(o.ctr.regs[p].WriteOp(), temp)
			line = 5
		case 5:
			c.Step(5)
			return Ack
		case 7:
			c.RecStep(7)
			if c.LI() < 4 {
				line = 2 // line 8
				continue
			}
			return Ack // line 10
		default:
			panic(fmt.Sprintf("objects: counterInc bad line %d", line))
		}
	}
}

// counterRead is Algorithm 4's READ, made strict by persisting the
// response in Res_p before returning:
//
//	12: val <- 0
//	13: for i from 1 to N do
//	14:   val <- val + R[i].READ
//	15: Res_p <- val
//	16: return val
//
//	READ.RECOVER:
//	18: proceed from line 12
type counterRead struct {
	ctr *Counter
}

func (o *counterRead) Info() proc.OpInfo {
	return proc.OpInfo{Obj: o.ctr.name, Op: "READ", Entry: 12, RecoverEntry: 18}
}

func (o *counterRead) Exec(c *proc.Ctx, line int) uint64 {
	var (
		p   = c.P()
		n   = c.N()
		val uint64
	)
	for {
		switch line {
		case 12:
			c.Step(12)
			val = 0
			for i := 1; i <= n; i++ { // line 13
				c.Step(14)
				val += c.Invoke(o.ctr.regs[i].ReadOp())
			}
			line = 15
		case 15:
			c.Step(15)
			c.Write(o.ctr.res[p], val)
			line = 16
		case 16:
			c.Step(16)
			return val
		case 18:
			c.RecStep(18)
			line = 12
		default:
			panic(fmt.Sprintf("objects: counterRead bad line %d", line))
		}
	}
}
