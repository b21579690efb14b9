package objects

import (
	"fmt"

	"nrl/internal/core"
	"nrl/internal/nvm"
	"nrl/internal/proc"
)

// FAA packing: values stored in the underlying recoverable CAS object
// carry the running sum together with a writer tag so that every installed
// value is distinct (the precondition of Algorithm 2):
//
//	bits 53..48 : process id (1..63)
//	bits 47..24 : per-process attempt sequence number
//	bits 23..0  : the running sum (payload)
const (
	faaPayloadBits = 24
	faaSeqBits     = 24
	faaPidBits     = 6

	// MaxFAAValue is the largest running sum an FAA object can hold.
	MaxFAAValue = 1<<faaPayloadBits - 1
	// MaxFAAProcs is the largest process id an FAA object supports.
	MaxFAAProcs = 1<<faaPidBits - 1
	maxFAASeq   = 1<<faaSeqBits - 1
)

func faaPack(pid int, seq uint64, sum uint64) uint64 {
	return uint64(pid)<<(faaPayloadBits+faaSeqBits) | seq<<faaPayloadBits | sum
}

func faaSum(v uint64) uint64 { return v & MaxFAAValue }

// FAA is a recoverable fetch-and-add object built modularly on the
// recoverable CAS object: FAA(d) atomically adds d to the running sum and
// returns the previous sum. Its recovery relies on the strict CAS variant
// — the persisted CAS response tells the recovery function whether the
// interrupted attempt took effect — plus a persisted copy of the attempted
// value, from which the lost response is reconstructed.
type FAA struct {
	name string
	cas  *core.CASObject
	seq  []nvm.Addr // per-process attempt counter
	att  []nvm.Addr // per-process attempted value (New_p)

	resVal   []nvm.Addr // strict variant: persisted response
	resValid []nvm.Addr // strict variant: response-valid flag

	faa    *faaOp
	strict *faaStrictOp
	read   *faaRead
}

// NewFAA allocates a recoverable fetch-and-add object with initial sum 0.
func NewFAA(sys *proc.System, name string) *FAA {
	if sys.N() > MaxFAAProcs {
		panic(fmt.Sprintf("objects: FAA %q supports at most %d processes", name, MaxFAAProcs))
	}
	mem := sys.Mem()
	o := &FAA{
		name:     name,
		cas:      core.NewCASObject(sys, name+".cas"),
		seq:      mem.AllocArray(name+".Seq", sys.N()+1, 0),
		att:      mem.AllocArray(name+".Att", sys.N()+1, 0),
		resVal:   mem.AllocArray(name+".ResVal", sys.N()+1, 0),
		resValid: mem.AllocArray(name+".ResValid", sys.N()+1, 0),
	}
	o.faa = &faaOp{obj: o}
	o.strict = &faaStrictOp{obj: o}
	o.read = &faaRead{obj: o}
	return o
}

// Name returns the object's name.
func (o *FAA) Name() string { return o.name }

// Add atomically adds delta to the sum and returns the previous sum.
func (o *FAA) Add(c *proc.Ctx, delta uint64) uint64 {
	if delta == 0 || delta > MaxFAAValue {
		panic(fmt.Sprintf("objects: FAA %q delta %d out of range [1,%d]", o.name, delta, MaxFAAValue))
	}
	return c.Invoke(o.faa, delta)
}

// Read returns the current sum.
func (o *FAA) Read(c *proc.Ctx) uint64 {
	return c.Invoke(o.read)
}

// AddStrict is the strict variant of Add (Definition 1): the response is
// persisted in the caller's Res_p area before the operation returns, so a
// higher-level recovery function can always retrieve it (the recoverable
// mutual-exclusion lock in package rme depends on this to never lose a
// ticket).
func (o *FAA) AddStrict(c *proc.Ctx, delta uint64) uint64 {
	if delta == 0 || delta > MaxFAAValue {
		panic(fmt.Sprintf("objects: FAA %q delta %d out of range [1,%d]", o.name, delta, MaxFAAValue))
	}
	return c.Invoke(o.strict, delta)
}

// PersistedResponse reports the response persisted by c's process's
// last strict Add, with ok=false if none is currently persisted.
func (o *FAA) PersistedResponse(c *proc.Ctx) (resp uint64, ok bool) {
	p := c.P()
	if c.Read(o.resValid[p]) != 1 {
		return 0, false
	}
	return c.Read(o.resVal[p]), true
}

// AddOp exposes FAA for direct nesting.
func (o *FAA) AddOp() proc.Operation { return o.faa }

// AddStrictOp exposes STRICTFAA for direct nesting.
func (o *FAA) AddStrictOp() proc.Operation { return o.strict }

// ReadOp exposes READ for direct nesting.
func (o *FAA) ReadOp() proc.Operation { return o.read }

// CASName returns the name of the nested CAS object (and implicitly its
// strict view CASName()+"#strict") for wiring checker models.
func (o *FAA) CASName() string { return o.cas.Name() }

// faaOp is the fetch-and-add operation, program for process p:
//
//	 2: cur <- C.READ                        (nested recoverable)
//	 3: s <- Seq_p; Seq_p <- s+1             (fresh attempt tag)
//	 4: new <- pack(p, s+1, sum(cur)+delta)
//	 5: Att_p <- new                         (persist the attempt)
//	 6: ok <- C.STRICTCAS(cur, new)          (nested, strict)
//	 7: if ok then return sum(cur) else proceed from line 2
//
//	FAA.RECOVER(delta):
//	10: if LI < 6 then proceed from line 2   (the CAS was not invoked)
//	    — LI >= 6: the strict CAS completed (possibly via its own
//	    recovery); its persisted response says whether it took effect:
//	    if persisted response = 1 then return sum(Att_p) - delta
//	    else proceed from line 2
type faaOp struct {
	obj *FAA
}

func (o *faaOp) Info() proc.OpInfo {
	return proc.OpInfo{Obj: o.obj.name, Op: "FAA", Entry: 2, RecoverEntry: 10}
}

func (o *faaOp) Exec(c *proc.Ctx, line int) uint64 {
	var (
		delta = c.Arg(0)
		p     = c.P()
		cur   uint64
		next  uint64
	)
	for {
		switch line {
		case 2:
			c.Step(2)
			cur = c.Invoke(o.obj.cas.ReadOp())
			line = 3
		case 3:
			c.Step(3)
			s := c.Read(o.obj.seq[p]) + 1
			if s > maxFAASeq {
				panic(fmt.Sprintf("objects: FAA %q exhausted attempt tags for process %d", o.obj.name, p))
			}
			c.Write(o.obj.seq[p], s)
			sum := faaSum(cur) + delta
			if sum > MaxFAAValue {
				panic(fmt.Sprintf("objects: FAA %q sum overflow", o.obj.name))
			}
			next = faaPack(p, s, sum) // line 4
			line = 5
		case 5:
			c.Step(5)
			c.Write(o.obj.att[p], next)
			line = 6
		case 6:
			c.Step(6)
			ok := c.Invoke(o.obj.cas.StrictCASOp(), cur, next)
			c.Step(7)
			if ok == 1 {
				return faaSum(cur)
			}
			line = 2
		case 10:
			c.RecStep(10)
			if c.LI() < 6 {
				line = 2
				continue
			}
			if resp, valid := o.obj.cas.PersistedCASResponse(c); valid && resp == 1 {
				return faaSum(c.Read(o.obj.att[p])) - delta
			}
			line = 2
		default:
			panic(fmt.Sprintf("objects: faaOp bad line %d", line))
		}
	}
}

// faaStrictOp is STRICTFAA, the strict variant of the fetch-and-add: the
// same protocol, with the response persisted before returning. It is
// implemented as a first-class operation of the FAA object (rather than a
// wrapper nesting FAA) so that the object's subhistory remains checkable
// against the fetch-and-add specification and the paper's one-pending-
// operation-per-object rule holds. Program for process p:
//
//	30: ResValid_p <- 0
//	31: cur <- C.READ                        (nested recoverable)
//	32: s <- Seq_p + 1; Seq_p <- s; new <- pack(p, s, sum(cur)+delta)
//	33: Att_p <- new
//	34: ok <- C.STRICTCAS(cur, new)          (nested, strict)
//	35: if ok then r <- sum(cur), proceed from line 38
//	    else proceed from line 31
//	38: ResVal_p <- r
//	39: ResValid_p <- 1
//	40: return r
//
//	STRICTFAA.RECOVER(delta):
//	42: if LI = 0 then proceed from line 30
//	    if ResValid_p = 1 then return ResVal_p
//	    if LI < 34 then proceed from line 31
//	    — LI >= 34: the strict CAS completed; its persisted response
//	    says whether the attempt took effect:
//	    if persisted response = 1 then r <- sum(Att_p) - delta,
//	    proceed from line 38; else proceed from line 31
type faaStrictOp struct {
	obj *FAA
}

func (o *faaStrictOp) Info() proc.OpInfo {
	return proc.OpInfo{Obj: o.obj.name, Op: "STRICTFAA", Entry: 30, RecoverEntry: 42}
}

func (o *faaStrictOp) Exec(c *proc.Ctx, line int) uint64 {
	var (
		delta = c.Arg(0)
		p     = c.P()
		cur   uint64
		next  uint64
		r     uint64
	)
	for {
		switch line {
		case 30:
			c.Step(30)
			c.Write(o.obj.resValid[p], 0)
			line = 31
		case 31:
			c.Step(31)
			cur = c.Invoke(o.obj.cas.ReadOp())
			line = 32
		case 32:
			c.Step(32)
			s := c.Read(o.obj.seq[p]) + 1
			if s > maxFAASeq {
				panic(fmt.Sprintf("objects: FAA %q exhausted attempt tags for process %d", o.obj.name, p))
			}
			c.Write(o.obj.seq[p], s)
			sum := faaSum(cur) + delta
			if sum > MaxFAAValue {
				panic(fmt.Sprintf("objects: FAA %q sum overflow", o.obj.name))
			}
			next = faaPack(p, s, sum)
			line = 33
		case 33:
			c.Step(33)
			c.Write(o.obj.att[p], next)
			line = 34
		case 34:
			c.Step(34)
			ok := c.Invoke(o.obj.cas.StrictCASOp(), cur, next)
			c.Step(35)
			if ok == 1 {
				r = faaSum(cur)
				line = 38
				continue
			}
			line = 31
		case 38:
			c.Step(38)
			c.Write(o.obj.resVal[p], r)
			line = 39
		case 39:
			c.Step(39)
			c.Write(o.obj.resValid[p], 1)
			line = 40
		case 40:
			c.Step(40)
			return r
		case 42:
			c.RecStep(42)
			if c.LI() == 0 {
				line = 30
				continue
			}
			if c.Read(o.obj.resValid[p]) == 1 {
				return c.Read(o.obj.resVal[p])
			}
			if c.LI() < 34 {
				line = 31
				continue
			}
			if resp, valid := o.obj.cas.PersistedCASResponse(c); valid && resp == 1 {
				r = faaSum(c.Read(o.obj.att[p])) - delta
				line = 38
				continue
			}
			line = 31
		default:
			panic(fmt.Sprintf("objects: faaStrictOp bad line %d", line))
		}
	}
}

// faaRead returns the current sum:
//
//	20: cur <- C.READ
//	21: return sum(cur)                      (fence {C} first: persist
//	                                         on read)
//
//	READ.RECOVER: proceed from line 20
type faaRead struct {
	obj *FAA
}

func (o *faaRead) Info() proc.OpInfo {
	return proc.OpInfo{Obj: o.obj.name, Op: "READ", Entry: 20, RecoverEntry: 23}
}

func (o *faaRead) Exec(c *proc.Ctx, line int) uint64 {
	var cur uint64
	for {
		switch line {
		case 20:
			c.Step(20)
			cur = c.Invoke(o.obj.cas.ReadOp())
			line = 21
		case 21:
			c.Step(21)
			// Persist on read: cur may be an Add's install that is not
			// yet durable (STRICTCAS fences it at its line 48).
			o.obj.cas.PersistRead(c)
			return faaSum(cur)
		case 23:
			c.RecStep(23)
			line = 20
		default:
			panic(fmt.Sprintf("objects: faaRead bad line %d", line))
		}
	}
}
