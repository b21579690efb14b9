package core

import (
	"fmt"

	"nrl/internal/nvm"
	"nrl/internal/proc"
)

// Register is the nesting-safe recoverable read/write object of
// Algorithm 1. It supports non-strict recoverable READ and WRITE
// operations plus a strict STRICTREAD extension that persists the read
// value in a per-process Res_p word before returning (Definition 1).
//
// The algorithm requires every value written to the register to be
// distinct; callers either rely on object semantics (as the counter of
// Algorithm 4 does) or build values with Distinct. Values must not exceed
// MaxRegisterValue: bit 63 is used internally by the S_p bookkeeping pair.
type Register struct {
	name string
	r    nvm.Addr   // R: the register's value
	s    []nvm.Addr // nrl:recovery-state S_p: per-process <flag, previous-value> pair
	res  []nvm.Addr // nrl:recovery-state Res_p: per-process persisted response (strict read)

	write      *regWrite
	read       *regRead
	strictRead *regStrictRead
}

// NewRegister allocates a recoverable register named name holding initial.
func NewRegister(sys *proc.System, name string, initial uint64) *Register {
	if initial > MaxRegisterValue {
		panic(fmt.Sprintf("core: register %q initial value exceeds MaxRegisterValue", name))
	}
	mem := sys.Mem()
	n := sys.N()
	r := &Register{
		name: name,
		r:    mem.Alloc(name+".R", initial),
		s:    mem.AllocArray(name+".S", n+1, packS(0, 0)),
		res:  mem.AllocArray(name+".Res", n+1, 0),
	}
	r.write = &regWrite{reg: r}
	r.read = &regRead{reg: r}
	r.strictRead = &regStrictRead{reg: r}
	return r
}

// Name returns the object's name (the key of its history subhistories).
func (r *Register) Name() string { return r.name }

// Write performs the recoverable WRITE operation. All values written to
// the register must be distinct.
func (r *Register) Write(c *proc.Ctx, v uint64) {
	if v > MaxRegisterValue {
		panic(fmt.Sprintf("core: register %q value exceeds MaxRegisterValue", r.name))
	}
	c.Invoke(r.write, v)
}

// Read performs the recoverable (non-strict) READ operation.
func (r *Register) Read(c *proc.Ctx) uint64 {
	return c.Invoke(r.read)
}

// StrictRead performs a strict recoverable read: the response is persisted
// in the caller's Res_p word before the operation returns.
func (r *Register) StrictRead(c *proc.Ctx) uint64 {
	return c.Invoke(r.strictRead)
}

// WriteOp exposes the WRITE operation for direct nesting inside other
// recoverable operations.
func (r *Register) WriteOp() proc.Operation { return r.write }

// ReadOp exposes the READ operation for direct nesting.
func (r *Register) ReadOp() proc.Operation { return r.read }

// StrictReadOp exposes the STRICTREAD operation for direct nesting.
func (r *Register) StrictReadOp() proc.Operation { return r.strictRead }

// regWrite is Algorithm 1's WRITE, program for process p:
//
//	 2: temp <- R
//	 3: S_p <- <1, temp>
//	 4: R <- val
//	 5: S_p <- <0, val>
//	 6: return ack
//
//	WRITE.RECOVER(val):
//	11: <flag, curr> <- S_p
//	12: if flag = 0 and curr != val then
//	13:   proceed from line 2
//	14: else if flag = 1 and curr = R then
//	15:   proceed from line 2
//	16: S_p <- <0, val>
//	17: return ack
type regWrite struct {
	reg *Register
}

func (o *regWrite) Info() proc.OpInfo {
	return proc.OpInfo{Obj: o.reg.name, Op: "WRITE", Entry: 2, RecoverEntry: 11}
}

func (o *regWrite) Exec(c *proc.Ctx, line int) uint64 {
	var (
		val  = c.Arg(0)
		p    = c.P()
		temp uint64
	)
	for {
		switch line {
		case 2:
			c.Step(2)
			temp = c.Read(o.reg.r)
			line = 3
		case 3:
			c.Step(3)
			c.Write(o.reg.s[p], packS(1, temp))
			line = 4
		case 4:
			c.Step(4)
			c.Write(o.reg.r, val)
			line = 5
		case 5:
			c.Step(5)
			c.Write(o.reg.s[p], packS(0, val))
			line = 6
		case 6:
			c.Step(6)
			return Ack
		case 11:
			c.RecStep(11)
			flag, curr := unpackS(c.Read(o.reg.s[p]))
			if flag == 0 && curr != val { // line 12
				line = 2 // line 13
				continue
			}
			c.RecStep(14)
			if flag == 1 && curr == c.Read(o.reg.r) {
				line = 2 // line 15
				continue
			}
			c.RecStep(16)
			c.Write(o.reg.s[p], packS(0, val))
			c.RecStep(17)
			return Ack
		default:
			panic(fmt.Sprintf("core: regWrite bad line %d", line))
		}
	}
}

// regRead is Algorithm 1's READ:
//
//	 8: temp <- R
//	 9: return temp
//
//	READ.RECOVER:
//	19: temp <- R
//	20: return temp
type regRead struct {
	reg *Register
}

func (o *regRead) Info() proc.OpInfo {
	return proc.OpInfo{Obj: o.reg.name, Op: "READ", Entry: 8, RecoverEntry: 19}
}

func (o *regRead) Exec(c *proc.Ctx, line int) uint64 {
	var temp uint64
	for {
		switch line {
		case 8, 19:
			if line >= 19 {
				c.RecStep(line)
			} else {
				c.Step(line)
			}
			temp = c.Read(o.reg.r)
			line++
		case 9, 20:
			if line >= 20 {
				c.RecStep(line)
			} else {
				c.Step(line)
			}
			return temp
		default:
			panic(fmt.Sprintf("core: regRead bad line %d", line))
		}
	}
}

// regStrictRead is the strict read extension, mirroring the strictness
// pattern of Algorithm 4's counter READ:
//
//	30: temp <- R
//	31: Res_p <- temp
//	32: return temp
//
//	STRICTREAD.RECOVER:
//	35: proceed from line 30
type regStrictRead struct {
	reg *Register
}

func (o *regStrictRead) Info() proc.OpInfo {
	return proc.OpInfo{Obj: o.reg.name, Op: "STRICTREAD", Entry: 30, RecoverEntry: 35}
}

func (o *regStrictRead) Exec(c *proc.Ctx, line int) uint64 {
	var (
		p    = c.P()
		temp uint64
	)
	for {
		switch line {
		case 30:
			c.Step(30)
			temp = c.Read(o.reg.r)
			line = 31
		case 31:
			c.Step(31)
			c.Write(o.reg.res[p], temp)
			line = 32
		case 32:
			c.Step(32)
			return temp
		case 35:
			c.RecStep(35)
			line = 30
		default:
			panic(fmt.Sprintf("core: regStrictRead bad line %d", line))
		}
	}
}

// PersistedResponse returns the value most recently persisted in the
// Res_p word of c's process by a strict read. It is what a higher-level
// recovery function reads when the process crashed immediately after a
// strict read returned.
func (r *Register) PersistedResponse(c *proc.Ctx) uint64 {
	return c.Read(r.res[c.P()])
}
