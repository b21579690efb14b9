package core

import (
	"fmt"

	"nrl/internal/nvm"
	"nrl/internal/proc"
)

// CASObject is the nesting-safe recoverable compare-and-swap object of
// Algorithm 2. The object's word C stores the pair <id,val>: the id of
// the last process to perform a successful CAS and the value it wrote.
// R[i][j] is a single-reader single-writer word through which process j
// informs process i that i's CAS took effect, which is what lets
// CAS.RECOVER always determine the lost response.
//
// Usage constraints from the paper: CAS is never invoked with old == new,
// and values written by the same process are distinct. Values must be
// non-zero (zero is the null value) and at most MaxCASValue (the top 10
// bits of C hold the writer's id). DistinctCAS builds conforming values.
type CASObject struct {
	name string
	c    nvm.Addr
	r    [][]nvm.Addr // r[i][j]: j informs i; indices 1..N

	resVal   []nvm.Addr // nrl:own-process; nrl:persist-before resValid(write): witness no later than the ack (strict variant response)
	resValid []nvm.Addr // nrl:own-process: strict variant: response-valid flag per process

	cas       *casOp
	read      *casRead
	strictCAS *strictCASOp
}

// NewCASObject allocates a recoverable CAS object. Its initial value is
// null (<null,null>): the first successful CAS must use old = 0.
func NewCASObject(sys *proc.System, name string) *CASObject {
	mem := sys.Mem()
	n := sys.N()
	if n > MaxProcs {
		panic(fmt.Sprintf("core: CAS object %q supports at most %d processes", name, MaxProcs))
	}
	o := &CASObject{
		name:     name,
		c:        mem.Alloc(name+".C", packC(0, 0)),
		resVal:   mem.AllocArray(name+".ResVal", n+1, 0),
		resValid: mem.AllocArray(name+".ResValid", n+1, 0),
	}
	o.r = make([][]nvm.Addr, n+1)
	for i := 1; i <= n; i++ {
		o.r[i] = mem.AllocArray(fmt.Sprintf("%s.R[%d]", name, i), n+1, 0)
	}
	o.cas = &casOp{obj: o}
	o.read = &casRead{obj: o}
	o.strictCAS = &strictCASOp{obj: o}
	return o
}

// Name returns the object's name.
func (o *CASObject) Name() string { return o.name }

func (o *CASObject) checkValue(v uint64) {
	if v == 0 || v > MaxCASValue {
		panic(fmt.Sprintf("core: CAS object %q requires non-zero values up to MaxCASValue, got %d", o.name, v))
	}
}

// CAS performs the recoverable CAS(old,new) operation, reporting 1 on
// success and 0 on failure. old may be 0 (the initial null value); new
// must be a non-zero value the calling process has not used before, and
// must differ from old.
func (o *CASObject) CAS(c *proc.Ctx, old, new uint64) bool {
	o.checkValue(new)
	if old == new {
		panic(fmt.Sprintf("core: CAS object %q invoked with old == new", o.name))
	}
	return c.Invoke(o.cas, old, new) == 1
}

// Read performs the recoverable READ operation, returning the object's
// current value (0 if no successful CAS happened yet).
func (o *CASObject) Read(c *proc.Ctx) uint64 {
	return c.Invoke(o.read)
}

// StrictCAS is the strict variant of CAS (Definition 1): the response is
// persisted in the caller's Res_p area before the operation returns. It
// is itself a modular construction — a higher-level recoverable operation
// nesting the plain recoverable CAS.
func (o *CASObject) StrictCAS(c *proc.Ctx, old, new uint64) bool {
	o.checkValue(new)
	if old == new {
		panic(fmt.Sprintf("core: CAS object %q invoked with old == new", o.name))
	}
	return c.Invoke(o.strictCAS, old, new) == 1
}

// CASOp exposes the CAS operation for direct nesting.
func (o *CASObject) CASOp() proc.Operation { return o.cas }

// ReadOp exposes the READ operation for direct nesting.
func (o *CASObject) ReadOp() proc.Operation { return o.read }

// StrictCASOp exposes the STRICTCAS operation for direct nesting.
func (o *CASObject) StrictCASOp() proc.Operation { return o.strictCAS }

// PersistRead makes C durable on Buffered memory (a no-op on ADR).
// STRICTCAS publishes its install at line 45 and fences it at line 48,
// so in between a READ can return a value that a power failure rolls
// back. A caller that answers from a READ without installing a value of
// its own (an Empty DEQ or POP, an FAA READ) calls PersistRead before
// it returns: persist on read. C may have moved on since the READ; a
// newer value is as safe to make durable, because its installer fenced
// what the value depends on before its CAS.
func (o *CASObject) PersistRead(c *proc.Ctx) { c.PersistBuffered(o.c) }

// casOp is Algorithm 2's CAS(old,new), program for process p:
//
//	 2: <id,val> <- C.read()
//	 3: if val != old then
//	 4:   return false
//	 5: if id != null then
//	 6:   R[id][p] <- val
//	 7: ret <- C.cas(<id,val>, <p,new>)
//	 8: return ret
//
//	CAS.RECOVER(old,new):
//	13: if C = <p,new> or new in {R[p][1],...,R[p][N]} then
//	14:   return true
//	15: else
//	16:   proceed from line 2
type casOp struct {
	obj *CASObject
}

func (o *casOp) Info() proc.OpInfo {
	return proc.OpInfo{Obj: o.obj.name, Op: "CAS", Entry: 2, RecoverEntry: 13}
}

func (o *casOp) Exec(c *proc.Ctx, line int) uint64 {
	var (
		old  = c.Arg(0)
		new  = c.Arg(1)
		p    = c.P()
		pair uint64
		ret  uint64
	)
	for {
		switch line {
		case 2:
			c.Step(2)
			pair = c.Read(o.obj.c)
			line = 3
		case 3:
			c.Step(3)
			if _, val := unpackC(pair); val != old {
				c.Step(4)
				return 0
			}
			line = 5
		case 5:
			c.Step(5)
			if id, val := unpackC(pair); id != 0 {
				c.Step(6)
				c.Write(o.obj.r[id][p], val)
			}
			line = 7
		case 7:
			c.Step(7)
			if c.CAS(o.obj.c, pair, packC(p, new)) {
				ret = 1
				c.PersistBuffered(o.obj.c)
			} else {
				ret = 0
			}
			line = 8
		case 8:
			c.Step(8)
			return ret
		case 13:
			// The left term is evaluated before the right term, as the
			// paper's proof requires.
			c.RecStep(13)
			if c.Read(o.obj.c) == packC(p, new) {
				c.RecStep(14)
				return 1
			}
			found := false
			for j := 1; j <= c.N(); j++ {
				c.RecStep(13)
				if c.Read(o.obj.r[p][j]) == new {
					found = true
					break
				}
			}
			if found {
				c.RecStep(14)
				return 1
			}
			line = 2 // lines 15-16
		default:
			panic(fmt.Sprintf("core: casOp bad line %d", line))
		}
	}
}

// casRead is Algorithm 2's READ:
//
//	10: <id,val> <- C
//	11: return val
//
//	READ.RECOVER:
//	18: <id,val> <- C
//	19: return val
type casRead struct {
	obj *CASObject
}

func (o *casRead) Info() proc.OpInfo {
	return proc.OpInfo{Obj: o.obj.name, Op: "READ", Entry: 10, RecoverEntry: 18}
}

func (o *casRead) Exec(c *proc.Ctx, line int) uint64 {
	var val uint64
	for {
		switch line {
		case 10, 18:
			if line >= 18 {
				c.RecStep(line)
			} else {
				c.Step(line)
			}
			_, val = unpackC(c.Read(o.obj.c))
			line++
		case 11, 19:
			if line >= 19 {
				c.RecStep(line)
			} else {
				c.Step(line)
			}
			return val
		default:
			panic(fmt.Sprintf("core: casRead bad line %d", line))
		}
	}
}

// strictCASOp is the strict variant of Algorithm 2's CAS (Definition 1):
// it runs the same protocol and persists the response in the caller's
// per-process Res area before returning. Recovery first consults the
// persisted response; failing that it applies Algorithm 2's recovery test
// (a successful <p,new> installation remains detectable forever through C
// or the helping matrix) and persists the reconstructed response:
//
//	40: ResValid_p <- 0                              (fenced alone)
//	41: <id,val> <- C.read()
//	42: if val != old then ret <- false, proceed from line 47
//	43: if id != null then R[id][p] <- val
//	45: ret <- C.cas(<id,val>, <p,new>)
//	47: ResVal_p <- ret
//	48: ResValid_p <- 1; fence {C, ResVal_p, ResValid_p}
//	49: return ret
//
//	STRICTCAS.RECOVER(old,new):
//	50: if LI = 0 then proceed from line 40          (nothing happened)
//	    if ResValid_p = 1 then return ResVal_p       (response persisted)
//	    if C = <p,new> or new in {R[p][1..N]} then
//	      ret <- true, proceed from line 47
//	    else proceed from line 41                    (re-execute)
type strictCASOp struct {
	obj *CASObject
}

func (o *strictCASOp) Info() proc.OpInfo {
	return proc.OpInfo{Obj: o.obj.name, Op: "STRICTCAS", Entry: 40, RecoverEntry: 50}
}

func (o *strictCASOp) Exec(c *proc.Ctx, line int) uint64 {
	var (
		old  = c.Arg(0)
		new  = c.Arg(1)
		p    = c.P()
		pair uint64
		ret  uint64
	)
	for {
		switch line {
		case 40:
			c.Step(40)
			c.Write(o.obj.resValid[p], 0)
			c.PersistBuffered(o.obj.resValid[p])
			line = 41
		case 41:
			c.Step(41)
			pair = c.Read(o.obj.c)
			line = 42
		case 42:
			c.Step(42)
			if _, val := unpackC(pair); val != old {
				ret = 0
				line = 47
				continue
			}
			line = 43
		case 43:
			c.Step(43)
			if id, val := unpackC(pair); id != 0 {
				c.Step(44)
				c.Write(o.obj.r[id][p], val)
			}
			line = 45
		case 45:
			c.Step(45)
			if c.CAS(o.obj.c, pair, packC(p, new)) {
				ret = 1
			} else {
				ret = 0
			}
			line = 47
		case 47:
			c.Step(47)
			c.Write(o.obj.resVal[p], ret)
			line = 48
		case 48:
			c.Step(48)
			c.Write(o.obj.resValid[p], 1)
			// One fence makes the response and C durable together: the
			// fence is atomic, so ResValid_p = 1 is never durable
			// without ResVal_p or without the C it answers from (line
			// 40's fence already retired the previous response). C is
			// in it on both paths. A successful install is durable only
			// from here, and a false may answer from another process's
			// install that is still volatile (persist on read).
			c.PersistBuffered(o.obj.c, o.obj.resVal[p], o.obj.resValid[p])
			line = 49
		case 49:
			c.Step(49)
			return ret
		case 50:
			c.RecStep(50)
			if c.LI() == 0 {
				line = 40
				continue
			}
			if c.Read(o.obj.resValid[p]) == 1 {
				ret = c.Read(o.obj.resVal[p])
				line = 49
				continue
			}
			if c.Read(o.obj.c) == packC(p, new) {
				ret = 1
				line = 47
				continue
			}
			found := false
			for j := 1; j <= c.N(); j++ {
				c.RecStep(50)
				if c.Read(o.obj.r[p][j]) == new {
					found = true
					break
				}
			}
			if found {
				ret = 1
				line = 47
				continue
			}
			line = 41
		default:
			panic(fmt.Sprintf("core: strictCASOp bad line %d", line))
		}
	}
}

// PersistedCASResponse reports the response persisted by c's process's
// last strict CAS, with ok=false if no strict CAS response is currently
// persisted.
func (o *CASObject) PersistedCASResponse(c *proc.Ctx) (resp uint64, ok bool) {
	p := c.P()
	if c.Read(o.resValid[p]) != 1 {
		return 0, false
	}
	return c.Read(o.resVal[p]), true
}
