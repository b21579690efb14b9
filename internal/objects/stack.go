package objects

import (
	"fmt"

	"nrl/internal/core"
	"nrl/internal/nvm"
	"nrl/internal/proc"
)

// Empty is the response of POP on an empty stack.
const Empty = ^uint64(0)

// nilIdx marks the absence of a next cell in TOP values and next links.
const nilIdx = MaxFAAValue

// Stack is a recoverable Treiber-style stack built modularly from
// nesting-safe recoverable base objects:
//
//   - cells are allocated from a preallocated NVRAM arena through a
//     recoverable fetch-and-add object (cells are never reused, which
//     rules out ABA);
//   - a cell's value and next-link are written with primitive stores
//     while the cell is still private to the pushing process;
//   - TOP is a recoverable CAS object whose installed values pack the
//     cell index with a (pid, seq) tag, making every installed value
//     distinct as Algorithm 2 requires;
//   - the linking/unlinking CAS uses the strict variant, so a recovery
//     function can always tell whether its interrupted attempt took
//     effect, and per-process persisted bookkeeping (MyCell_p, Victim_p)
//     reconstructs the lost response.
//
// A crash between cell allocation and the persistence of the cell index
// leaks that cell (the allocator's response was lost); this is safe — the
// stack's content is unaffected — and mirrors the paper's observation
// that responses not persisted before a crash are unrecoverable.
type Stack struct {
	name  string
	alloc *FAA            // cell allocator
	top   *core.CASObject // TOP
	val   []nvm.Addr      // nrl:persist-before next(write): cell value before the link write
	next  []nvm.Addr      // cell next-links (cell index or nilIdx)
	seq   []nvm.Addr      // per-process tag counter
	mine  []nvm.Addr      // MyCell_p: cell being pushed
	vict  []nvm.Addr      // Victim_p: cell being popped

	push *stackPush
	pop  *stackPop
}

// NewStack allocates a recoverable stack with capacity cells.
func NewStack(sys *proc.System, name string, capacity int) *Stack {
	if capacity <= 0 || capacity >= nilIdx {
		panic(fmt.Sprintf("objects: Stack %q capacity %d out of range", name, capacity))
	}
	mem := sys.Mem()
	n := sys.N()
	o := &Stack{
		name:  name,
		alloc: NewFAA(sys, name+".alloc"),
		top:   core.NewCASObject(sys, name+".top"),
		val:   mem.AllocArray(name+".val", capacity, 0),
		next:  mem.AllocArray(name+".next", capacity, 0),
		seq:   mem.AllocArray(name+".Seq", n+1, 0),
		mine:  mem.AllocArray(name+".MyCell", n+1, 0),
		vict:  mem.AllocArray(name+".Victim", n+1, 0),
	}
	o.push = &stackPush{obj: o}
	o.pop = &stackPop{obj: o}
	return o
}

// Name returns the object's name.
func (o *Stack) Name() string { return o.name }

// Push pushes v onto the stack. v must not equal Empty.
func (o *Stack) Push(c *proc.Ctx, v uint64) {
	if v == Empty {
		panic(fmt.Sprintf("objects: Stack %q cannot push the Empty sentinel", o.name))
	}
	c.Invoke(o.push, v)
}

// Pop removes and returns the top value, or Empty if the stack is empty.
func (o *Stack) Pop(c *proc.Ctx) uint64 {
	return c.Invoke(o.pop)
}

// PushOp exposes PUSH for direct nesting.
func (o *Stack) PushOp() proc.Operation { return o.push }

// PopOp exposes POP for direct nesting.
func (o *Stack) PopOp() proc.Operation { return o.pop }

// InnerNames returns the names of the nested recoverable objects for
// checker wiring: the TOP CAS object, the allocator FAA and its CAS.
func (o *Stack) InnerNames() (topCAS, allocFAA, allocCAS string) {
	return o.top.Name(), o.alloc.Name(), o.alloc.CASName()
}

// topIdx extracts the cell index of a packed TOP value; TOP value 0 (the
// CAS object's initial null) also means empty.
func topIdx(v uint64) uint64 {
	if v == 0 {
		return nilIdx
	}
	return faaSum(v)
}

// nextTag builds the fresh-tagged TOP value installing cell idx.
func (o *Stack) nextTag(c *proc.Ctx, p int, idx uint64) uint64 {
	s := c.Read(o.seq[p]) + 1
	if s > maxFAASeq {
		panic(fmt.Sprintf("objects: Stack %q exhausted tags for process %d", o.name, p))
	}
	c.Write(o.seq[p], s)
	// Persist the counter before the tag can be installed, so a power
	// failure cannot roll it back and let a later incarnation reuse a
	// tag (Algorithm 2 requires installed values to be distinct).
	c.PersistBuffered(o.seq[p])
	return faaPack(p, s, idx)
}

// stackPush is PUSH(v), program for process p:
//
//	 2: idx <- alloc.FAA(1)                 (nested recoverable FAA)
//	 3: MyCell_p <- idx                     (persist the cell index)
//	 4: val[idx] <- v                       (cell still private)
//	 5: top <- TOP.READ                     (nested recoverable)
//	 6: next[idx] <- topIdx(top)
//	 7: Seq_p <- Seq_p + 1
//	 8: ok <- TOP.STRICTCAS(top, pack(p, Seq_p, idx))
//	 9: if ok then return ack else proceed from line 5
//
//	PUSH.RECOVER(v):
//	11: if LI < 3 then proceed from line 2   (cell index lost; leak it)
//	    if LI < 8 then proceed from line 4   (idx <- MyCell_p)
//	    — LI >= 8: the strict CAS completed:
//	    if persisted response = 1 then return ack
//	    else proceed from line 5             (idx <- MyCell_p)
type stackPush struct {
	obj *Stack
}

func (o *stackPush) Info() proc.OpInfo {
	return proc.OpInfo{Obj: o.obj.name, Op: "PUSH", Entry: 2, RecoverEntry: 11}
}

func (o *stackPush) Exec(c *proc.Ctx, line int) uint64 {
	var (
		v   = c.Arg(0)
		p   = c.P()
		idx uint64
		top uint64
	)
	for {
		switch line {
		case 2:
			c.Step(2)
			idx = c.Invoke(o.obj.alloc.AddOp(), 1)
			if int(idx) >= len(o.obj.val) {
				panic(fmt.Sprintf("objects: Stack %q capacity exhausted", o.obj.name))
			}
			line = 3
		case 3:
			c.Step(3)
			c.Write(o.obj.mine[p], idx)
			c.PersistBuffered(o.obj.mine[p])
			line = 4
		case 4:
			c.Step(4)
			idx = c.Read(o.obj.mine[p])
			c.Write(o.obj.val[idx], v)
			// The cell's value must be durable before TOP can make it
			// reachable at line 8.
			c.PersistBuffered(o.obj.val[idx])
			line = 5
		case 5:
			c.Step(5)
			idx = c.Read(o.obj.mine[p])
			top = c.Invoke(o.obj.top.ReadOp())
			line = 6
		case 6:
			c.Step(6)
			c.Write(o.obj.next[idx], topIdx(top))
			// Likewise the next-link: a power failure between the TOP
			// install and a lagging link persist would tear the list.
			c.PersistBuffered(o.obj.next[idx])
			line = 7
		case 7:
			c.Step(7)
			tag := o.obj.nextTag(c, p, idx)
			c.Step(8)
			ok := c.Invoke(o.obj.top.StrictCASOp(), top, tag)
			c.Step(9)
			if ok == 1 {
				return Ack
			}
			line = 5
		case 11:
			c.RecStep(11)
			switch {
			case c.LI() < 3:
				// If the crash was inside the allocator and its recovery
				// just delivered the index, adopt it instead of leaking
				// the cell; otherwise allocate afresh.
				if resp, delivered := c.ChildResp(); delivered && c.LI() == 2 {
					if int(resp) >= len(o.obj.val) {
						panic(fmt.Sprintf("objects: Stack %q capacity exhausted", o.obj.name))
					}
					idx = resp
					line = 3
					continue
				}
				line = 2
			case c.LI() < 8:
				line = 4
			default:
				if resp, valid := o.obj.top.PersistedCASResponse(c); valid && resp == 1 {
					return Ack
				}
				line = 5
			}
		default:
			panic(fmt.Sprintf("objects: stackPush bad line %d", line))
		}
	}
}

// stackPop is POP(), program for process p:
//
//	 2: top <- TOP.READ                     (nested recoverable)
//	 3: if empty(top) then return Empty
//	 4: Victim_p <- top                     (persist the candidate)
//	 5: next <- next[topIdx(top)]
//	 6: Seq_p <- Seq_p + 1
//	 7: ok <- TOP.STRICTCAS(top, pack(p, Seq_p, next))
//	 8: if ok then return val[topIdx(top)] else proceed from line 2
//
//	POP.RECOVER:
//	11: if LI < 7 then proceed from line 2
//	    — LI >= 7: the strict CAS completed:
//	    if persisted response = 1 then return val[topIdx(Victim_p)]
//	    else proceed from line 2
type stackPop struct {
	obj *Stack
}

func (o *stackPop) Info() proc.OpInfo {
	return proc.OpInfo{Obj: o.obj.name, Op: "POP", Entry: 2, RecoverEntry: 11}
}

func (o *stackPop) Exec(c *proc.Ctx, line int) uint64 {
	var (
		p   = c.P()
		top uint64
	)
	for {
		switch line {
		case 2:
			c.Step(2)
			top = c.Invoke(o.obj.top.ReadOp())
			line = 3
		case 3:
			c.Step(3)
			if topIdx(top) == nilIdx {
				return Empty
			}
			line = 4
		case 4:
			c.Step(4)
			c.Write(o.obj.vict[p], top)
			c.PersistBuffered(o.obj.vict[p])
			line = 5
		case 5:
			c.Step(5)
			next := c.Read(o.obj.next[topIdx(top)])
			c.Step(6)
			tag := o.obj.nextTag(c, p, next)
			c.Step(7)
			ok := c.Invoke(o.obj.top.StrictCASOp(), top, tag)
			c.Step(8)
			if ok == 1 {
				return c.Read(o.obj.val[topIdx(top)])
			}
			line = 2
		case 11:
			c.RecStep(11)
			if c.LI() < 7 {
				line = 2
				continue
			}
			if resp, valid := o.obj.top.PersistedCASResponse(c); valid && resp == 1 {
				return c.Read(o.obj.val[topIdx(c.Read(o.obj.vict[p]))])
			}
			line = 2
		default:
			panic(fmt.Sprintf("objects: stackPop bad line %d", line))
		}
	}
}
