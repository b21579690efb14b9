// Package universal is a recoverable universal construction: given ANY
// deterministic sequential specification (a spec.Model), it builds an
// object satisfying nesting-safe recoverable linearizability, carrying
// the paper's modularity program (§3.4) to its logical end — Herlihy's
// universality result transplanted into the crash-recovery model.
//
// The construction is a durable operation log. An invocation appends a
// cell describing the operation to a linked chain in NVRAM; the append's
// linearization point is a primitive cas on the predecessor's next word,
// recoverable for the same structural reason as the queue's enqueue (cell
// indices are globally unique and next words are written at most once, so
// "next[pred] = my cell" is a stable success witness). The response is
// then REPLAYED: fold the model over the chain prefix up to the
// operation's own cell. Because the replay is a deterministic function of
// durable state, the response can be recomputed after any number of
// crashes — no strictness machinery is needed at all, which is the
// construction's conceptual payoff: determinism turns the paper's
// lost-response problem into a non-problem.
//
// Costs are deliberately correctness-first: an operation walks the chain
// (O(n)) and replays it (O(n)); use the hand-built objects of packages
// core/objects for anything performance-sensitive.
package universal

import (
	"fmt"

	"nrl/internal/nvm"
	"nrl/internal/objects"
	"nrl/internal/proc"
	"nrl/internal/spec"
)

// nilIdx marks the absence of a successor.
const nilIdx = ^uint64(0)

// maxArgs is the number of argument words a cell carries.
const maxArgs = 2

// Object is a recoverable object driven by a sequential specification.
type Object struct {
	name  string
	model spec.Model
	codes map[string]uint64 // op name -> code (index+1)
	names []string

	alloc  *objects.FAA
	opcode []nvm.Addr
	nargs  []nvm.Addr
	args   [][maxArgs]nvm.Addr
	next   []nvm.Addr
	mine   []nvm.Addr // MyCell_p
	targ   []nvm.Addr // LinkTarget_p

	// scratch is the per-process replay argument buffer (indexed by
	// process id): replay decodes each logged cell's arguments into its
	// caller's slot instead of allocating per hop, keeping the log fold
	// on the recoverable-op hot path allocation-free. The slice handed
	// to Model.Apply is valid only for that call.
	scratch [][maxArgs]uint64

	ops map[string]*invokeOp
}

// New builds a recoverable object for the given model. capacity bounds
// the total number of operations over the object's lifetime; opNames
// fixes the operation alphabet (each must be accepted by the model).
func New(sys *proc.System, name string, model spec.Model, capacity int, opNames []string) *Object {
	if capacity <= 0 {
		panic(fmt.Sprintf("universal: %q capacity %d out of range", name, capacity))
	}
	if len(opNames) == 0 {
		panic(fmt.Sprintf("universal: %q needs a non-empty operation alphabet", name))
	}
	mem := sys.Mem()
	n := sys.N()
	o := &Object{
		name:    name,
		model:   model,
		codes:   make(map[string]uint64, len(opNames)),
		names:   append([]string(nil), opNames...),
		alloc:   objects.NewFAA(sys, name+".alloc"),
		opcode:  mem.AllocArray(name+".op", capacity+1, 0),
		nargs:   mem.AllocArray(name+".nargs", capacity+1, 0),
		next:    mem.AllocArray(name+".next", capacity+1, nilIdx),
		mine:    mem.AllocArray(name+".MyCell", n+1, 0),
		targ:    mem.AllocArray(name+".Targ", n+1, 0),
		scratch: make([][maxArgs]uint64, n+1),
		ops:     make(map[string]*invokeOp, len(opNames)),
	}
	o.args = make([][maxArgs]nvm.Addr, capacity+1)
	for i := range o.args {
		for j := 0; j < maxArgs; j++ {
			o.args[i][j] = mem.Alloc(fmt.Sprintf("%s.arg%d[%d]", name, j, i), 0)
		}
	}
	for i, op := range opNames {
		o.codes[op] = uint64(i + 1)
		o.ops[op] = &invokeOp{obj: o, op: op}
	}
	return o
}

// Name returns the object's name.
func (o *Object) Name() string { return o.name }

// Invoke performs the named operation with the given arguments (at most
// two) and returns its response under the model.
func (o *Object) Invoke(c *proc.Ctx, op string, args ...uint64) uint64 {
	impl, ok := o.ops[op]
	if !ok {
		panic(fmt.Sprintf("universal: %q has no operation %q", o.name, op))
	}
	if len(args) > maxArgs {
		panic(fmt.Sprintf("universal: %q supports at most %d arguments", o.name, maxArgs))
	}
	return c.Invoke(impl, args...)
}

// Op exposes the named operation for direct nesting.
func (o *Object) Op(op string) proc.Operation {
	impl, ok := o.ops[op]
	if !ok {
		panic(fmt.Sprintf("universal: %q has no operation %q", o.name, op))
	}
	return impl
}

// AllocName returns the nested allocator's name for checker wiring.
func (o *Object) AllocName() string { return o.alloc.Name() }

// replay folds the model over the chain prefix ending at cell idx and
// returns that operation's response. All consulted cells are immutable
// once linked, so the fold is a pure function of durable state.
func (o *Object) replay(c *proc.Ctx, idx uint64) uint64 {
	st := o.model.Init()
	cur := c.Read(o.next[0])
	for {
		if cur == nilIdx {
			panic(fmt.Sprintf("universal: %q cell %d not reachable during replay", o.name, idx))
		}
		code := c.Read(o.opcode[cur])
		n := c.Read(o.nargs[cur])
		args := o.scratch[c.P()][:n]
		for j := uint64(0); j < n; j++ {
			args[j] = c.Read(o.args[cur][j])
		}
		st2, resp, err := o.model.Apply(st, o.names[code-1], args)
		if err != nil {
			panic(fmt.Sprintf("universal: %q replay: %v", o.name, err))
		}
		st = st2
		if cur == idx {
			return resp
		}
		cur = c.Read(o.next[cur])
	}
}

// invokeOp is the append-and-replay machine, program for process p:
//
//	 1: idx <- alloc.FAA(1) + 1             (nested recoverable)
//	 2: MyCell_p <- idx
//	 3: cell <- (opcode, args); next[idx] <- nil   (cell still private)
//	 4: walk: cur <- 0; while next[cur] != nil: cur <- next[cur]
//	 5: Targ_p <- cur
//	 6: ok <- cas(next[cur], nil, idx)      (primitive; linearization)
//	 7: if not ok then proceed from line 4
//	 8: return replay(idx)
//
//	RECOVER:
//	10: if LI < 2: adopt a delivered allocator response or re-allocate
//	    if LI < 6: proceed from line 3      (cell private)
//	    if next[Targ_p] = MyCell_p: the append is linearized — the
//	      response is a deterministic replay, proceed from line 8
//	    else proceed from line 4
type invokeOp struct {
	obj *Object
	op  string
}

func (o *invokeOp) Info() proc.OpInfo {
	return proc.OpInfo{Obj: o.obj.name, Op: o.op, Entry: 1, RecoverEntry: 10}
}

func (o *invokeOp) Exec(c *proc.Ctx, line int) uint64 {
	var (
		p   = c.P()
		idx uint64
		cur uint64
	)
	for {
		switch line {
		case 1:
			c.Step(1)
			idx = c.Invoke(o.obj.alloc.AddOp(), 1) + 1
			if int(idx) >= len(o.obj.opcode) {
				panic(fmt.Sprintf("universal: %q capacity exhausted", o.obj.name))
			}
			line = 2
		case 2:
			c.Step(2)
			c.Write(o.obj.mine[p], idx)
			line = 3
		case 3:
			c.Step(3)
			idx = c.Read(o.obj.mine[p])
			c.Write(o.obj.opcode[idx], o.obj.codes[o.op])
			nargs := c.NArgs()
			c.Write(o.obj.nargs[idx], uint64(nargs))
			for j := 0; j < nargs; j++ {
				c.Write(o.obj.args[idx][j], c.Arg(j))
			}
			c.Write(o.obj.next[idx], nilIdx)
			line = 4
		case 4:
			c.Step(4)
			idx = c.Read(o.obj.mine[p])
			cur = 0
			for c.Read(o.obj.next[cur]) != nilIdx {
				c.Step(4)
				cur = c.Read(o.obj.next[cur])
			}
			c.Step(5)
			c.Write(o.obj.targ[p], cur)
			c.Step(6)
			ok := c.CAS(o.obj.next[cur], nilIdx, idx)
			c.Step(7)
			if !ok {
				line = 4
				continue
			}
			line = 8
		case 8:
			c.Step(8)
			return o.obj.replay(c, c.Read(o.obj.mine[p]))
		case 10:
			c.RecStep(10)
			switch {
			case c.LI() < 2:
				if resp, delivered := c.ChildResp(); delivered && c.LI() == 1 {
					if int(resp)+1 >= len(o.obj.opcode) {
						panic(fmt.Sprintf("universal: %q capacity exhausted", o.obj.name))
					}
					idx = resp + 1
					line = 2
					continue
				}
				line = 1
			case c.LI() < 6:
				line = 3
			default:
				idx = c.Read(o.obj.mine[p])
				if c.Read(o.obj.next[c.Read(o.obj.targ[p])]) == idx {
					line = 8
					continue
				}
				line = 4
			}
		default:
			panic(fmt.Sprintf("universal: invokeOp bad line %d", line))
		}
	}
}
