package universal

import (
	"fmt"

	"nrl/internal/nvm"
	"nrl/internal/proc"
	"nrl/internal/spec"
)

// WFObject is the WAIT-FREE recoverable universal construction: Herlihy's
// helping protocol transplanted into the crash-recovery model. Every
// invocation completes in a bounded number of its own steps even under
// contention (helpers link announced cells in turn order), and — as in
// the lock-free Object — responses are deterministic replays of the
// durable log, so crashes lose nothing.
//
// The protocol per node is a single-use consensus implemented by a
// primitive cas on the node's next word. Safety against double-linking
// hinges on three orderings, all enforced here:
//
//  1. navigation uses the head[] array only (never chases raw next
//     pointers);
//  2. a process publishes a node in head[] only AFTER setting the node's
//     seq, so any cell reachable through a published head has its seq
//     set; and
//  3. the proposal's "still unlinked" test (seq = 0) — for the helped
//     cell AND for the proposer's own cell — is performed AFTER the head
//     scan fixes the cas target h. Then a cell linked before the scan is
//     visibly linked, and a cell linked after the test can only be
//     linked at the current end, where the cas either is that very
//     linking or fails. Testing the own cell only at the loop top leaves
//     a window in which a helper links it and the owner re-proposes it
//     at a later node, cycling the chain — a bug the randomized checker
//     caught in an earlier version of this file (the same check-placement
//     subtlety is a known erratum class for textbook presentations of
//     the construction); see TestWFRegressionSeed12.
//
// Side note on Theorem 4: the paper proves recoverable TAS cannot have
// wait-free recovery FROM read/write and TAS base objects. This
// construction does not contradict it — its consensus primitive is cas,
// which is strictly stronger than t&s; with cas in the base, even
// universal wait-free recoverability is attainable.
type WFObject struct {
	name  string
	model spec.Model
	codes map[string]uint64
	names []string

	opcode []nvm.Addr
	nargs  []nvm.Addr
	args   [][maxArgs]nvm.Addr
	next   []nvm.Addr
	seq    []nvm.Addr // chain position, 0 = unlinked; sentinel cell 0 has seq 1
	nextC  nvm.Addr   // bump allocator for cells (primitive FAA suffices:
	// a lost index only leaks the cell)
	announce []nvm.Addr // announce[p]: cell p wants linked (0 = none)
	head     []nvm.Addr // head[p]: a linked node p has seen (monotone in seq)
	mine     []nvm.Addr // MyCell_p

	// scratch is the per-process replay argument buffer (indexed by
	// process id); see Object.scratch — same zero-alloc replay contract.
	scratch [][maxArgs]uint64

	ops map[string]*wfInvokeOp
}

// NewWaitFree builds a wait-free recoverable object for the given model.
func NewWaitFree(sys *proc.System, name string, model spec.Model, capacity int, opNames []string) *WFObject {
	if capacity <= 0 {
		panic(fmt.Sprintf("universal: %q capacity %d out of range", name, capacity))
	}
	if len(opNames) == 0 {
		panic(fmt.Sprintf("universal: %q needs a non-empty operation alphabet", name))
	}
	mem := sys.Mem()
	n := sys.N()
	o := &WFObject{
		name:     name,
		model:    model,
		codes:    make(map[string]uint64, len(opNames)),
		names:    append([]string(nil), opNames...),
		opcode:   mem.AllocArray(name+".op", capacity+1, 0),
		nargs:    mem.AllocArray(name+".nargs", capacity+1, 0),
		next:     mem.AllocArray(name+".next", capacity+1, nilIdx),
		seq:      mem.AllocArray(name+".seq", capacity+1, 0),
		nextC:    mem.Alloc(name+".nextCell", 1),
		announce: mem.AllocArray(name+".announce", n+1, 0),
		head:     mem.AllocArray(name+".head", n+1, 0),
		mine:     mem.AllocArray(name+".MyCell", n+1, 0),
		scratch:  make([][maxArgs]uint64, n+1),
		ops:      make(map[string]*wfInvokeOp, len(opNames)),
	}
	o.args = make([][maxArgs]nvm.Addr, capacity+1)
	for i := range o.args {
		for j := 0; j < maxArgs; j++ {
			o.args[i][j] = mem.Alloc(fmt.Sprintf("%s.arg%d[%d]", name, j, i), 0)
		}
	}
	mem.Write(o.seq[0], 1) // the sentinel is "linked" at position 1
	for i, op := range opNames {
		o.codes[op] = uint64(i + 1)
		o.ops[op] = &wfInvokeOp{obj: o, op: op}
	}
	return o
}

// Name returns the object's name.
func (o *WFObject) Name() string { return o.name }

// Invoke performs the named operation (at most two arguments).
func (o *WFObject) Invoke(c *proc.Ctx, op string, args ...uint64) uint64 {
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
func (o *WFObject) Op(op string) proc.Operation {
	impl, ok := o.ops[op]
	if !ok {
		panic(fmt.Sprintf("universal: %q has no operation %q", o.name, op))
	}
	return impl
}

// replay folds the model over the chain prefix ending at cell idx.
func (o *WFObject) replay(c *proc.Ctx, idx uint64) uint64 {
	st := o.model.Init()
	cur := c.Read(o.next[0])
	for hops := 0; ; hops++ {
		if cur == nilIdx {
			panic(fmt.Sprintf("universal: %q cell %d not reachable during replay", o.name, idx))
		}
		if hops >= len(o.next) {
			panic(fmt.Sprintf("universal: %q chain corrupted: cycle detected during replay", o.name))
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

// wfInvokeOp is the wait-free append machine, program for process p:
//
//	 1: idx <- faa(nextCell, 1)             (primitive; a lost index only
//	                                         leaks the cell — the announce
//	                                         below is the recoverable anchor)
//	 2: MyCell_p <- idx
//	 3: cell <- (opcode, args); next <- nil; seq <- 0   (cell private)
//	 4: announce[p] <- idx                  (cell becomes helpable)
//	 5: while seq[idx] = 0:                 (bounded: helpers serve turns)
//	 6:   h <- the head[] entry with maximal seq
//	 7:   q <- (seq[h] mod N) + 1; pref <- announce[q]
//	      if pref = 0 or seq[pref] != 0 then pref <- idx
//	      if seq[pref] != 0 then restart the loop   (post-scan re-check)
//	 8:   cas(next[h], nil, pref)           (the node's consensus)
//	 9:   dec <- next[h]; seq[dec] <- seq[h] + 1        (idempotent)
//	10:   head[p] <- dec                    (publish AFTER seq)
//	11: return replay(idx)
//
//	RECOVER:
//	13: if LI < 2 then proceed from line 1   (cell index lost; leak it)
//	    if LI < 4 then proceed from line 3   (cell still private)
//	    proceed from line 5                  (the loop header re-tests
//	    seq[MyCell_p]; every loop action is idempotent)
type wfInvokeOp struct {
	obj *WFObject
	op  string
}

func (o *wfInvokeOp) Info() proc.OpInfo {
	return proc.OpInfo{Obj: o.obj.name, Op: o.op, Entry: 1, RecoverEntry: 13}
}

func (o *wfInvokeOp) Exec(c *proc.Ctx, line int) uint64 {
	var (
		p    = c.P()
		n    = c.N()
		idx  uint64
		pref uint64
	)
	for {
		switch line {
		case 1:
			c.Step(1)
			idx = c.FAA(o.obj.nextC, 1)
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
			c.Write(o.obj.seq[idx], 0)
			line = 4
		case 4:
			c.Step(4)
			c.Write(o.obj.announce[p], idx)
			line = 5
		case 5:
			c.Step(5)
			idx = c.Read(o.obj.mine[p])
			if c.Read(o.obj.seq[idx]) != 0 {
				line = 11
				continue
			}
			// Line 6: pick the maximal published head (the sentinel 0 is
			// always available).
			c.Step(6)
			h := uint64(0)
			hSeq := c.Read(o.obj.seq[0])
			for i := 1; i <= n; i++ {
				cand := c.Read(o.obj.head[i])
				if s := c.Read(o.obj.seq[cand]); s > hSeq {
					h, hSeq = cand, s
				}
			}
			// Line 7: whose turn is it at this node? The unlinked test of
			// the proposal — INCLUDING the own-cell fallback — must happen
			// AFTER the scan fixed h: a cell linked before the scan is
			// then visibly linked (its seq was set before any head beyond
			// it was published), and a cell linked after this test can
			// only be linked at the current end, where the cas below
			// either is that linking or fails — so no cell is ever
			// proposed twice. Testing the fallback's seq at the loop top
			// instead reintroduces a double-link window (found by the
			// randomized checker; see TestWFRegressionSeed12).
			c.Step(7)
			q := int(hSeq%uint64(n)) + 1
			pref = c.Read(o.obj.announce[q])
			if pref == 0 || c.Read(o.obj.seq[pref]) != 0 {
				pref = idx
				if c.Read(o.obj.seq[idx]) != 0 {
					line = 5 // linked by a helper since the loop test
					continue
				}
			}
			c.Step(8)
			c.CAS(o.obj.next[h], nilIdx, pref)
			c.Step(9)
			dec := c.Read(o.obj.next[h])
			if dec != nilIdx { // the consensus decided; finish the node
				if s := c.Read(o.obj.seq[dec]); s != 0 && s != hSeq+1 {
					// Chain-integrity invariant: a decided cell's position
					// is determined by its predecessor. A violation means
					// a cell was linked twice; fail loudly rather than
					// corrupt the log.
					panic(fmt.Sprintf("universal: %q chain corrupted: cell %d at seq %d relinked after node %d",
						o.obj.name, dec, s, h))
				}
				c.Write(o.obj.seq[dec], hSeq+1)
				c.Step(10)
				c.Write(o.obj.head[p], dec)
			}
			line = 5
		case 11:
			c.Step(11)
			return o.obj.replay(c, c.Read(o.obj.mine[p]))
		case 13:
			c.RecStep(13)
			switch {
			case c.LI() < 2:
				line = 1
			case c.LI() < 4:
				line = 3
			default:
				line = 5
			}
		default:
			panic(fmt.Sprintf("universal: wfInvokeOp bad line %d", line))
		}
	}
}
