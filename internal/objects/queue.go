package objects

import (
	"fmt"

	"nrl/internal/core"
	"nrl/internal/nvm"
	"nrl/internal/proc"
)

// Queue is a recoverable FIFO queue in the Michael–Scott style, built
// from the repository's nesting-safe recoverable base objects plus one
// carefully justified primitive:
//
//   - cells come from a never-reusing NVRAM arena through the recoverable
//     fetch-and-add allocator (no ABA, immutable once linked);
//   - HEAD and TAIL are recoverable CAS objects whose installed values
//     pack the cell index with a (pid, seq) tag (Algorithm 2's
//     distinct-values requirement);
//   - dequeues use the strict CAS variant plus a persisted victim, so a
//     crashed DEQ always recovers its response;
//   - the enqueue linearization point is a PRIMITIVE cas on the
//     predecessor cell's next word. This needs no recoverable wrapper:
//     cell indices are globally unique and a next word is written at most
//     once, so "next[pred] = my cell" is a stable, crash-proof witness
//     that the interrupted cas succeeded — the same once-installed-
//     forever-detectable property Algorithm 2 engineers with its helping
//     matrix, obtained here structurally.
//
// TAIL may lag behind the true last cell (and even behind HEAD after
// dequeues); enqueuers help it forward exactly as in Michael–Scott, and
// an enqueue recovery that cannot cheaply re-swing TAIL simply leaves the
// help to later operations.
//
// On Buffered memory each op fences once per publication (DESIGN.md §5c).
// ENQ makes MyCell_p, the cell's val and next and LinkTarget_p durable in
// one fence before its link CAS, then the link and Seq_p in one fence
// before TAIL's CAS; DEQ makes Victim_p, Seq_p and the link it read in
// one fence before HEAD's strict CAS. A process persists the link it
// moves HEAD or TAIL past (the enqueue helper persists it too), because
// its enqueuer may not have fenced it yet: neither HEAD nor TAIL is ever
// durable past a link that is not. HEAD is durable only at its
// STRICTCAS's line-48 fence, so a DEQ that answers Empty persists the
// HEAD it read first.
type Queue struct {
	name  string
	alloc *FAA
	head  *core.CASObject
	tail  *core.CASObject
	val   []nvm.Addr // nrl:own-process; nrl:persist-before next(cas): cell contents, stored while private, before the link publishes them
	next  []nvm.Addr // nrl:own-process; nrl:persist-before next(cas): nilIdx = no successor yet, stored while private, then linked by CAS
	seq   []nvm.Addr // nrl:own-process; nrl:persist-before next(cas): tag counter durable before a tag is installed
	mine  []nvm.Addr // nrl:own-process; nrl:persist-before next(cas): MyCell_p, the cell being enqueued
	vict  []nvm.Addr // nrl:own-process; nrl:persist-before next(cas): Victim_p (DEQ) and LinkTarget_p (ENQ)

	enq *queueEnq
	deq *queueDeq
}

// NewQueue allocates a recoverable queue with capacity cells (excluding
// the internal dummy cell).
func NewQueue(sys *proc.System, name string, capacity int) *Queue {
	if capacity <= 0 || capacity+1 >= nilIdx {
		panic(fmt.Sprintf("objects: Queue %q capacity %d out of range", name, capacity))
	}
	mem := sys.Mem()
	n := sys.N()
	o := &Queue{
		name:  name,
		alloc: NewFAA(sys, name+".alloc"),
		head:  core.NewCASObject(sys, name+".head"),
		tail:  core.NewCASObject(sys, name+".tail"),
		val:   mem.AllocArray(name+".val", capacity+1, 0),
		next:  mem.AllocArray(name+".next", capacity+1, nilIdx),
		seq:   mem.AllocArray(name+".Seq", n+1, 0),
		mine:  mem.AllocArray(name+".MyCell", n+1, 0),
		vict:  mem.AllocArray(name+".Victim", n+1, 0),
	}
	// Cell 0 is the dummy; HEAD/TAIL hold packed value 0 (the CAS
	// object's null), whose index decodes to 0 via queueIdx.
	o.enq = &queueEnq{obj: o}
	o.deq = &queueDeq{obj: o}
	return o
}

// Name returns the object's name.
func (o *Queue) Name() string { return o.name }

// Enqueue appends v to the queue. v must not equal Empty.
func (o *Queue) Enqueue(c *proc.Ctx, v uint64) {
	if v == Empty {
		panic(fmt.Sprintf("objects: Queue %q cannot enqueue the Empty sentinel", o.name))
	}
	c.Invoke(o.enq, v)
}

// queueIdx extracts the cell index from a packed HEAD/TAIL value; the CAS
// object's initial null (0) denotes the dummy cell 0.
func queueIdx(v uint64) uint64 {
	if v == 0 {
		return 0
	}
	return faaSum(v)
}

// EnqueueOp exposes ENQ for direct nesting.
func (o *Queue) EnqueueOp() proc.Operation { return o.enq }

// DequeueOp exposes DEQ for direct nesting.
func (o *Queue) DequeueOp() proc.Operation { return o.deq }

// Dequeue removes and returns the oldest value, or Empty.
func (o *Queue) Dequeue(c *proc.Ctx) uint64 {
	return c.Invoke(o.deq)
}

// InnerNames returns the nested recoverable objects' names for checker
// wiring.
func (o *Queue) InnerNames() (headCAS, tailCAS, allocFAA, allocCAS string) {
	return o.head.Name(), o.tail.Name(), o.alloc.Name(), o.alloc.CASName()
}

// queueEnq is ENQ(v), program for process p:
//
//	 1: idx <- alloc.FAA(1) + 1              (nested recoverable)
//	 2: MyCell_p <- idx
//	 3: val[idx] <- v; next[idx] <- nil      (cell still private)
//	 4: t <- TAIL.READ                       (nested recoverable)
//	 5: nxt <- next[idx(t)]
//	 6: if nxt != nil then TAIL.CAS(t, tag(p, seq, nxt)), proceed from 4
//	    (fence {next[idx(t)], Seq_p} first: persist on read)
//	 7: LinkTarget_p <- idx(t); fence {MyCell_p, val[idx], next[idx],
//	    LinkTarget_p}
//	 8: ok <- cas(next[idx(t)], nil, idx)    (primitive; linearization)
//	 9: if not ok then proceed from 4
//	10: TAIL.CAS(t, tag(p, seq, idx))        (best-effort swing; fence
//	    {next[idx(t)], Seq_p} first)
//	11: return ack
//
//	ENQ.RECOVER(v):
//	13: if LI < 2: adopt a freshly delivered allocator response if
//	    available, else re-allocate (leaking the lost cell)
//	    if LI < 8: proceed from line 3 (idx <- MyCell_p; cell private)
//	    — LI >= 8: the primitive cas at line 8 ran at least once, against
//	    the predecessor persisted in LinkTarget_p at line 7. Because idx
//	    is globally unique and next words are written at most once,
//	    next[LinkTarget_p] = idx is a stable witness of success: if it
//	    holds, the enqueue is linearized (persist the link, return ack,
//	    leaving the TAIL swing to helpers); otherwise the cas failed and
//	    the loop retries.
type queueEnq struct {
	obj *Queue
}

func (o *queueEnq) Info() proc.OpInfo {
	return proc.OpInfo{Obj: o.obj.name, Op: "ENQ", Entry: 1, RecoverEntry: 13}
}

func (o *queueEnq) Exec(c *proc.Ctx, line int) uint64 {
	var (
		v   = c.Arg(0)
		p   = c.P()
		idx uint64
		t   uint64
	)
	for {
		switch line {
		case 1:
			c.Step(1)
			idx = c.Invoke(o.obj.alloc.AddOp(), 1) + 1
			if int(idx) >= len(o.obj.val) {
				panic(fmt.Sprintf("objects: Queue %q capacity exhausted", o.obj.name))
			}
			line = 2
		case 2:
			c.Step(2)
			c.Write(o.obj.mine[p], idx)
			line = 3
		case 3:
			c.Step(3)
			idx = c.Read(o.obj.mine[p])
			c.Write(o.obj.val[idx], v)
			c.Write(o.obj.next[idx], nilIdx)
			line = 4
		case 4:
			c.Step(4)
			idx = c.Read(o.obj.mine[p])
			t = c.Invoke(o.obj.tail.ReadOp())
			line = 5
		case 5:
			c.Step(5)
			nxt := c.Read(o.obj.next[queueIdx(t)])
			if nxt != nilIdx { // line 6: help swing the lagging tail
				c.Step(6)
				tag := o.obj.nextTag(c, p, nxt)
				// Persist on read: the link TAIL moves past must be
				// durable before TAIL is, or a power failure leaves a
				// durable TAIL beyond a lost link (and with it the
				// enqueues that its owner or this helper completed).
				c.PersistBuffered(o.obj.next[queueIdx(t)], o.obj.seq[p])
				c.Invoke(o.obj.tail.CASOp(), t, tag)
				line = 4
				continue
			}
			line = 7
		case 7:
			c.Step(7)
			c.Write(o.obj.vict[p], queueIdx(t)) // LinkTarget_p
			// One fence before the link makes the private cell and this
			// process's bookkeeping durable together: a power failure
			// must never expose a linked cell with unpersisted contents.
			c.PersistBuffered(o.obj.mine[p], o.obj.val[idx], o.obj.next[idx], o.obj.vict[p])
			c.Step(8)
			ok := c.CAS(o.obj.next[queueIdx(t)], nilIdx, idx)
			c.Step(9)
			if !ok {
				line = 4
				continue
			}
			c.Step(10)
			tag := o.obj.nextTag(c, p, idx)
			// The link is the linearization point: it rides the fence
			// that also retires the tag counter, before TAIL's CAS and
			// the ack.
			c.PersistBuffered(o.obj.next[queueIdx(t)], o.obj.seq[p])
			c.Invoke(o.obj.tail.CASOp(), t, tag)
			c.Step(11)
			return Ack
		case 13:
			c.RecStep(13)
			switch {
			case c.LI() < 2:
				if resp, delivered := c.ChildResp(); delivered && c.LI() == 1 {
					if int(resp)+1 >= len(o.obj.val) {
						panic(fmt.Sprintf("objects: Queue %q capacity exhausted", o.obj.name))
					}
					idx = resp + 1
					line = 2
					continue
				}
				line = 1
			case c.LI() < 8:
				line = 3
			default:
				idx = c.Read(o.obj.mine[p])
				if pred := c.Read(o.obj.vict[p]); c.Read(o.obj.next[pred]) == idx {
					// The interrupted cas succeeded: the enqueue is
					// linearized. Its link may not have reached the
					// fence yet; persist it before the ack. TAIL may
					// lag; later operations help.
					c.PersistBuffered(o.obj.next[pred])
					return Ack
				}
				line = 4
			}
		default:
			panic(fmt.Sprintf("objects: queueEnq bad line %d", line))
		}
	}
}

// nextTag builds a fresh-tagged packed value installing cell idx (shared
// by HEAD and TAIL installs; both draw from the same per-process counter).
func (o *Queue) nextTag(c *proc.Ctx, p int, idx uint64) uint64 {
	s := c.Read(o.seq[p]) + 1
	if s > maxFAASeq {
		panic(fmt.Sprintf("objects: Queue %q exhausted tags for process %d", o.name, p))
	}
	c.Write(o.seq[p], s)
	// The caller persists the counter in the fence before its install,
	// so a power failure cannot roll it back and let a later
	// incarnation reuse a tag (Algorithm 2 requires installed values
	// to be distinct).
	return faaPack(p, s, idx)
}

// queueDeq is DEQ(), program for process p:
//
//	 1: h <- HEAD.READ                       (nested recoverable)
//	 2: nxt <- next[idx(h)]
//	 3: if nxt = nil then return Empty       (fence {HEAD's C} first:
//	                                         persist on read)
//	 4: Victim_p <- nxt
//	 5: ok <- HEAD.STRICTCAS(h, tag(p, seq, nxt))
//	    (fence {Victim_p, Seq_p, next[idx(h)]} first: persist on read)
//	 6: if ok then return val[nxt]
//	 7: proceed from line 1
//
//	DEQ.RECOVER:
//	 9: if LI < 5 then proceed from line 1
//	    — LI >= 5: the strict CAS completed; its persisted response says
//	    whether this dequeue took effect:
//	    if persisted response = 1 then return val[Victim_p]
//	    else proceed from line 1
type queueDeq struct {
	obj *Queue
}

func (o *queueDeq) Info() proc.OpInfo {
	return proc.OpInfo{Obj: o.obj.name, Op: "DEQ", Entry: 1, RecoverEntry: 9}
}

func (o *queueDeq) Exec(c *proc.Ctx, line int) uint64 {
	var (
		p   = c.P()
		h   uint64
		nxt uint64
	)
	for {
		switch line {
		case 1:
			c.Step(1)
			h = c.Invoke(o.obj.head.ReadOp())
			line = 2
		case 2:
			c.Step(2)
			nxt = c.Read(o.obj.next[queueIdx(h)])
			line = 3
		case 3:
			c.Step(3)
			if nxt == nilIdx {
				// Persist on read: the HEAD this answer rests on may be
				// another DEQ's install that is not yet durable.
				o.obj.head.PersistRead(c)
				return Empty
			}
			line = 4
		case 4:
			c.Step(4)
			c.Write(o.obj.vict[p], nxt)
			c.Step(5)
			tag := o.obj.nextTag(c, p, nxt)
			// One fence before HEAD's CAS: Victim_p, the tag counter and
			// (persist on read) the link HEAD moves past, which an
			// enqueuer may not have fenced yet. HEAD is never durable
			// past a link that is not.
			c.PersistBuffered(o.obj.vict[p], o.obj.seq[p], o.obj.next[queueIdx(h)])
			ok := c.Invoke(o.obj.head.StrictCASOp(), h, tag)
			c.Step(6)
			if ok == 1 {
				return c.Read(o.obj.val[nxt])
			}
			line = 1
		case 9:
			c.RecStep(9)
			if c.LI() < 5 {
				line = 1
				continue
			}
			if resp, valid := o.obj.head.PersistedCASResponse(c); valid && resp == 1 {
				return c.Read(o.obj.val[c.Read(o.obj.vict[p])])
			}
			line = 1
		default:
			panic(fmt.Sprintf("objects: queueDeq bad line %d", line))
		}
	}
}
