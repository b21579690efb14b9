package main

import (
	"math"
	"time"

	"nrl/internal/nvm"
	"nrl/internal/objects"
	"nrl/internal/proc"
)

// backendKind is where a workload's memory keeps its durable side.
type backendKind int

const (
	noBackend      backendKind = iota // ADR memory, the paper's model
	fileBackend                       // Buffered memory over one persist.File
	replicaBackend                    // Buffered memory over a 3-member replica.Set
)

// replicas is the replica-set size of replicated-queue (quorum 2).
const replicas = 3

// workload is one closed-loop workload: the op mix every process's script
// draws from, the script length per process and round, where the memory
// persists, and whether processes crash.
type workload struct {
	name      string
	mix       mix
	scriptLen int
	backend   backendKind
	crashes   bool
}

var workloads = map[string]*workload{
	"mem-mix": {
		name:      "mem-mix",
		mix:       mix{opInc: 30, opRead: 10, opEnq: 20, opDeq: 20, opPush: 10, opPop: 10},
		scriptLen: 100_000,
		crashes:   true,
	},
	"durable-queue": {
		name:      "durable-queue",
		mix:       mix{opEnq: 50, opDeq: 50},
		scriptLen: 600,
		backend:   fileBackend,
	},
	"replicated-queue": {
		name:      "replicated-queue",
		mix:       mix{opEnq: 50, opDeq: 50},
		scriptLen: 500,
		backend:   replicaBackend,
	},
}

const (
	// crashPerStep is mem-mix's per-step crash probability: at about 20
	// steps per op it crashes about one op in 100.
	crashPerStep = 0.0005
	// reopens is how many times a durable round's store is reopened and
	// its objects rebuilt; recovery_ms is the median over all of them.
	reopens = 3
	// verifyOps is the length of each process's script in mem-mix's
	// recorded verification segment, and verifyBudget the node budget of
	// its NRL check.
	verifyOps    = 150
	verifyBudget = 2_000_000
)

// config is one benchmark run.
type config struct {
	workload *workload
	seed     int64
	// seconds is the timed phase's length, summed over rounds. The run
	// starts rounds until it is used up; the last round stops at it.
	seconds float64
	// rounds, when positive, runs exactly that many whole rounds instead.
	rounds    int
	procs     int
	scriptLen int // ops per process and round (0: the workload's default)
	// trace alternates untraced and traced rounds: odd rounds install the
	// layer wrappers and feed the per-layer metrics.
	trace bool
	root  string   // per-run temp root holding every store directory
	spans *spanLog // where traced rounds keep their spans (nil: nowhere)
}

// objs are the objects under test in one incarnation of a system.
type objs struct {
	ctr *objects.Counter
	q   *objects.Queue
	stk *objects.Stack
}

// capacities sizes the queue and stack so that cells, which are never
// reused, cover every insert of the round's scripts. Crashes can leak a
// cell now and then, so crashing workloads get slack.
func capacities(w *workload, scripts [][]op) (qcap, scap int) {
	for _, s := range scripts {
		for _, o := range s {
			switch o.kind {
			case opEnq:
				qcap++
			case opPush:
				scap++
			}
		}
	}
	if w.crashes {
		qcap += qcap/8 + 64
		scap += scap/8 + 64
	}
	return qcap + 1, scap + 1
}

// build allocates the objects the mix uses, always in the same order, so
// that a rebuild over a reopened store finds every word where it was.
func build(sys *proc.System, m *mix, qcap, scap int) objs {
	var o objs
	if m[opInc]+m[opRead] > 0 {
		o.ctr = objects.NewCounter(sys, "ctr")
	}
	if m[opEnq]+m[opDeq] > 0 {
		o.q = objects.NewQueue(sys, "q", qcap)
	}
	if m[opPush]+m[opPop] > 0 {
		o.stk = objects.NewStack(sys, "stk", scap)
	}
	return o
}

// exec makes one scripted call and returns its response (0 for calls
// that return none).
func (o *objs) exec(c *proc.Ctx, s op) uint64 {
	switch s.kind {
	case opInc:
		o.ctr.Inc(c)
	case opRead:
		return o.ctr.Read(c)
	case opEnq:
		o.q.Enqueue(c, s.arg)
	case opDeq:
		return o.q.Dequeue(c)
	case opPush:
		o.stk.Push(c, s.arg)
	case opPop:
		return o.stk.Pop(c)
	}
	return 0
}

// procRun is one process's script and everything it observed. Only the
// process's own goroutine touches it until the round's Wait returns.
type procRun struct {
	pid       int
	script    []op
	attempted int
	done      int // completed ops: a prefix of the script
	errOps    int // ops that completed while Memory.Err() was non-nil
	lat       []uint32
	crashLat  []uint32
	opTime    time.Duration
	incs      uint64
	reads     []uint64
	enq, push []uint64 // values inserted, in order
	deq, pop  []uint64 // values removed, in order
	empty     int      // Dequeue/Pop calls that found nothing
	spans     []span
}

// newProcRun sizes every record for the whole script up front, so that
// the timed phase allocates nothing and sets off no garbage collection of
// its own.
func newProcRun(pid int, script []op) *procRun {
	var n [nOpKinds]int
	for _, o := range script {
		n[o.kind]++
	}
	return &procRun{
		pid:      pid,
		script:   script,
		lat:      make([]uint32, 0, len(script)),
		crashLat: make([]uint32, 0, len(script)/50),
		reads:    make([]uint64, 0, n[opRead]),
		enq:      make([]uint64, 0, n[opEnq]),
		push:     make([]uint64, 0, n[opPush]),
		deq:      make([]uint64, 0, n[opDeq]),
		pop:      make([]uint64, 0, n[opPop]),
	}
}

// gate releases a round's processes together; deadline is written before
// start is closed and only read after.
type gate struct {
	start    chan struct{}
	deadline time.Time
}

func nsClamp(d time.Duration) uint32 {
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// loop runs the script until it ends or the deadline passes. Each op is
// timed from just before the call to just after it returns.
func (pr *procRun) loop(self *proc.Proc, o *objs, mem *nvm.Memory, g *gate, spans *spanLog, round int) {
	<-g.start
	c := self.Ctx()
	for i := range pr.script {
		t0 := time.Now()
		if !g.deadline.IsZero() && !t0.Before(g.deadline) {
			return
		}
		s := pr.script[i]
		crashes := self.Crashes()
		pr.attempted++
		ret := o.exec(c, s)
		t1 := time.Now()
		d := t1.Sub(t0)
		pr.lat = append(pr.lat, nsClamp(d))
		pr.opTime += d
		if self.Crashes() != crashes {
			pr.crashLat = append(pr.crashLat, nsClamp(d))
		}
		if mem.Err() != nil {
			pr.errOps++
		}
		switch s.kind {
		case opInc:
			pr.incs++
		case opRead:
			pr.reads = append(pr.reads, ret)
		case opEnq:
			pr.enq = append(pr.enq, s.arg)
		case opPush:
			pr.push = append(pr.push, s.arg)
		case opDeq:
			if ret == objects.Empty {
				pr.empty++
			} else {
				pr.deq = append(pr.deq, ret)
			}
		case opPop:
			if ret == objects.Empty {
				pr.empty++
			} else {
				pr.pop = append(pr.pop, ret)
			}
		}
		if spans != nil && len(pr.spans) < maxOpSpansPerRound {
			pr.spans = append(pr.spans, span{
				Name:  "objects." + opNames[s.kind],
				Start: spans.since(t0), End: spans.since(t1),
				Op: int64(round)<<40 | int64(pr.pid)<<32 | int64(i+1),
			})
		}
		pr.done++
	}
}
