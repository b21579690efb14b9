package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"nrl/internal/history"
	"nrl/internal/linearize"
	"nrl/internal/nvm"
	"nrl/internal/objects"
	"nrl/internal/persist"
	"nrl/internal/proc"
	"nrl/internal/replica"
	"nrl/internal/spec"
)

// totals accumulates rounds of one kind (untraced or traced).
type totals struct {
	setup []float64 // s, per round
	ops   int
	// Throughput is kept per round and reported as the median over
	// rounds. Latencies are pooled over all rounds, so that a p99 rests on
	// every tail sample of the run rather than on the thin tail of one
	// round.
	rates     []float64 // ops/s
	lat       []uint32  // ns, per op
	attempted int
	crashLat  []uint32  // ns, per op the injector crashed
	heap      []float64 // MiB, per round
	recovery  []float64 // ms, per reopen
	open      []float64 // ms, per reopen
	build     []float64 // ms, per object construction in set-up
	rebuild   []float64 // ms, per object construction over a reopened store
	store     []float64 // bytes, per round

	// Per-layer sums, gathered only by traced rounds.
	kindLat [nOpKinds][]uint32
	records int // outcome records of completed ops
	empty   int
	opTime  time.Duration
	steps   stepCounts
	mem     nvm.StatsSnapshot
	commits commitStats
	io      ioSnapshot // the single store, or replica member 0
	ioAll   ioSnapshot // every member
}

// bench is one run in progress.
type bench struct {
	cfg      config
	w        *workload
	tot      [2]totals // [0] untraced rounds, [1] traced rounds
	failed   int
	findings findings
	checkMS  []float64 // the verification segment's NRL check
}

// run executes cfg and returns its metrics.
func run(cfg config) (*result, error) {
	if cfg.scriptLen <= 0 {
		cfg.scriptLen = cfg.workload.scriptLen
	}
	b := &bench{cfg: cfg, w: cfg.workload}
	// The run's own records, the pooled latencies above all, grow from
	// round to round. Left to pace itself on them, the collector would
	// run fewer cycles into a late round's set-up than into an early
	// one's. So the run collects garbage itself, before each set-up and
	// after each timed phase (liveHeap), and keeps the collector off in
	// between: every round is set up and timed under the same conditions.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var used time.Duration
	for r := 0; ; r++ {
		if cfg.rounds > 0 && r >= cfg.rounds {
			break
		}
		if cfg.rounds <= 0 && used >= budget {
			break
		}
		var limit time.Duration
		if cfg.rounds <= 0 {
			limit = budget - used
		}
		phase, err := b.round(r, cfg.trace && r%2 == 1, limit)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		used += phase
	}
	if b.w.crashes {
		if err := b.verify(); err != nil {
			b.failed++
			b.findings.add("verification segment: %v", err)
		}
	}
	return b.result(), nil
}

// round runs one round: set up fresh memory (and store) and objects,
// run every process's script in the timed phase, then restart durable
// stores, drain, and audit. limit bounds the timed phase (0: none). It
// returns the timed phase's length.
func (b *bench) round(r int, traced bool, limit time.Duration) (time.Duration, error) {
	w, n := b.w, b.cfg.procs
	t := &b.tot[0]
	var spans *spanLog
	if traced {
		t = &b.tot[1]
		spans = b.cfg.spans
	}
	prs := make([]*procRun, n+1)
	scripts := make([][]op, 0, n)
	for p := 1; p <= n; p++ {
		s := genScript(&w.mix, b.cfg.seed, r, p, b.cfg.scriptLen)
		scripts = append(scripts, s)
		prs[p] = newProcRun(p, s)
	}
	qcap, scap := capacities(w, scripts)
	dir := filepath.Join(b.cfg.root, fmt.Sprintf("round-%d", r))
	defer os.RemoveAll(dir)

	base := liveHeap()
	t0 := time.Now()
	var (
		be  nvm.Backend
		tb  *timedBackend
		ios []*ioCounts
		mem = nvm.New()
	)
	if w.backend != noBackend {
		if traced {
			ios = newIOCounts(w.backend)
		}
		var err error
		if be, err = b.openBackend(dir, ios); err != nil {
			return 0, err
		}
		if traced {
			tb = &timedBackend{inner: be, name: layerOf(w.backend), spans: spans}
			be = tb
		}
		mem = nvm.New(nvm.WithMode(nvm.Buffered), nvm.WithBackend(be))
	}
	var inj proc.Injector = proc.Never{}
	if w.crashes {
		inj = newCrashInjector(b.cfg.seed, r, n, crashPerStep)
	}
	var ci *countingInjector
	if traced {
		ci = newCountingInjector(inj, n)
		inj = ci
	}
	sys := proc.NewSystem(proc.Config{Procs: n, Mem: mem, Injector: inj, RecoverPanics: true})
	tb0 := time.Now()
	o := build(sys, &w.mix, qcap, scap)
	t.build = append(t.build, ms(time.Since(tb0)))
	g := &gate{start: make(chan struct{})}
	for p := 1; p <= n; p++ {
		pr, self := prs[p], sys.Proc(p)
		sys.Go(p, func(*proc.Ctx) { pr.loop(self, &o, mem, g, spans, r) })
	}
	t.setup = append(t.setup, time.Since(t0).Seconds())

	// The timed phase. Counters are drained on both sides of it so that
	// the per-layer deltas cover exactly its ops.
	mem.DrainStats()
	if tb != nil {
		tb.take()
	}
	for _, c := range ios {
		c.take()
	}
	tp := time.Now()
	if limit > 0 {
		g.deadline = tp.Add(limit)
	}
	close(g.start)
	sys.Wait()
	phase := time.Since(tp)
	memStats := mem.DrainStats()

	roundOps := 0
	for _, pr := range prs[1:] {
		roundOps += pr.done
	}
	t.rates = append(t.rates, float64(roundOps)/phase.Seconds())
	t.heap = append(t.heap, float64(liveHeap()-base)/(1<<20))
	for _, pr := range prs[1:] {
		t.lat = append(t.lat, pr.lat...)
		t.ops += pr.done
		t.attempted += pr.attempted
		t.crashLat = append(t.crashLat, pr.crashLat...)
		b.failed += pr.attempted - pr.done + pr.errOps
		if pr.errOps > 0 {
			b.findings.add("process %d: %d ops completed on degraded memory: %v", pr.pid, pr.errOps, mem.Err())
		}
	}
	if traced {
		t.addMem(memStats)
		steps := ci.total()
		steps.addTo(&t.steps)
		if tb != nil {
			st := tb.take()
			t.commits.commits += st.commits
			t.commits.words += st.words
			t.commits.busy += st.busy
			t.commits.lat = append(t.commits.lat, st.lat...)
		}
		for i, c := range ios {
			s := c.take()
			if i == 0 {
				t.io.add(s)
			}
			t.ioAll.add(s)
		}
		for _, pr := range prs[1:] {
			t.opTime += pr.opTime
			t.empty += pr.empty
			for i, d := range pr.lat {
				k := pr.script[i].kind
				t.kindLat[k] = append(t.kindLat[k], d)
			}
			// Every completed op leaves exactly one outcome record, which
			// the audit reads; their count is checked against the ops.
			t.records += int(pr.incs) + len(pr.reads) + len(pr.enq) + len(pr.push) +
				len(pr.deq) + len(pr.pop) + pr.empty
			spans.add(pr.spans...)
		}
	}
	for _, err := range sys.Failures() {
		b.findings.add("%v", err)
	}

	// Restart, drain and audit.
	c := sys.Proc(1).Ctx()
	if w.backend != noBackend {
		if err := be.Close(); err != nil {
			return 0, fmt.Errorf("close store: %w", err)
		}
		t.store = append(t.store, float64(dirBytes(dir)))
		inc, err := b.reopen(t, dir, qcap, scap)
		if err != nil {
			return 0, err
		}
		defer inc.be.Close()
		o, mem, c = inc.o, inc.mem, inc.sys.Proc(1).Ctx()
	}
	if len(sys.Failures()) > 0 {
		// A process died inside an op: its frames are stale and its
		// outcomes unknown, so there is nothing sound to audit.
		return phase, nil
	}
	b.audit(prs[1:], &o, c, mem)
	return phase, nil
}

// incarnation is a memory, system and objects rebuilt over a store.
type incarnation struct {
	be  nvm.Backend
	mem *nvm.Memory
	sys *proc.System
	o   objs
}

// reopen restarts a closed store the way a restarted program would:
// open it, then rebuild the memory and the objects in allocation order
// until the first op could run. It does so reopens times and returns the
// last incarnation, still open.
func (b *bench) reopen(t *totals, dir string, qcap, scap int) (*incarnation, error) {
	var inc *incarnation
	for k := 0; k < reopens; k++ {
		if inc != nil {
			if err := inc.be.Close(); err != nil {
				return nil, fmt.Errorf("close reopened store: %w", err)
			}
		}
		t0 := time.Now()
		be, err := b.openBackend(dir, nil)
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		t1 := time.Now()
		mem := nvm.New(nvm.WithMode(nvm.Buffered), nvm.WithBackend(be))
		sys := proc.NewSystem(proc.Config{Procs: b.cfg.procs, Mem: mem})
		o := build(sys, &b.w.mix, qcap, scap)
		t2 := time.Now()
		t.open = append(t.open, ms(t1.Sub(t0)))
		t.rebuild = append(t.rebuild, ms(t2.Sub(t1)))
		t.recovery = append(t.recovery, ms(t2.Sub(t0)))
		inc = &incarnation{be: be, mem: mem, sys: sys, o: o}
	}
	return inc, nil
}

// audit checks a round's outcomes, draining what is left in the queue and
// stack through c. Every violation counts as one failed op.
func (b *bench) audit(prs []*procRun, o *objs, c *proc.Ctx, mem *nvm.Memory) {
	var f findings
	if o.ctr != nil {
		var incs uint64
		var reads [][]uint64
		for _, pr := range prs {
			incs += pr.incs
			reads = append(reads, pr.reads)
		}
		f.merge(auditCounter(incs, o.ctr.Read(c), reads))
	}
	if o.q != nil {
		var ins, rem [][]uint64
		for _, pr := range prs {
			ins = append(ins, pr.enq)
			rem = append(rem, pr.deq)
		}
		f.merge(auditValues("queue", fifo, ins, rem, drain(c, o.q.Dequeue, ins)))
	}
	if o.stk != nil {
		var ins, rem [][]uint64
		for _, pr := range prs {
			ins = append(ins, pr.push)
			rem = append(rem, pr.pop)
		}
		f.merge(auditValues("stack", lifo, ins, rem, drain(c, o.stk.Pop, ins)))
	}
	if err := mem.Err(); err != nil {
		f.add("memory degraded: %v", err)
	}
	b.failed += f.n
	b.findings.merge(f)
}

// drain removes values until the object reports Empty. It stops after one
// more value than was ever inserted, which only a broken object yields.
func drain(c *proc.Ctx, take func(*proc.Ctx) uint64, inserted [][]uint64) []uint64 {
	limit := 1
	for _, vs := range inserted {
		limit += len(vs)
	}
	var out []uint64
	for len(out) < limit {
		v := take(c)
		if v == objects.Empty {
			break
		}
		out = append(out, v)
	}
	return out
}

// verify runs the untimed verification segment: the first verifyOps ops
// of every process's round-0 script over fresh objects, under the same
// kind of crash streams, recorded into a history that must pass the NRL
// check within its budget.
func (b *bench) verify() error {
	n := b.cfg.procs
	rec := history.NewRecorder()
	sys := proc.NewSystem(proc.Config{
		Procs: n, Recorder: rec, RecoverPanics: true,
		Injector: newCrashInjector(b.cfg.seed, verifyRound, n, crashPerStep),
	})
	scripts := make([][]op, 0, n)
	for p := 1; p <= n; p++ {
		scripts = append(scripts, genScript(&b.w.mix, b.cfg.seed, 0, p, verifyOps))
	}
	qcap, scap := capacities(b.w, scripts)
	o := build(sys, &b.w.mix, qcap, scap)
	for p := 1; p <= n; p++ {
		script := scripts[p-1]
		sys.Go(p, func(c *proc.Ctx) {
			for _, s := range script {
				o.exec(c, s)
			}
		})
	}
	sys.Wait()
	if err := sys.Err(); err != nil {
		return err
	}
	models := linearize.ConventionModels(map[string]spec.Model{
		"ctr": spec.Counter{}, "q": spec.Queue{}, "stk": spec.Stack{},
	})
	t0 := time.Now()
	err := linearize.CheckNRLBudget(models, rec.History(), verifyBudget)
	b.checkMS = append(b.checkMS, ms(time.Since(t0)))
	if errors.Is(err, linearize.ErrSearchBudget) {
		return fmt.Errorf("NRL check ran out of budget, so it proves nothing: %w", err)
	}
	return err
}

// openBackend opens (creating if absent) the workload's store in dir. ios,
// when given, counts each member's physical I/O.
func (b *bench) openBackend(dir string, ios []*ioCounts) (nvm.Backend, error) {
	switch b.w.backend {
	case fileBackend:
		var opts persist.Options
		if ios != nil {
			opts.Inject = ios[0].hook
		}
		f, err := persist.Open(dir, opts)
		if err != nil {
			return nil, err
		}
		return f, nil
	case replicaBackend:
		opts := replica.Options{Seed: b.cfg.seed}
		for i := 0; i < replicas; i++ {
			opts.Dirs = append(opts.Dirs, filepath.Join(dir, fmt.Sprintf("r%d", i)))
		}
		if ios != nil {
			opts.InjectFor = func(i int) func(string) error { return ios[i].hook }
		}
		s, err := replica.Open(opts)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
	return nil, fmt.Errorf("workload %s has no store", b.w.name)
}

func newIOCounts(k backendKind) []*ioCounts {
	n := 1
	if k == replicaBackend {
		n = replicas
	}
	ios := make([]*ioCounts, n)
	for i := range ios {
		ios[i] = new(ioCounts)
	}
	return ios
}

// layerOf names the module whose Commit a workload's backend is.
func layerOf(k backendKind) string {
	if k == replicaBackend {
		return "replica"
	}
	return "persist"
}

func (t *totals) addMem(s nvm.StatsSnapshot) {
	t.mem.Reads += s.Reads
	t.mem.Writes += s.Writes
	t.mem.CASes += s.CASes
	t.mem.TASes += s.TASes
	t.mem.FAAs += s.FAAs
	t.mem.Flushes += s.Flushes
	t.mem.Fences += s.Fences
	t.mem.FenceWords += s.FenceWords
	t.mem.ShardContention += s.ShardContention
}

// liveHeap is the Go heap still reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return int64(st.HeapAlloc)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
