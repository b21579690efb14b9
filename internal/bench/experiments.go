package bench

import (
	"fmt"
	"io"
	"math"

	"nrl/internal/baseline"
	"nrl/internal/core"
	"nrl/internal/flightrec"
	"nrl/internal/harness"
	"nrl/internal/history"
	"nrl/internal/linearize"
	"nrl/internal/nvm"
	"nrl/internal/objects"
	"nrl/internal/proc"
	"nrl/internal/rme"
	"nrl/internal/spec"
	"nrl/internal/trace"
	"nrl/internal/universal"
)

// Experiments-suite sizing, in ops per round. A round runs for about a
// millisecond or more, so its time is the op's cost rather than timer
// and scheduling grain, and no longer, so that a repeat's passes (one
// round of every row each) sample the machine many times: recoverable
// ops (0.1–4 µs) run the suite default, baseline and raw NVRAM ops
// (10–100 ns) rawOps, and rows whose op is costlier, builds a fresh
// object or checks a whole history carry their own count. Memory bounds
// the test-and-set pools and the Alloc row instead: a pool holds a fresh
// object for every op of every pass, and Alloc adds a word per op to a
// memory it renews every allocOps words.
const (
	experimentsDefaultOps = 10_000
	experimentsRounds     = 4 // a repeat runs at most 24 passes (see MeasureGroup)
	experimentsRepeats    = 3
	rawOps                = 150_000
	tasOps                = 10_000  // baseline T&S: a fresh object per op
	allocOps              = 24_576  // E11's Alloc: a fresh 80-byte word per op; see the row
	recTASOps             = 2000    // recoverable T&S: a fresh object per op
	tasRoundOps           = 200     // E6: a fresh object and N processes per op
	uniLog                = 250     // E10: INCs per universal object (see poolRow)
	rangeOps              = 1 << 20 // ops per FAA, max register or lock (see poolRow)
)

// casChain is a chain of successful recoverable CASes, each installing
// a fresh value.
func casChain(name string, strict bool) Spec {
	return one(name, func(sys *proc.System, c *proc.Ctx, _ int) func(int) {
		o := core.NewCASObject(sys, "c")
		cas := o.CAS
		if strict {
			cas = o.StrictCAS
		}
		var prev uint64
		var k uint32
		return func(int) {
			next := core.DistinctCAS(1, k%core.MaxCASSeq+1, k)
			cas(c, prev, next)
			prev, k = next, k+1
		}
	})
}

// retryRow is E3's read-then-CAS loop. One op is one successful update,
// so failed attempts show up in mem_ops_per_op.
func retryRow(procs int, variant string) Spec {
	return procRow(fmt.Sprintf("CAS/RetryLoop/%s/procs=%d", variant, procs), procs, nil,
		func(sys *proc.System, _ int) func(*proc.Ctx) func(int) {
			if variant == "baseline" {
				o := baseline.NewCAS(sys, "c", 0)
				return func(c *proc.Ctx) func(int) {
					return func(int) {
						for cur := o.Read(c); !o.CompareAndSwap(c, cur, cur+1); cur = o.Read(c) {
						}
					}
				}
			}
			o := core.NewCASObject(sys, "c")
			return func(c *proc.Ctx) func(int) {
				p, seq := c.P(), uint32(0)
				return func(int) {
					for cur := o.Read(c); ; cur = o.Read(c) {
						if seq++; o.CAS(c, cur, core.DistinctCAS(p, seq%core.MaxCASSeq+1, seq)) {
							return
						}
					}
				}
			}
		})
}

// poolRow is a single-process row whose op cycles through fresh
// pre-built objects, period ops each. Test-and-set is one-shot (period
// 1). A universal construction replays its whole log per op, so on one
// object every round would price a longer log than the one before; with
// a period of uniLog every window of uniLog ops prices each log length
// 0..uniLog-1 exactly once. An FAA's running sum, a max register's
// value and a lock's ticket count are bounded by objects.MaxFAAValue, so
// those rows move to a fresh object every rangeOps ops, however many
// ops a run asks for.
func poolRow(name string, ops, period int, newObj func(sys *proc.System) func(*proc.Ctx)) Spec {
	s := one(name, func(sys *proc.System, c *proc.Ctx, totalOps int) func(int) {
		objs := make([]func(*proc.Ctx), totalOps/period+1)
		for k := range objs {
			objs[k] = newObj(sys)
		}
		k, left := 0, period
		return func(int) {
			objs[k](c)
			if left--; left == 0 {
				k, left = k+1, period
			}
		}
	})
	s.Ops = ops
	return s
}

// tasRoundRow is E6's op: a round of the shared tas workload, N
// processes each doing T&S on one fresh object. In the all-crash variant
// every contender crashes right after the critical primitive (line 9),
// so its recovery waits out the others (Theorem 4). Rounds share one
// memory, so mem_ops_per_op covers them.
func tasRoundRow(procs int, variant string) Spec {
	w, _ := harness.WorkloadByName("tas")
	return Spec{
		Name:    fmt.Sprintf("TAS/Round/%s/procs=%d", variant, procs),
		Workers: 1,
		Ops:     tasRoundOps,
		Setup: func(_, _ int) (*nvm.Memory, []func(int)) {
			mem := nvm.New()
			return mem, []func(int){func(int) {
				var inj proc.Multi
				for p := 1; variant == "all-crash" && p <= procs; p++ {
					inj = append(inj, &proc.AtLine{Proc: p, Obj: "tas", Op: "T&S", Line: 9})
				}
				sys := proc.NewSystem(proc.Config{Procs: procs, Mem: mem, Injector: inj})
				if err := sys.Run(w.Build(sys, procs, 1)); err != nil {
					panic("bench: " + err.Error())
				}
			}}
		},
	}
}

// checkerRow is E7's op: one NRL check of a fixed history of the
// shared counter workload (3 processes, ops each; crash rate 2e-3, at
// most 10 crashes), recorded under a seeded controlled scheduler so
// every run checks the same history.
func checkerRow(ops, checks int) Spec {
	w, _ := harness.WorkloadByName("counter")
	return Spec{
		Name:    fmt.Sprintf("Checker/NRL/counter/procs=3/ops=%d", ops),
		Workers: 1,
		Ops:     checks,
		Setup: func(_, _ int) (*nvm.Memory, []func(int)) {
			rec := history.NewRecorder()
			sys := proc.NewSystem(proc.Config{
				Procs:     3,
				Recorder:  rec,
				Injector:  &proc.Random{Rate: 0.002, Seed: 1, MaxCrashes: 10},
				Scheduler: proc.NewControlled(proc.RandomPicker(1)),
			})
			if err := sys.Run(w.Build(sys, 3, ops)); err != nil {
				panic("bench: " + err.Error())
			}
			h := rec.History()
			return nil, []func(int){func(int) {
				if err := linearize.CheckNRL(w.Models, h); err != nil {
					panic("bench: " + err.Error())
				}
			}}
		},
	}
}

// writeRow is E8's raw NVRAM store, bare or followed by flush+fence.
func writeRow(name string, mode nvm.Mode, persist bool) Spec {
	return Spec{
		Name:    name,
		Workers: 1,
		Setup: func(_, _ int) (*nvm.Memory, []func(int)) {
			mem := nvm.New(nvm.WithMode(mode))
			a := mem.Alloc("x", 0)
			if persist {
				return mem, []func(int){func(i int) { mem.Write(a, uint64(i)); mem.Persist(a) }}
			}
			//nrl:ignore benchmark prices the bare store; leaving it unflushed is the point
			return mem, []func(int){func(i int) { mem.Write(a, uint64(i)) }}
		},
	}
}

// bufferedCASRow is one of E11's memory-level rows on Buffered memory
// with a HeapWords heap: each process CASes its own word, then flushes
// and fences it (BufferedCASPersist), or every process CASes one shared
// word (BufferedContendedCAS).
func bufferedCASRow(procs int, persist bool) Spec {
	name := "BufferedContendedCAS"
	if persist {
		name = "BufferedCASPersist"
	}
	return withOps(rawOps, Spec{
		Name:    fmt.Sprintf("%s/procs=%d", name, procs),
		Workers: procs,
		Setup: func(workers, _ int) (*nvm.Memory, []func(int)) {
			mem := nvm.New(nvm.WithMode(nvm.Buffered))
			mem.AllocArray("heap", HeapWords, 0)
			words := 1
			if persist {
				words = workers
			}
			addrs := mem.AllocArray("w", words, 0)
			ops := make([]func(int), workers)
			for w := range ops {
				p, a := w+1, addrs[w%words]
				ops[w] = func(int) {
					v := mem.ReadAt(a, p)
					mem.CASAt(a, v, v+1, p)
					if persist {
						mem.FlushAt(a, p)
						mem.FenceAt(p)
					}
				}
			}
			return mem, ops
		},
	})
}

// withOps sets a row's own op count.
func withOps(ops int, s Spec) Spec {
	s.Ops = ops
	return s
}

// ExperimentsSuite returns the rows of EXPERIMENTS.md's E1–E13 tables
// ("experiments" report), the repository's one in-memory suite. Rows
// two tables share are measured once: E1's READ and CAS are E5's
// non-strict side, and its INC is E2's procs=1, E9/E10's counter, E12's
// ADR side and E13's bare row.
//
// The whole suite is one interleaved Group: a pass runs one round of
// every row, so each row's floor is its best round over the whole run
// rather than over the second or two a row would otherwise occupy, and
// every ratio divides floors of the same passes. A shared machine drifts
// on that scale of seconds. SuiteOptions also repeats the run over fresh
// instances, and a row keeps its best repeat. Every row runs at
// MaxProcs 1: a multi-process row time-slices one core, as processes of
// the paper's model interleave, instead of timing however many host
// cores happen to be free during its rounds. Each flight-recorder row
// directly follows its bare row, so the two segments of an overhead pair
// (OverheadPairs) run back to back in every pass, whichever direction
// the pass takes.
func ExperimentsSuite() []Spec {
	// E1 and E5: registers, CAS and T&S; baseline, recoverable, strict.
	specs := []Spec{
		withOps(rawOps, one("Register/Read/baseline", func(sys *proc.System, c *proc.Ctx, _ int) func(int) {
			r := baseline.NewRegister(sys, "r", 0)
			return func(int) { r.Read(c) }
		})),
		one("Register/Read/recoverable", func(sys *proc.System, c *proc.Ctx, _ int) func(int) {
			r := core.NewRegister(sys, "r", 0)
			return func(int) { r.Read(c) }
		}),
		one("Register/Read/strict", func(sys *proc.System, c *proc.Ctx, _ int) func(int) {
			r := core.NewRegister(sys, "r", 0)
			return func(int) { r.StrictRead(c) }
		}),
		withOps(rawOps, registerWriteRow("Register/Write/baseline", false)),
		registerWriteRow("Register/Write/recoverable", true),
		poolRow("MaxRegister/WriteMax/recoverable", 0, rangeOps, func(sys *proc.System) func(*proc.Ctx) {
			m, k := objects.NewMaxRegister(sys, "m"), uint64(0)
			return func(c *proc.Ctx) { k++; m.WriteMax(c, k) }
		}),
		withOps(rawOps, one("CAS/CAS/baseline", func(sys *proc.System, c *proc.Ctx, _ int) func(int) {
			o, k := baseline.NewCAS(sys, "c", 0), uint64(0)
			return func(int) { o.CompareAndSwap(c, k, k+1); k++ }
		})),
		casChain("CAS/CAS/recoverable", false),
		casChain("CAS/CAS/strict", true),
		poolRow("TAS/TestAndSet/baseline", tasOps, 1, func(sys *proc.System) func(*proc.Ctx) {
			t := baseline.NewTAS(sys, "t")
			return func(c *proc.Ctx) { t.TestAndSet(c) }
		}),
		poolRow("TAS/TestAndSet/recoverable", recTASOps, 1, func(sys *proc.System) func(*proc.Ctx) {
			t := core.NewTAS(sys, "t")
			return func(c *proc.Ctx) { t.TestAndSet(c) }
		}),
	}
	add := func(s ...Spec) { specs = append(specs, s...) }

	// E1's INC and E2's scaling; at procs=1 E13's instrumentation (JSONL
	// encoding is the cost of offline export) and, at procs 1 and 8,
	// E12's Buffered side.
	for _, n := range []int{1, 2, 4, 8} {
		inc := fmt.Sprintf("Counter/Inc/recoverable/procs=%d", n)
		add(withOps(rawOps, counterRow(fmt.Sprintf("Counter/Inc/baseline/procs=%d", n), n, false, nil)),
			counterRow(inc, n, true, nil))
		if n == 1 {
			add(counterRow(inc+"/flightrec=on", 1, true, memConfig(nvm.ADR, &flightrec.Options{})),
				counterRow(inc+"/flightrec=deep", 1, true, memConfig(nvm.ADR, &flightrec.Options{Deep: true})),
				counterRow(inc+"/trace=ring", 1, true,
					func() proc.Config { return proc.Config{Tracer: trace.NewRing(1 << 16)} }),
				withOps(1000, counterRow(inc+"/trace=jsonl", 1, true,
					func() proc.Config { return proc.Config{Tracer: trace.NewJSONL(io.Discard)} })),
				counterRow(inc+"/mode=Buffered", 1, true, memConfig(nvm.Buffered, nil)),
				counterRow(inc+"/mode=Buffered/flightrec=on", 1, true, memConfig(nvm.Buffered, &flightrec.Options{})))
		}
		if n == 8 {
			add(counterRow(inc+"/mode=Buffered", 8, true, memConfig(nvm.Buffered, nil)))
		}
	}
	for _, n := range []int{1, 2, 4, 8} {
		add(withOps(rawOps, retryRow(n, "baseline")), retryRow(n, "recoverable"))
	}
	for _, rate := range []float64{0, 1e-4, 1e-3, 1e-2} {
		add(counterRow(fmt.Sprintf("Counter/Inc/recoverable/procs=1/crash-rate=%g", rate), 1, true,
			func() proc.Config { return proc.Config{Injector: &proc.Random{Rate: rate, Seed: 42}} }))
	}
	for _, n := range []int{2, 4, 8} {
		add(tasRoundRow(n, "crash-free"), tasRoundRow(n, "all-crash"))
	}
	// Check counts keep each checker round near 10–30 ms.
	add(checkerRow(20, 25), checkerRow(100, 5), checkerRow(250, 2), checkerRow(500, 1))
	for _, mode := range []nvm.Mode{nvm.ADR, nvm.Buffered} {
		name := "NVM/Write/mode=" + mode.String()
		add(withOps(rawOps, writeRow(name, mode, false)), withOps(rawOps, writeRow(name+"/persist", mode, true)))
	}
	// E11: the memory-level primitives.
	for _, n := range []int{1, 2, 4, 8} {
		add(bufferedCASRow(n, true))
	}
	add(bufferedCASRow(1, false), bufferedCASRow(8, false), withOps(allocOps, Spec{
		Name:    "Alloc",
		Workers: 1,
		// A fresh memory every allocOps words bounds the row's live heap
		// to one round's words, however many rounds or b.N ops run.
		// allocOps fills three 256-word slabs in each of the 32 banks, so
		// no renewed memory leaves a slab it paid to zero part-used.
		Setup: func(_, _ int) (*nvm.Memory, []func(int)) {
			mem, words := nvm.New(), 0
			return mem, []func(int){func(int) {
				if words == allocOps {
					mem, words = nvm.New(), 0
				}
				mem.Alloc("x", 0)
				words++
			}}
		},
	}))

	// E9 and E12's stack and queue: one op is one PUSH+POP, ENQ+DEQ or
	// ACQ+REL.
	add(
		withOps(rawOps, one("FAA/Add/baseline", func(sys *proc.System, c *proc.Ctx, _ int) func(int) {
			f := baseline.NewFAA(sys, "f")
			return func(int) { f.Add(c, 1) }
		})),
		poolRow("FAA/Add/recoverable", 0, rangeOps, func(sys *proc.System) func(*proc.Ctx) {
			f := objects.NewFAA(sys, "f")
			return func(c *proc.Ctx) { f.Add(c, 1) }
		}),
		withOps(1500, stackRow("Stack/PushPop/recoverable", nil)),
		withOps(1500, stackRow("Stack/PushPop/recoverable/mode=Buffered", memConfig(nvm.Buffered, nil))),
		withOps(1500, queueRow("Queue/EnqDeq/recoverable", nil)),
		withOps(1500, queueRow("Queue/EnqDeq/recoverable/mode=Buffered", memConfig(nvm.Buffered, nil))),
		poolRow("Lock/AcqRel/recoverable", 5000, rangeOps, func(sys *proc.System) func(*proc.Ctx) {
			l := rme.NewLock(sys, "l")
			return func(c *proc.Ctx) { l.Acquire(c); l.Release(c) }
		}),
		poolRow("Universal/Inc/lock-free", uniLog, uniLog, func(sys *proc.System) func(*proc.Ctx) {
			u := universal.New(sys, "u", spec.Counter{}, 3*uniLog+16, []string{"INC"})
			return func(c *proc.Ctx) { u.Invoke(c, "INC") }
		}),
		poolRow("Universal/Inc/wait-free", uniLog, uniLog, func(sys *proc.System) func(*proc.Ctx) {
			u := universal.NewWaitFree(sys, "w", spec.Counter{}, 3*uniLog+16, []string{"INC"})
			return func(c *proc.Ctx) { u.Invoke(c, "INC") }
		}),
	)
	for i := range specs {
		specs[i].Group, specs[i].MaxProcs = "experiments", 1
	}
	return specs
}

// Experiment is one table of EXPERIMENTS.md (E1–E13), rendered from
// rows of an experiments report.
type Experiment struct {
	// ID is "E1".."E13"; Title and Note are the caption.
	ID, Title, Note string
	label           string // the first column's header
	unit            string // what one op is: "op", "update", "round", "check"
	// base and v name a pair table's two column families, such as
	// "baseline" and "recoverable". A table without them is a ladder:
	// its ratio divides every row by the first.
	base, v string
	rows    []row
}

// row is one table line, read from result v and, in a pair table, the
// baseline result base ("" where the row has none).
type row struct{ label, base, v string }

// fmtRows builds rows whose names are formats of their label.
func fmtRows(labels []string, baseFmt, vFmt string) []row {
	rows := make([]row, len(labels))
	for i, l := range labels {
		rows[i] = row{label: l, v: fmt.Sprintf(vFmt, l)}
		if baseFmt != "" {
			rows[i].base = fmt.Sprintf(baseFmt, l)
		}
	}
	return rows
}

// Experiments returns the E1–E13 table layouts in order.
func Experiments() []Experiment {
	procs := []string{"1", "2", "4", "8"}
	incB, incR := "Counter/Inc/baseline/procs=1", "Counter/Inc/recoverable/procs=1"
	return []Experiment{
		{"E1", "E1: recoverable vs baseline primitive cost (1 process, crash-free)",
			"overhead = recoverable / baseline floor; T&S builds a fresh object per op",
			"operation", "op", "baseline", "recoverable", []row{
				{"READ", "Register/Read/baseline", "Register/Read/recoverable"},
				{"WRITE", "Register/Write/baseline", "Register/Write/recoverable"},
				{"CAS", "CAS/CAS/baseline", "CAS/CAS/recoverable"},
				{"T&S", "TAS/TestAndSet/baseline", "TAS/TestAndSet/recoverable"},
				{"INC", incB, incR}}},
		{"E2", "E2: counter INC throughput scaling", "one worker per process, ops split evenly; the processes time-slice one core",
			"procs", "op", "baseline", "recoverable",
			fmtRows(procs, "Counter/Inc/baseline/procs=%s", "Counter/Inc/recoverable/procs=%s")},
		{"E3", "E3: CAS retry loop under contention", "one op = one successful update; the processes time-slice one core, and failed attempts show up as mem ops",
			"procs", "update", "baseline", "recoverable",
			fmtRows(procs, "CAS/RetryLoop/baseline/procs=%s", "CAS/RetryLoop/recoverable/procs=%s")},
		{"E4", "E4: crash-rate sweep (recoverable counter INC, 1 process)",
			"crash probability per step; recovery work shows up as mem ops", "rate", "op", "", "",
			fmtRows([]string{"0", "0.0001", "0.001", "0.01"}, "", "Counter/Inc/recoverable/procs=1/crash-rate=%s")},
		{"E5", "E5: strictness ablation (Definition 1)", "strict operations persist their response in Res_p before returning",
			"operation", "op", "non-strict", "strict", []row{
				{"register READ", "Register/Read/recoverable", "Register/Read/strict"},
				{"CAS", "CAS/CAS/recoverable", "CAS/CAS/strict"}}},
		{"E6", "E6: TAS round cost vs concurrency (contenders crash after t&s)",
			"one op = N processes each doing T&S on a fresh object; a crashed contender's recovery waits out the others",
			"procs", "round", "crash-free", "all-crash",
			fmtRows(procs[1:], "TAS/Round/crash-free/procs=%s", "TAS/Round/all-crash/procs=%s")},
		{"E7", "E7: NRL checker cost vs history length (nrlcheck's counter workload, 3 processes, crash rate 2e-3)",
			"one op = one full check of a fixed recorded history; each process does INCs with a READ after every second one",
			"ops per process", "check", "", "",
			fmtRows([]string{"20", "100", "250", "500"}, "", "Checker/NRL/counter/procs=3/ops=%s")},
		{"E8", "E8: persistence-mode ablation (raw NVRAM writes)", "persist = flush + fence after the store",
			"mode", "op", "", "", []row{
				{"ADR", "", "NVM/Write/mode=ADR"},
				{"ADR + persist", "", "NVM/Write/mode=ADR/persist"},
				{"Buffered", "", "NVM/Write/mode=Buffered"},
				{"Buffered + persist", "", "NVM/Write/mode=Buffered/persist"}}},
		{"E9", "E9: modular recoverable objects (1 process, crash-free)",
			"PUSH+POP, ENQ+DEQ and ACQ+REL are one op each; maxreg's baseline is a plain register write",
			"object/op", "op", "baseline", "recoverable", []row{
				{"counter INC", incB, incR},
				{"FAA", "FAA/Add/baseline", "FAA/Add/recoverable"},
				{"maxreg WRITEMAX", "Register/Write/baseline", "MaxRegister/WriteMax/recoverable"},
				{"stack PUSH+POP", "", "Stack/PushPop/recoverable"},
				{"queue ENQ+DEQ", "", "Queue/EnqDeq/recoverable"},
				{"lock ACQ+REL", "", "Lock/AcqRel/recoverable"}}},
		{"E10", "E10: generality ablation — one counter, four constructions",
			fmt.Sprintf("1 process; baseline is not recoverable; the universal rows INC on logs of 0–%d entries (O(n) replay per op)", uniLog-1),
			"construction", "op", "", "", []row{
				{"baseline", "", incB},
				{"Algorithm 4 (hand-built NRL)", "", incR},
				{"universal construction (NRL)", "", "Universal/Inc/lock-free"},
				{"wait-free universal (NRL)", "", "Universal/Inc/wait-free"}}},
		{"E11", fmt.Sprintf("E11: memory-level primitives (Buffered memory, %d-word heap)", HeapWords),
			"CAS+persist: each process CASes, flushes and fences its own word; contended CAS: every process CASes one word; the processes time-slice one core",
			"primitive", "op", "", "", []row{
				{"CAS+persist, 1 process", "", "BufferedCASPersist/procs=1"},
				{"CAS+persist, 2 processes", "", "BufferedCASPersist/procs=2"},
				{"CAS+persist, 4 processes", "", "BufferedCASPersist/procs=4"},
				{"CAS+persist, 8 processes", "", "BufferedCASPersist/procs=8"},
				{"contended CAS, 1 process", "", "BufferedContendedCAS/procs=1"},
				{"contended CAS, 8 processes", "", "BufferedContendedCAS/procs=8"},
				{"Alloc", "", "Alloc"}}},
		{"E12", "E12: persistence-mode ablation of recoverable objects (crash-free)",
			"Buffered adds the stack's and queue's explicit flushes and fences; the counter's registers follow the paper's ADR model, so its Buffered rows price the mode alone",
			"object/op", "op", "ADR", "Buffered", []row{
				{"counter INC, 1 process", incR, incR + "/mode=Buffered"},
				{"counter INC, 8 processes", "Counter/Inc/recoverable/procs=8", "Counter/Inc/recoverable/procs=8/mode=Buffered"},
				{"counter INC, flight recorder on", incR + "/flightrec=on", incR + "/mode=Buffered/flightrec=on"},
				{"stack PUSH+POP", "Stack/PushPop/recoverable", "Stack/PushPop/recoverable/mode=Buffered"},
				{"queue ENQ+DEQ", "Queue/EnqDeq/recoverable", "Queue/EnqDeq/recoverable/mode=Buffered"}}},
		{"E13", "E13: observability cost (recoverable counter INC, 1 process, ADR)",
			fmt.Sprintf("the shallow flight recorder is the always-on default (budget %.0f%%); deep mode checkpoints every step; the trace sinks take one event per primitive", RecorderOverheadBudget*100),
			"instrumentation", "op", "", "", []row{
				{"none", "", incR},
				{"flight recorder, shallow", "", incR + "/flightrec=on"},
				{"flight recorder, deep", "", incR + "/flightrec=deep"},
				{"trace ring", "", incR + "/trace=ring"},
				{"trace JSONL", "", incR + "/trace=jsonl"}}},
	}
}

// names returns every result the table reads.
func (e Experiment) names() []string {
	var names []string
	for _, r := range e.rows {
		if r.base != "" {
			names = append(names, r.base)
		}
		names = append(names, r.v)
	}
	return names
}

// Table renders the experiment from a report of the experiments suite.
// A pair table shows both results' ns and NVRAM primitives per op and
// their ratio; a ladder shows each row against the first.
func (e Experiment) Table(r *Report) (*harness.Table, error) {
	for _, n := range e.names() {
		if _, ok := r.Result(n); !ok {
			return nil, fmt.Errorf("bench: %s reads row %q, which the %s report lacks", e.ID, n, r.Suite)
		}
	}
	u := e.unit
	cols := []string{e.label, "ns/" + u, "vs " + e.rows[0].label, "mem ops/" + u}
	if e.base != "" {
		cols = []string{e.label, e.base + " ns/" + u, e.v + " ns/" + u, "overhead", e.base + " mem ops/" + u, e.v + " mem ops/" + u}
	}
	t := &harness.Table{Title: e.Title, Note: e.Note, Columns: cols}
	first, _ := r.Result(e.rows[0].v)
	for _, rw := range e.rows {
		v, _ := r.Result(rw.v)
		if e.base == "" {
			t.Add(rw.label, fmtNs(v), ratio(first, v), fmtCount(v))
			continue
		}
		b, _ := r.Result(rw.base)
		t.Add(rw.label, fmtNs(b), fmtNs(v), ratio(b, v), fmtCount(b), fmtCount(v))
	}
	return t, nil
}

// fmtNs prints "n/a" for a row's missing baseline.
func fmtNs(r Result) string {
	if r.Name == "" {
		return "n/a"
	}
	return fmt.Sprintf("%.1f", r.NsPerOp)
}

// fmtCount prints an exact per-op count of NVRAM primitives without
// decimals and a mean with two.
func fmtCount(r Result) string {
	switch {
	case r.Name == "":
		return "n/a"
	case r.MemOpsPerOp == math.Trunc(r.MemOpsPerOp):
		return fmt.Sprintf("%.0f", r.MemOpsPerOp)
	}
	return fmt.Sprintf("%.2f", r.MemOpsPerOp)
}

// ratio divides two rows' floors (each its best round).
func ratio(base, v Result) string {
	if base.NsPerOp == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", v.NsPerOp/base.NsPerOp)
}

// ExperimentSpecs returns the experiments-suite specs the tables read,
// in suite order. They stay one interleaved group, so every ratio still
// divides floors of the same passes.
func ExperimentSpecs(exps []Experiment) []Spec {
	need := map[string]bool{}
	for _, e := range exps {
		for _, n := range e.names() {
			need[n] = true
		}
	}
	var out []Spec
	for _, s := range ExperimentsSuite() {
		if need[s.Name] {
			out = append(out, s)
		}
	}
	return out
}
