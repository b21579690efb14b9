package bench

import (
	"fmt"
	"sort"

	"nrl/internal/baseline"
	"nrl/internal/core"
	"nrl/internal/flightrec"
	"nrl/internal/nvm"
	"nrl/internal/objects"
	"nrl/internal/proc"
	"nrl/internal/trace"
)

// HeapWords sizes the backing heap of the memory-level benchmarks: a
// production-scale word count, so any cost that is O(total words) — the
// pre-shard fence scanned the entire array for flushed words — shows up
// as it would in a real system instead of being hidden by a toy heap.
const HeapWords = 1 << 14

// NVMSuite returns the memory-level benchmarks ("nvm" report): the
// buffered persist discipline under scaling and contention, the
// untraced primitive fast path, and allocation. These are the
// BENCH_nvm.json rows the CI regression gate watches.
func NVMSuite() []Spec {
	var specs []Spec
	for _, n := range []int{1, 2, 4, 8} {
		n := n
		specs = append(specs, Spec{
			Name:    fmt.Sprintf("BufferedCASPersist/procs=%d", n),
			Workers: n,
			Setup: func(workers, _ int) (*nvm.Memory, []func(int)) {
				mem := nvm.New(nvm.WithMode(nvm.Buffered))
				mem.AllocArray("heap", HeapWords, 0)
				addrs := mem.AllocArray("w", workers, 0)
				ops := make([]func(int), workers)
				for w := range ops {
					at := trace.Attr{P: w + 1}
					a := addrs[w]
					ops[w] = func(int) {
						v := mem.ReadAt(a, at)
						mem.CASAt(a, v, v+1, at)
						mem.FlushAt(a, at)
						mem.FenceAt(at)
					}
				}
				return mem, ops
			},
		})
	}
	for _, n := range []int{1, 8} {
		n := n
		specs = append(specs, Spec{
			Name:    fmt.Sprintf("BufferedContendedCAS/procs=%d", n),
			Workers: n,
			Setup: func(workers, _ int) (*nvm.Memory, []func(int)) {
				mem := nvm.New(nvm.WithMode(nvm.Buffered))
				mem.AllocArray("heap", HeapWords, 0)
				a := mem.Alloc("w", 0)
				ops := make([]func(int), workers)
				for w := range ops {
					at := trace.Attr{P: w + 1}
					ops[w] = func(int) {
						v := mem.ReadAt(a, at)
						mem.CASAt(a, v, v+1, at)
					}
				}
				return mem, ops
			},
		})
	}
	for _, mode := range []nvm.Mode{nvm.ADR, nvm.Buffered} {
		specs = append(specs, writeRow("UntracedWrite/mode="+mode.String(), mode, false))
	}
	specs = append(specs, Spec{
		Name:    "Alloc",
		Workers: 1,
		Setup: func(_, _ int) (*nvm.Memory, []func(int)) {
			mem := nvm.New()
			return mem, []func(int){func(int) { mem.Alloc("x", 0) }}
		},
	})
	return specs
}

// procRow is a row whose workers are the processes of one fresh system
// configured by cfg (nil: the defaults); install builds the object
// under test and returns each process's op.
func procRow(name string, procs int, cfg func() proc.Config, install func(sys *proc.System, totalOps int) func(*proc.Ctx) func(int)) Spec {
	return Spec{
		Name:    name,
		Workers: procs,
		Setup: func(workers, totalOps int) (*nvm.Memory, []func(int)) {
			var c proc.Config
			if cfg != nil {
				c = cfg()
			}
			c.Procs = workers
			sys := proc.NewSystem(c)
			op := install(sys, totalOps)
			fns := make([]func(int), workers)
			for w := range fns {
				fns[w] = op(sys.Proc(w + 1).Ctx())
			}
			return sys.Mem(), fns
		},
	}
}

// one is a single-process row over a default system. The harness's
// iteration index restarts every round, so an op that needs distinct or
// growing arguments counts its own calls.
func one(name string, build func(sys *proc.System, c *proc.Ctx, totalOps int) func(int)) Spec {
	return procRow(name, 1, nil, func(sys *proc.System, totalOps int) func(*proc.Ctx) func(int) {
		return func(c *proc.Ctx) func(int) { return build(sys, c, totalOps) }
	})
}

// counterRow is counter INC, baseline or Algorithm 4.
func counterRow(name string, procs int, recoverable bool, cfg func() proc.Config) Spec {
	return procRow(name, procs, cfg, func(sys *proc.System, _ int) func(*proc.Ctx) func(int) {
		if recoverable {
			ctr := objects.NewCounter(sys, "ctr")
			return func(c *proc.Ctx) func(int) { return func(int) { ctr.Inc(c) } }
		}
		ctr := baseline.NewCounter(sys, "ctr")
		return func(c *proc.Ctx) func(int) { return func(int) { ctr.Inc(c) } }
	})
}

// registerWriteRow writes a fresh value per op to a baseline register
// or an Algorithm 1 register.
func registerWriteRow(name string, recoverable bool) Spec {
	return one(name, func(sys *proc.System, c *proc.Ctx, _ int) func(int) {
		k := uint64(0)
		if recoverable {
			r := core.NewRegister(sys, "r", 0)
			return func(int) { k++; r.Write(c, k) }
		}
		r := baseline.NewRegister(sys, "r", 0)
		return func(int) { k++; r.Write(c, k) }
	})
}

// stackRow is one PUSH+POP per op. The stack's allocator advances
// monotonically, so its capacity covers every op of the run (warmup
// included); the same holds for queueRow's ENQ+DEQ.
func stackRow(name string, cfg func() proc.Config) Spec {
	return procRow(name, 1, cfg, func(sys *proc.System, totalOps int) func(*proc.Ctx) func(int) {
		s := objects.NewStack(sys, "s", totalOps+16)
		return func(c *proc.Ctx) func(int) { return func(i int) { s.Push(c, uint64(i)+1); s.Pop(c) } }
	})
}

// queueRow is one ENQ+DEQ per op.
func queueRow(name string, cfg func() proc.Config) Spec {
	return procRow(name, 1, cfg, func(sys *proc.System, totalOps int) func(*proc.Ctx) func(int) {
		q := objects.NewQueue(sys, "q", totalOps+16)
		return func(c *proc.Ctx) func(int) { return func(i int) { q.Enqueue(c, uint64(i)+1); q.Dequeue(c) } }
	})
}

// ObjectsSuite returns the object-level benchmarks ("objects" report):
// recoverable operations end to end through proc.Ctx. The counter runs
// in both persistence modes (its registers follow the paper's ADR
// model, so the Buffered rows price the mode itself); the stack and
// queue use the explicit persist discipline and carry real
// flushes/fences-per-op rates. Each worker is one process of the
// system, using its own Ctx from its own goroutine.
func ObjectsSuite() []Spec {
	// memory configures a fresh memory in mode and, when frec is set, a
	// fresh flight recorder.
	memory := func(mode nvm.Mode, frec *flightrec.Options) func() proc.Config {
		return func() proc.Config {
			c := proc.Config{Mem: nvm.New(nvm.WithMode(mode))}
			if frec != nil {
				c.FlightRec = flightrec.NewRecorder(*frec)
			}
			return c
		}
	}
	counter := func(mode nvm.Mode, n int, frec *flightrec.Options, suffix string) Spec {
		return counterRow(fmt.Sprintf("Counter/Inc/mode=%s/procs=%d%s", mode, n, suffix), n, true, memory(mode, frec))
	}
	// Each flight-recorder row runs immediately after its bare baseline:
	// the overhead gate (see Overhead and OverheadPairs) is a ratio of
	// the two, and on a shared machine the ratio is only meaningful when
	// both rows saw the same machine — adjacent rows are seconds apart,
	// rows at opposite ends of the suite are minutes apart. The gate
	// holds the shallow rows to RecorderOverheadBudget; the deep row is
	// informational (checkpoint-per-step is a debugging mode).
	var specs []Spec
	for _, mode := range []nvm.Mode{nvm.ADR, nvm.Buffered} {
		base := counter(mode, 1, nil, "")
		inst := counter(mode, 1, &flightrec.Options{}, "/flightrec=on")
		// The pair's rounds interleave: the overhead gate divides these
		// two rows, and a ratio of measurements taken at different
		// moments of a shared machine's life measures the machine.
		base.Group = "counter-frec-" + mode.String()
		inst.Group = base.Group
		specs = append(specs, base, inst)
	}
	for _, mode := range []nvm.Mode{nvm.ADR, nvm.Buffered} {
		specs = append(specs, counter(mode, 8, nil, ""))
	}
	return append(specs,
		counter(nvm.ADR, 1, &flightrec.Options{Deep: true}, "/flightrec=deep"),
		registerWriteRow("Register/Write/mode=ADR/procs=1", true),
		stackRow("Stack/PushPop/mode=Buffered/procs=1", memory(nvm.Buffered, nil)),
		queueRow("Queue/EnqDeq/mode=Buffered/procs=1", memory(nvm.Buffered, nil)),
	)
}

// Suites maps suite name to its specs: the registry `nrlbench -json`
// and the root package's BenchmarkSuites both run.
func Suites() map[string][]Spec {
	return map[string][]Spec{
		"experiments": ExperimentsSuite(),
		"nvm":         NVMSuite(),
		"objects":     ObjectsSuite(),
		"persist":     PersistSuite(),
	}
}

// SuiteNames returns the registered suite names in lexical order.
func SuiteNames() []string {
	suites := Suites()
	names := make([]string, 0, len(suites))
	for name := range suites {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
