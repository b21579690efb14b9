package bench

import (
	"sort"

	"nrl/internal/baseline"
	"nrl/internal/core"
	"nrl/internal/flightrec"
	"nrl/internal/nvm"
	"nrl/internal/objects"
	"nrl/internal/proc"
)

// HeapWords sizes the backing heap of E11's memory-level rows: a
// production-scale word count, so any cost that is O(total words) — the
// pre-shard fence scanned the entire array for flushed words — shows up
// as it would in a real system instead of being hidden by a toy heap.
const HeapWords = 1 << 14

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

// memConfig is a row's system configuration: a fresh memory in mode
// and, when frec is set, a fresh flight recorder.
func memConfig(mode nvm.Mode, frec *flightrec.Options) func() proc.Config {
	return func() proc.Config {
		c := proc.Config{Mem: nvm.New(nvm.WithMode(mode))}
		if frec != nil {
			c.FlightRec = flightrec.NewRecorder(*frec)
		}
		return c
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

// Suites maps suite name to its specs: the registry `nrlbench -json`
// and the root package's BenchmarkSuites both run.
func Suites() map[string][]Spec {
	return map[string][]Spec{
		"experiments": ExperimentsSuite(),
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
