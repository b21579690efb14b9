package harness

import (
	"sync"
	"testing"

	"nrl/internal/nvm"
	"nrl/internal/objects"
	"nrl/internal/proc"
	"nrl/internal/trace"
)

// kindCount is a trace sink counting the primitive events it receives.
type kindCount struct {
	mu sync.Mutex
	n  map[trace.Kind]uint64
}

func (k *kindCount) Emit(e trace.Event) {
	if !e.Kind.Mem() {
		return
	}
	k.mu.Lock()
	k.n[e.Kind]++
	k.mu.Unlock()
}

// TestTracedPrimitivesMatchStats: a traced run emits exactly one event
// per primitive the memory counts. Every operation reaches NVRAM through
// its process's Ctx, so nothing an operation issues escapes the trace —
// recovery paths included. Each real workload (plus the strict FAA, which
// the registry drives only through the lock) runs with 2 processes under
// a seeded controlled scheduler and random crashes, on ADR and on
// Buffered memory; per primitive kind, the events must equal the
// nvm.Stats delta over the run.
func TestTracedPrimitivesMatchStats(t *testing.T) {
	strictFAA := Workload{Name: "faa-strict", Build: func(sys *proc.System, procs, ops int) map[int]func(*proc.Ctx) {
		f := objects.NewFAA(sys, "sfaa")
		return uniform(procs, func(c *proc.Ctx) {
			for i := 0; i < ops; i++ {
				f.AddStrict(c, uint64(c.P()))
			}
		})
	}}
	for _, w := range append(RealWorkloads(), strictFAA) {
		for _, mode := range []nvm.Mode{nvm.ADR, nvm.Buffered} {
			t.Run(w.Name+"/"+mode.String(), func(t *testing.T) {
				mem := nvm.New(nvm.WithMode(mode))
				tr := &kindCount{n: map[trace.Kind]uint64{}}
				procs := w.Procs(2)
				sys := proc.NewSystem(proc.Config{
					Procs:     procs,
					Mem:       mem,
					Tracer:    tr,
					Injector:  &proc.Random{Rate: 0.05, Seed: 7, MaxCrashes: 20},
					Scheduler: proc.NewControlled(proc.RandomPicker(7)),
				})
				bodies := w.Build(sys, procs, 20)
				mem.DrainStats()
				tr.n = map[trace.Kind]uint64{}
				if err := sys.Run(bodies); err != nil {
					t.Fatalf("run: %v", err)
				}
				s := mem.DrainStats()
				for _, c := range []struct {
					k    trace.Kind
					want uint64
				}{
					{trace.MemRead, s.Reads}, {trace.MemWrite, s.Writes},
					{trace.MemCAS, s.CASes}, {trace.MemTAS, s.TASes},
					{trace.MemFAA, s.FAAs}, {trace.MemFlush, s.Flushes},
					{trace.MemFence, s.Fences},
				} {
					if got := tr.n[c.k]; got != c.want {
						t.Errorf("%v: %d events, nvm.Stats counted %d", c.k, got, c.want)
					}
				}
				crashes := 0
				for p := 1; p <= procs; p++ {
					crashes += sys.Proc(p).Crashes()
				}
				if s.Total() == 0 || crashes == 0 {
					t.Errorf("the run issued %d primitives and crashed %d times; want both nonzero", s.Total(), crashes)
				}
			})
		}
	}
}
