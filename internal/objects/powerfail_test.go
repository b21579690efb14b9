package objects_test

import (
	"fmt"
	"testing"

	"nrl/internal/nvm"
	"nrl/internal/objects"
	"nrl/internal/proc"
)

// These are the buffered-mode power-failure sweeps for the composite
// objects, the queue/stack extension of the durable package's
// exhaustive tests: the same workload is re-run with a full-system
// power failure (nvm.Memory.CrashAll — every unflushed write lost)
// injected at every persistence-phase transition the workload causes,
// and after each crash a fresh verifier system drains the structure
// through the same recoverable programs. The oracle is durable
// linearizability: every completed operation's effect survives, only
// the in-flight operation may be lost, and the structure is never torn
// (the drain yields exactly a batch prefix — never a stale value, a
// zero cell, or a broken chain).

// powerFail is the sentinel unwinding an execution at the injected
// power-failure point.
type powerFail struct{}

// crasher is a phase hook (nvm.WithPhaseHook) that simulates a power
// failure at the k-th phase transition after it is armed: it discards
// all non-durable state and unwinds. Durable state changes only at
// fences, and every fence, flush and first store to a clean word fires
// the hook, so its points reach every post-crash state that a crash
// after each primitive reaches. The hook runs with no memory lock held,
// so it may call CrashAll.
type crasher struct {
	mem *nvm.Memory
	k   int // the armed point; 0 while disarmed
	n   int
	hit bool
}

func (c *crasher) phase(nvm.Phase) {
	if c.k == 0 {
		return
	}
	c.n++
	if c.n == c.k {
		c.hit = true
		c.mem.CrashAll()
		panic(powerFail{})
	}
}

func (c *crasher) arm(k int) { c.k, c.n = k, 0 }
func (c *crasher) disarm()   { c.k = 0 }

// sweep re-runs a workload over a fresh buffered memory with a power
// failure at crash point k for k = 1, 2, ... until a run completes
// without hitting it. run builds the objects (the crasher disarmed),
// arms the crasher at k, runs the workload, disarms, checks the drained
// state and returns the run's outcome: started and completed operations
// and the drained contents. The sweep must reach want distinct
// outcomes, so a change that drops crash points fails here.
func sweep(t *testing.T, want int, run func(t *testing.T, k int, mem *nvm.Memory, crash *crasher) string) {
	t.Helper()
	outcomes := map[string]bool{}
	for k := 1; ; k++ {
		crash := &crasher{}
		mem := nvm.New(nvm.WithMode(nvm.Buffered), nvm.WithPhaseHook(crash.phase))
		crash.mem = mem
		outcomes[run(t, k, mem, crash)] = true
		if !crash.hit {
			t.Logf("swept power failure at each of %d crash points: %d outcomes", k-1, len(outcomes))
			if len(outcomes) != want {
				t.Errorf("%d distinct outcomes, want %d", len(outcomes), want)
			}
			return
		}
	}
}

// workload invokes body as process 1 on sys, unwinding at a power
// failure, and reports whether the body ran to completion.
func workload(sys *proc.System, body func(*proc.Ctx)) (finished bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(powerFail); !ok {
				panic(r)
			}
		}
	}()
	body(sys.Proc(1).Ctx())
	return true
}

// TestQueuePowerFailureSweep enqueues 1..4 with a power failure at
// every crash point. After the crash, a verifier system sharing the
// same memory (the objects address words, not systems) drains the
// queue; it must yield exactly 1..j for some j with completed <= j <=
// started — FIFO order, no torn cells, no lost completed enqueue.
func TestQueuePowerFailureSweep(t *testing.T) {
	const enqueues = 4
	sweep(t, 9, func(t *testing.T, k int, mem *nvm.Memory, crash *crasher) string {
		sys := proc.NewSystem(proc.Config{Procs: 1, Mem: mem})
		q := objects.NewQueue(sys, "q", 16)
		crash.arm(k)

		started, completed := 0, 0
		workload(sys, func(c *proc.Ctx) {
			for v := 1; v <= enqueues; v++ {
				started = v
				q.Enqueue(c, uint64(v))
				completed = v
			}
		})
		crash.disarm()

		// Drain through a fresh system over the same (post-crash) memory.
		ver := proc.NewSystem(proc.Config{Procs: 1, Mem: mem})
		var got []uint64
		workload(ver, func(c *proc.Ctx) {
			for {
				v := q.Dequeue(c)
				if v == objects.Empty {
					return
				}
				got = append(got, v)
			}
		})

		if len(got) < completed || len(got) > started {
			t.Fatalf("crash point %d: drained %d values (%v), completed %d started %d",
				k, len(got), got, completed, started)
		}
		for i, v := range got {
			if v != uint64(i+1) {
				t.Fatalf("crash point %d: drain out of order or torn: %v (position %d)", k, got, i)
			}
		}
		return fmt.Sprint(started, completed, got)
	})
}

// TestStackPowerFailureSweep is the stack counterpart: pushes 1..4 with
// a power failure at every crash point, then drains. The drain must
// yield exactly j..1 (LIFO) for some j with completed <= j <= started.
func TestStackPowerFailureSweep(t *testing.T) {
	const pushes = 4
	sweep(t, 9, func(t *testing.T, k int, mem *nvm.Memory, crash *crasher) string {
		sys := proc.NewSystem(proc.Config{Procs: 1, Mem: mem})
		s := objects.NewStack(sys, "s", 16)
		crash.arm(k)

		started, completed := 0, 0
		workload(sys, func(c *proc.Ctx) {
			for v := 1; v <= pushes; v++ {
				started = v
				s.Push(c, uint64(v))
				completed = v
			}
		})
		crash.disarm()

		ver := proc.NewSystem(proc.Config{Procs: 1, Mem: mem})
		var got []uint64
		workload(ver, func(c *proc.Ctx) {
			for {
				v := s.Pop(c)
				if v == objects.Empty {
					return
				}
				got = append(got, v)
			}
		})

		if len(got) < completed || len(got) > started {
			t.Fatalf("crash point %d: drained %d values (%v), completed %d started %d",
				k, len(got), got, completed, started)
		}
		for i, v := range got {
			if v != uint64(len(got)-i) {
				t.Fatalf("crash point %d: drain out of order or torn: %v (position %d)", k, got, i)
			}
		}
		return fmt.Sprint(started, completed, got)
	})
}

// TestQueuePowerFailureMidDequeue sweeps power failures over a
// mixed workload — two enqueues, one dequeue, one enqueue — checking
// the drain is always a contiguous FIFO window v..j of 1..3 with the
// dequeue's effect preserved once it completed.
func TestQueuePowerFailureMidDequeue(t *testing.T) {
	sweep(t, 9, func(t *testing.T, k int, mem *nvm.Memory, crash *crasher) string {
		sys := proc.NewSystem(proc.Config{Procs: 1, Mem: mem})
		q := objects.NewQueue(sys, "q", 16)
		crash.arm(k)

		var deqDone bool
		started, completed := 0, 0
		workload(sys, func(c *proc.Ctx) {
			started = 1
			q.Enqueue(c, 1)
			completed = 1
			started = 2
			q.Enqueue(c, 2)
			completed = 2
			if got := q.Dequeue(c); got != 1 {
				t.Errorf("crash point %d: Dequeue = %d, want 1", k, got)
			}
			deqDone = true
			started = 3
			q.Enqueue(c, 3)
			completed = 3
		})
		crash.disarm()

		ver := proc.NewSystem(proc.Config{Procs: 1, Mem: mem})
		var got []uint64
		workload(ver, func(c *proc.Ctx) {
			for {
				v := q.Dequeue(c)
				if v == objects.Empty {
					return
				}
				got = append(got, v)
			}
		})

		// The surviving content must be a contiguous FIFO window lo..hi
		// of 1..3: lo is 2 once the dequeue completed (1 or 2 while it
		// was in flight — its persisted CAS may have taken effect), and
		// hi covers every completed enqueue, at most every started one.
		if len(got) == 0 {
			if completed >= 2 || (completed >= 1 && !deqDone) {
				t.Fatalf("crash point %d: drained nothing, %d enqueues completed (dequeue done: %v)",
					k, completed, deqDone)
			}
			return fmt.Sprint(started, completed, got)
		}
		lo := got[0]
		if deqDone && lo == 1 {
			t.Fatalf("crash point %d: completed dequeue resurrected: drained %v", k, got)
		}
		if lo != 1 && lo != 2 {
			t.Fatalf("crash point %d: drain starts at %d: %v", k, lo, got)
		}
		for i, v := range got {
			if v != lo+uint64(i) {
				t.Fatalf("crash point %d: drain not contiguous: %v (position %d)", k, got, i)
			}
		}
		hi := got[len(got)-1]
		if hi < uint64(completed) || hi > uint64(started) {
			t.Fatalf("crash point %d: drain %v misses completed enqueues (completed %d, started %d)",
				k, got, completed, started)
		}
		return fmt.Sprint(started, completed, got)
	})
}
