package objects_test

import (
	"fmt"
	"testing"

	"nrl/internal/core"
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
// failure.
func workload(sys *proc.System, body func(*proc.Ctx)) {
	unwinding(body)(sys.Proc(1).Ctx())
}

// unwinding wraps a process body so that it returns at a power failure
// instead of panicking on.
func unwinding(body func(*proc.Ctx)) func(*proc.Ctx) {
	return func(c *proc.Ctx) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(powerFail); !ok {
					panic(r)
				}
			}
		}()
		body(c)
	}
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

// The two-process power failures below hold one process between two of
// its steps while the other runs, which a one-process sweep cannot
// reach: a process may read a link or an install another process has
// published but not yet persisted, and act on it.

// downSched is the controlled scheduler of the two-process power-failure
// tests. Once the memory has lost power (down reports true), a process
// its yield wakes unwinds with powerFail instead of running on the
// crashed memory, so a process held across the crash stops where it was.
type downSched struct {
	*proc.Controlled
	down func() bool
}

// Yield implements proc.Scheduler.
func (s downSched) Yield(p int) {
	s.Controlled.Yield(p)
	if s.down() {
		panic(powerFail{})
	}
}

// runPair runs p1 and p2 as processes 1 and 2 of sys, each unwinding at
// a power failure.
func runPair(t *testing.T, sys *proc.System, p1, p2 func(*proc.Ctx)) {
	t.Helper()
	if err := sys.Run(map[int]func(*proc.Ctx){1: unwinding(p1), 2: unwinding(p2)}); err != nil {
		t.Fatal(err)
	}
}

// drainQueue dequeues through c until the queue is empty.
func drainQueue(c *proc.Ctx, q *objects.Queue) []uint64 {
	var got []uint64
	for v := q.Dequeue(c); v != objects.Empty; v = q.Dequeue(c) {
		got = append(got, v)
	}
	return got
}

// hold names a point of process 1's body: the nth time (1-based) it
// begins line of op on object obj, outside recovery.
type hold struct {
	obj, op   string
	line, nth int
}

// String names the hold in test output.
func (h hold) String() string { return fmt.Sprintf("hold1/%s.%s:%d#%d", h.obj, h.op, h.line, h.nth) }

// schedule returns an injector that crashes nothing and a picker that
// runs process 1 until it has begun h, then process 2 whenever it can:
// process 1 stops at its next yield, with h's line executed (a link or
// install published, its fence not yet issued), until process 2 ends.
// Holds are keyed by line, not by dispatch count, so they stay put when
// a yield is added elsewhere.
func (h hold) schedule() (proc.Injector, proc.Picker) {
	seen, held := 0, false
	inj := proc.Func(func(pt proc.CrashPoint) bool {
		if pt.Proc == 1 && pt.Obj == h.obj && pt.Op == h.op && pt.Line == h.line && !pt.Recovery {
			seen++
			held = held || seen == h.nth
		}
		return false
	})
	pick := func(candidates []int, _ int) int {
		want := 1
		if held {
			want = 2
		}
		for _, p := range candidates {
			if p == want {
				return p
			}
		}
		return candidates[0]
	}
	return inj, pick
}

// heldPair builds a two-process system over buffered memory with process
// 1 held at h; setting *down tells the held process the power failed.
func heldPair(h hold) (mem *nvm.Memory, sys *proc.System, down *bool) {
	mem = nvm.New(nvm.WithMode(nvm.Buffered))
	inj, pick := h.schedule()
	down = new(bool)
	sys = proc.NewSystem(proc.Config{
		Procs:     2,
		Mem:       mem,
		Injector:  inj,
		Scheduler: downSched{proc.NewControlled(pick), func() bool { return *down }},
	})
	return mem, sys, down
}

// afterFirstLink holds process 1 right after its first ENQ's link CAS,
// at the yield of line 9: the link is installed and not yet persisted.
var afterFirstLink = hold{obj: "q", op: "ENQ", line: 8, nth: 1}

// TestQueueDequeuePastUndurableLink: process 1's ENQ(1) is held right
// after its link CAS; process 2's DEQ returns 1 and completes; then the
// power fails. HEAD is durable at cell 1, so the link to cell 1 must be
// too: otherwise the next enqueue after the restart links its cell
// behind HEAD, where no dequeue finds it.
func TestQueueDequeuePastUndurableLink(t *testing.T) {
	mem, sys, down := heldPair(afterFirstLink)
	q := objects.NewQueue(sys, "q", 16)
	var got uint64
	runPair(t, sys, func(c *proc.Ctx) {
		q.Enqueue(c, 1)
	}, func(c *proc.Ctx) {
		got = q.Dequeue(c)
		mem.CrashAll()
		*down = true
	})
	if got != 1 {
		t.Fatalf("Dequeue = %d, want 1", got)
	}
	ver := proc.NewSystem(proc.Config{Procs: 2, Mem: mem})
	c := ver.Proc(1).Ctx()
	q.Enqueue(c, 2)
	if drained := drainQueue(c, q); fmt.Sprint(drained) != "[2]" {
		t.Fatalf("after the restart, ENQ(2) then a drain yielded %v, want [2]", drained)
	}
}

// TestQueueHelpPastUndurableLink: process 1 is held as above; process
// 2's ENQ(2) helps TAIL past process 1's link, links its own cell and
// completes; then the power fails. The completed ENQ(2) must survive,
// so the link TAIL was moved past must be durable before TAIL is.
func TestQueueHelpPastUndurableLink(t *testing.T) {
	mem, sys, down := heldPair(afterFirstLink)
	q := objects.NewQueue(sys, "q", 16)
	runPair(t, sys, func(c *proc.Ctx) {
		q.Enqueue(c, 1)
	}, func(c *proc.Ctx) {
		q.Enqueue(c, 2)
		mem.CrashAll()
		*down = true
	})
	ver := proc.NewSystem(proc.Config{Procs: 2, Mem: mem})
	drained := drainQueue(ver.Proc(1).Ctx(), q)
	if len(drained) == 0 || drained[len(drained)-1] != 2 {
		t.Fatalf("after the restart the drain yielded %v, want it to end with the completed ENQ(2)", drained)
	}
}

// TestAnswerPastUndurableInstall holds process 1 right after a STRICTCAS
// of its has installed a value (line 45), before the line-48 fence that
// makes the install durable. Process 2 completes an operation whose
// answer rests on reading that install without a CAS of its own (an
// Empty DEQ or POP, an FAA READ) or with a failed one (a false
// STRICTCAS); then the power fails. The answer must survive: the
// install it read is durable, so the state after the restart agrees.
func TestAnswerPastUndurableInstall(t *testing.T) {
	type pair struct {
		p1, p2 func(*proc.Ctx)
		check  func(t *testing.T, ver *proc.System) // after the power failure
	}
	for _, tc := range []struct {
		name  string
		hold  hold
		build func(t *testing.T, sys *proc.System) pair
	}{
		{"queue/empty-deq", hold{obj: "q.head", op: "STRICTCAS", line: 45, nth: 1}, func(t *testing.T, sys *proc.System) pair {
			q := objects.NewQueue(sys, "q", 16)
			return pair{func(c *proc.Ctx) {
				q.Enqueue(c, 1)
				q.Dequeue(c)
			}, func(c *proc.Ctx) {
				if got := q.Dequeue(c); got != objects.Empty {
					t.Errorf("process 2's Dequeue = %d, want Empty", got)
				}
			}, func(t *testing.T, ver *proc.System) {
				if drained := drainQueue(ver.Proc(1).Ctx(), q); len(drained) != 0 {
					t.Errorf("after a completed DEQ answered Empty the drain yielded %v, want []", drained)
				}
			}}
		}},
		{"stack/empty-pop", hold{obj: "s.top", op: "STRICTCAS", line: 45, nth: 2}, func(t *testing.T, sys *proc.System) pair {
			s := objects.NewStack(sys, "s", 16)
			return pair{func(c *proc.Ctx) {
				s.Push(c, 1)
				s.Pop(c)
			}, func(c *proc.Ctx) {
				if got := s.Pop(c); got != objects.Empty {
					t.Errorf("process 2's Pop = %d, want Empty", got)
				}
			}, func(t *testing.T, ver *proc.System) {
				if got := s.Pop(ver.Proc(1).Ctx()); got != objects.Empty {
					t.Errorf("after a completed POP answered Empty the stack held %d", got)
				}
			}}
		}},
		{"faa/read", hold{obj: "f.cas", op: "STRICTCAS", line: 45, nth: 1}, func(t *testing.T, sys *proc.System) pair {
			f := objects.NewFAA(sys, "f")
			return pair{func(c *proc.Ctx) {
				f.Add(c, 1)
			}, func(c *proc.Ctx) {
				if got := f.Read(c); got != 1 {
					t.Errorf("process 2's Read = %d, want 1", got)
				}
			}, func(t *testing.T, ver *proc.System) {
				if got := f.Read(ver.Proc(1).Ctx()); got != 1 {
					t.Errorf("after a completed READ answered 1 the sum read %d", got)
				}
			}}
		}},
		{"cas/false", hold{obj: "c", op: "STRICTCAS", line: 45, nth: 1}, func(t *testing.T, sys *proc.System) pair {
			o := core.NewCASObject(sys, "c")
			v1, v2 := core.DistinctCAS(1, 1, 1), core.DistinctCAS(2, 1, 1)
			return pair{func(c *proc.Ctx) {
				o.StrictCAS(c, 0, v1)
			}, func(c *proc.Ctx) {
				if o.StrictCAS(c, 0, v2) {
					t.Errorf("process 2's StrictCAS(0, v2) succeeded over process 1's install")
				}
			}, func(t *testing.T, ver *proc.System) {
				if got := o.Read(ver.Proc(1).Ctx()); got != v1 {
					t.Errorf("after a completed StrictCAS(0, v2) answered false C read %d, want %d", got, v1)
				}
			}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem, sys, down := heldPair(tc.hold)
			pr := tc.build(t, sys)
			runPair(t, sys, pr.p1, func(c *proc.Ctx) {
				pr.p2(c)
				mem.CrashAll()
				*down = true
			})
			pr.check(t, proc.NewSystem(proc.Config{Procs: 2, Mem: mem}))
		})
	}
}

// TestQueueRecoveredEnqueueSurvivesPowerFailure crashes ENQ(1) right
// after its link CAS (before line 9 or line 10), lets its recovery find
// the link and acknowledge, then cuts the power. The acknowledged
// enqueue must survive, so the recovery persists the link it found.
func TestQueueRecoveredEnqueueSurvivesPowerFailure(t *testing.T) {
	for _, line := range []int{9, 10} {
		t.Run(fmt.Sprintf("line%d", line), func(t *testing.T) {
			mem := nvm.New(nvm.WithMode(nvm.Buffered))
			sys := proc.NewSystem(proc.Config{Procs: 1, Mem: mem,
				Injector: &proc.AtLine{Obj: "q", Op: "ENQ", Line: line}})
			q := objects.NewQueue(sys, "q", 16)
			q.Enqueue(sys.Proc(1).Ctx(), 1)
			if sys.Proc(1).Crashes() != 1 {
				t.Fatalf("%d crashes, want 1", sys.Proc(1).Crashes())
			}
			mem.CrashAll()
			ver := proc.NewSystem(proc.Config{Procs: 1, Mem: mem})
			if drained := drainQueue(ver.Proc(1).Ctx(), q); fmt.Sprint(drained) != "[1]" {
				t.Fatalf("after the power failure the drain yielded %v, want the acknowledged [1]", drained)
			}
		})
	}
}

// pairBag is the container a two-process sweep exercises: a queue or a
// stack, built on a system, behind insert and remove.
type pairBag struct {
	insert func(*proc.Ctx, uint64)
	remove func(*proc.Ctx) uint64
}

// pairSchedules are a sweep's schedules: seeded random pickers, which
// interleave the processes step by step, and one schedule per hold,
// which lets process 2 run a whole remove and insert while process 1 is
// paused where another process can act on what it published before its
// fence (random interleavings almost never do that).
func pairSchedules(holds []hold) map[string]func() (proc.Injector, proc.Picker) {
	out := map[string]func() (proc.Injector, proc.Picker){}
	for _, seed := range []int64{1, 2, 3} {
		out[fmt.Sprintf("random/%d", seed)] = func() (proc.Injector, proc.Picker) {
			return proc.Never{}, proc.RandomPicker(seed)
		}
	}
	for _, h := range holds {
		out[h.String()] = h.schedule
	}
	return out
}

// pairSweep runs process 1: insert 11, insert 12 ‖ process 2: remove,
// insert 21 under each of pairSchedules, with a power failure at every
// crash point of each schedule. After the crash a fresh system inserts
// 99 and drains. The oracle, with removed the value process 2's
// completed remove returned and seq that value followed by the drain:
//
//   - every completed insert is in seq, except that a remove in flight
//     at the crash may have taken one value with it;
//   - no value appears twice, and every value's insert was started;
//   - a remove answers Empty only if no insert completed before it
//     began (process 2 is the only remover);
//   - each producer's values keep their order (FIFO: in seq; LIFO:
//     within the drain, reversed);
//   - 99 is drained last (FIFO) or first (LIFO).
//
// The sweep must reach want distinct outcomes, as sweep's must.
func pairSweep(t *testing.T, want int, lifo bool, holds []hold, build func(*proc.System) pairBag) {
	t.Helper()
	outcomes := map[string]bool{}
	points := 0
	schedules := pairSchedules(holds)
	for name, schedule := range schedules {
		for k := 1; ; k++ {
			crash := &crasher{}
			mem := nvm.New(nvm.WithMode(nvm.Buffered), nvm.WithPhaseHook(crash.phase))
			crash.mem = mem
			inj, pick := schedule()
			sys := proc.NewSystem(proc.Config{
				Procs:     2,
				Mem:       mem,
				Injector:  inj,
				Scheduler: downSched{proc.NewControlled(pick), func() bool { return crash.hit }},
			})
			bag := build(sys)
			crash.arm(k)

			// started/completed per value; removeDone with removed.
			started, completed := map[uint64]bool{}, map[uint64]bool{}
			removeStarted, removeDone := false, false
			completedBeforeRemove := 0
			removed := objects.Empty
			insert := func(c *proc.Ctx, v uint64) {
				started[v] = true
				bag.insert(c, v)
				completed[v] = true
			}
			runPair(t, sys, func(c *proc.Ctx) {
				insert(c, 11)
				insert(c, 12)
			}, func(c *proc.Ctx) {
				removeStarted = true
				completedBeforeRemove = len(completed)
				removed = bag.remove(c)
				removeDone = true
				insert(c, 21)
			})
			crash.disarm()

			ver := proc.NewSystem(proc.Config{Procs: 2, Mem: mem})
			var drained []uint64
			workload(ver, func(c *proc.Ctx) {
				bag.insert(c, 99)
				for v := bag.remove(c); v != objects.Empty; v = bag.remove(c) {
					drained = append(drained, v)
				}
			})

			where := fmt.Sprintf("%s, crash point %d (hit %v): removed %d (done %v), drained %v, started %v, completed %v",
				name, k, crash.hit, int64(removed), removeDone, drained, started, completed)
			if removeDone && removed == objects.Empty && completedBeforeRemove > 0 {
				t.Fatalf("%s: the remove answered Empty after %d inserts completed", where, completedBeforeRemove)
			}
			checkPair(t, where, lifo, removeStarted && !removeDone, removed, drained, started, completed)
			outcomes[fmt.Sprint(started, completed, removeDone, int64(removed), drained)] = true
			if !crash.hit {
				points += k - 1
				break
			}
		}
	}
	t.Logf("swept power failure at each of %d crash points over %d schedules: %d outcomes",
		points, len(schedules), len(outcomes))
	if len(outcomes) != want {
		t.Errorf("%d distinct outcomes, want %d", len(outcomes), want)
	}
}

// checkPair applies pairSweep's oracle to one run.
func checkPair(t *testing.T, where string, lifo, removeInFlight bool, removed uint64, drained []uint64, started, completed map[uint64]bool) {
	t.Helper()
	if len(drained) == 0 {
		t.Fatalf("%s: the value inserted after the restart was lost", where)
	}
	post := drained[len(drained)-1]
	rest := drained[:len(drained)-1]
	if lifo {
		post, rest = drained[0], drained[1:]
	}
	if post != 99 {
		t.Fatalf("%s: the value inserted after the restart is not drained %s", where, map[bool]string{false: "last", true: "first"}[lifo])
	}
	var seq []uint64
	if removed != objects.Empty {
		seq = append(seq, removed)
	}
	seq = append(seq, rest...)
	pos := map[uint64]int{}
	for i, v := range seq {
		if _, dup := pos[v]; dup {
			t.Fatalf("%s: %d appears twice", where, v)
		}
		if !started[v] {
			t.Fatalf("%s: %d was never inserted", where, v)
		}
		pos[v] = i
	}
	missing := 0
	for v := range completed {
		if _, ok := pos[v]; !ok {
			missing++
		}
	}
	if missing > 1 || (missing == 1 && !removeInFlight) {
		t.Fatalf("%s: %d completed inserts lost", where, missing)
	}
	i11, ok11 := pos[11]
	i12, ok12 := pos[12]
	if ok11 && ok12 {
		if !lifo && i11 > i12 {
			t.Fatalf("%s: 12 came out before 11", where)
		}
		if lifo && removed != 11 && removed != 12 && i12 > i11 {
			t.Fatalf("%s: 11 was drained above 12", where)
		}
	}
}

// TestQueuePairPowerFailureSweep sweeps a power failure over a
// two-process mixed queue workload (ENQ, ENQ ‖ DEQ, ENQ). Its holds
// pause process 1 after its first link CAS (the DEQ moves HEAD past the
// link), after its second (the ENQ helps TAIL past it) and after its
// first cell allocation's install (the ENQ's allocation reads it).
func TestQueuePairPowerFailureSweep(t *testing.T) {
	holds := []hold{
		afterFirstLink,
		{obj: "q", op: "ENQ", line: 8, nth: 2},
		{obj: "q.alloc.cas", op: "STRICTCAS", line: 45, nth: 1},
	}
	pairSweep(t, 28, false, holds, func(sys *proc.System) pairBag {
		q := objects.NewQueue(sys, "q", 16)
		return pairBag{insert: q.Enqueue, remove: q.Dequeue}
	})
}

// TestStackPairPowerFailureSweep is the stack counterpart (PUSH, PUSH ‖
// POP, PUSH). Its holds pause process 1 after each of its TOP installs
// (the POP pops the cell) and after its first cell allocation's install.
func TestStackPairPowerFailureSweep(t *testing.T) {
	holds := []hold{
		{obj: "s.top", op: "STRICTCAS", line: 45, nth: 1},
		{obj: "s.top", op: "STRICTCAS", line: 45, nth: 2},
		{obj: "s.alloc.cas", op: "STRICTCAS", line: 45, nth: 1},
	}
	pairSweep(t, 26, true, holds, func(sys *proc.System) pairBag {
		s := objects.NewStack(sys, "s", 16)
		return pairBag{insert: s.Push, remove: s.Pop}
	})
}
