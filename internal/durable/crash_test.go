package durable_test

import (
	"fmt"
	"testing"

	"nrl/internal/durable"
	"nrl/internal/nvm"
)

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

// newCrasher returns a fresh buffered memory whose phase hook is a
// disarmed crasher.
func newCrasher() (*nvm.Memory, *crasher) {
	c := &crasher{}
	c.mem = nvm.New(nvm.WithMode(nvm.Buffered), nvm.WithPhaseHook(c.phase))
	return c.mem, c
}

func (c *crasher) arm(k int) { c.k, c.n = k, 0 }

// disarm stops the crasher from firing, so post-crash verification
// cannot trigger a second failure.
func (c *crasher) disarm() { c.k = 0 }

// TestLogCrashBetweenFlushAndFence is the exhaustive buffered-mode
// robustness test: it re-runs an append workload with a power failure at
// every crash point the workload reaches (see crasher) — in particular
// between a record's Flush and its Fence, and between the record's fence
// and the length word's — and asserts the durable log
// never exposes a half-persisted record. The invariant is the
// fence-consistent prefix: the recovered length n covers only records
// whose fenced value matches what was appended, and n never exceeds the
// number of appends started.
func TestLogCrashBetweenFlushAndFence(t *testing.T) {
	const appends = 4
	values := []uint64{11, 22, 33, 44}

	outcomes := map[string]bool{}
	for k := 1; ; k++ {
		mem, crash := newCrasher()
		l := durable.NewLog(mem, "log", 8)
		crash.arm(k)

		started, completed := run(l, values)
		crash.disarm()
		outcomes[fmt.Sprint(started, completed, l.Snapshot())] = true

		n := l.Len()
		if n > uint64(appends) {
			t.Fatalf("crash point %d: Len = %d after %d appends", k, n, appends)
		}
		if n < uint64(completed) {
			t.Fatalf("crash point %d: completed append lost: Len = %d, %d appends returned", k, n, completed)
		}
		for i := uint64(0); i < n; i++ {
			if got := l.Get(i); got != values[i] {
				t.Fatalf("crash point %d: half-persisted record: Get(%d) = %d, want %d (Len %d)",
					k, i, got, values[i], n)
			}
		}
		if !crash.hit {
			if completed != appends {
				t.Fatalf("crash-free run completed %d/%d appends", completed, appends)
			}
			t.Logf("swept power failure at each of %d crash points: %d outcomes", k-1, len(outcomes))
			if len(outcomes) != 9 {
				t.Errorf("%d distinct outcomes, want 9", len(outcomes))
			}
			return
		}
	}
}

// run appends values until a power failure unwinds it, returning how many
// appends started and how many completed (returned) before the failure.
func run(l *durable.Log, values []uint64) (started, completed int) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(powerFail); !ok {
				panic(r)
			}
		}
	}()
	for _, v := range values {
		started++
		l.Append(v)
		completed++
	}
	return started, completed
}

// TestRegisterCrashAtEveryEvent applies the same exhaustive power-failure
// sweep to the two-bank register: after a crash at any point, Read
// returns either the last completed Write's value or the one before it —
// never a torn mix.
func TestRegisterCrashAtEveryEvent(t *testing.T) {
	writes := []uint64{5, 6, 7}
	outcomes := map[string]bool{}
	for k := 1; ; k++ {
		mem, crash := newCrasher()
		r := durable.NewRegister(mem, "r", 1)
		crash.arm(k)

		started, completed := func() (started, completed int) {
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(powerFail); !ok {
						panic(rec)
					}
				}
			}()
			for _, v := range writes {
				started++
				r.Write(v)
				completed++
			}
			return started, completed
		}()
		crash.disarm()

		got := r.Read()
		outcomes[fmt.Sprint(started, completed, got)] = true
		valid := map[uint64]bool{}
		// Completed writes survive; the in-flight one may or may not have
		// committed, so its value is also legal — but nothing else is.
		last := uint64(1)
		if completed > 0 {
			last = writes[completed-1]
		}
		valid[last] = true
		if completed < len(writes) {
			valid[writes[completed]] = true
		}
		if !valid[got] {
			t.Fatalf("crash point %d: torn register: Read = %d after %d completed writes", k, got, completed)
		}
		if !crash.hit {
			t.Logf("swept power failure at each of %d crash points: %d outcomes", k-1, len(outcomes))
			if len(outcomes) != 7 {
				t.Errorf("%d distinct outcomes, want 7", len(outcomes))
			}
			return
		}
	}
}
