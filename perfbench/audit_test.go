package main

import (
	"slices"
	"testing"

	"nrl/internal/objects"
	"nrl/internal/proc"
)

// incCounter is the part of a counter the counter audit exercises.
type incCounter interface {
	Inc(*proc.Ctx)
	Read(*proc.Ctx) uint64
}

// crashCounter runs incs Inc calls of one process under a crash stream
// that crashes often, reading after each, and audits the outcome.
func crashCounter(t *testing.T, mk func(*proc.System) incCounter, incs int) findings {
	t.Helper()
	inj := newCrashInjector(7, 0, 1, 0.05)
	sys := proc.NewSystem(proc.Config{Procs: 1, Injector: inj})
	ctr := mk(sys)
	c := sys.Proc(1).Ctx()
	var reads []uint64
	for i := 0; i < incs; i++ {
		ctr.Inc(c)
		reads = append(reads, ctr.Read(c))
	}
	if sys.Proc(1).Crashes() == 0 {
		t.Fatal("the crash stream never crashed the process")
	}
	return auditCounter(uint64(incs), ctr.Read(c), [][]uint64{reads})
}

func TestCounterAuditAcceptsCounterUnderCrashes(t *testing.T) {
	f := crashCounter(t, func(sys *proc.System) incCounter { return objects.NewCounter(sys, "ctr") }, 2000)
	if f.n != 0 {
		t.Fatalf("correct counter rejected: %v", f.first)
	}
}

// TestCounterAuditRejectsBrokenCounter is the counter audit's negative
// control: the broken counter's recovery re-executes its body, so a crash
// after its write lands counts one Inc twice.
func TestCounterAuditRejectsBrokenCounter(t *testing.T) {
	f := crashCounter(t, func(sys *proc.System) incCounter { return objects.NewBrokenCounter(sys, "bctr") }, 2000)
	if f.n == 0 {
		t.Fatal("counter audit accepted the broken counter")
	}
	t.Logf("rejected with %d findings, first: %s", f.n, f.first[0])
}

func TestCounterAuditRejectsDecreasingReads(t *testing.T) {
	if f := auditCounter(3, 3, [][]uint64{{1, 2}, {2, 1}}); f.n != 1 {
		t.Fatalf("findings = %d (%v), want 1", f.n, f.first)
	}
}

// outcome is a valid two-producer, two-consumer result set: producer p
// inserted (p,1)..(p,6); consumer 0 removed some of each producer's
// values and consumer 1 others, each in insert order, and the drain
// removed the rest in the container's order.
func outcome(ord order) (inserted, removed [][]uint64, drained []uint64) {
	v := value
	inserted = [][]uint64{
		{v(1, 1), v(1, 2), v(1, 3), v(1, 4), v(1, 5), v(1, 6)},
		{v(2, 1), v(2, 2), v(2, 3), v(2, 4), v(2, 5), v(2, 6)},
	}
	removed = [][]uint64{
		{v(1, 1), v(2, 1), v(1, 3)},
		{v(2, 2), v(1, 2), v(2, 4)},
	}
	drained = []uint64{v(1, 4), v(2, 3), v(1, 5), v(2, 5), v(1, 6), v(2, 6)}
	if ord == lifo {
		slices.Reverse(drained)
	}
	return inserted, removed, drained
}

// TestValueAuditNegativeControls shows that the queue and stack audits
// accept a valid outcome and reject one value dropped, one duplicated,
// one foreign, and one producer's values reordered.
func TestValueAuditNegativeControls(t *testing.T) {
	for _, ord := range []order{fifo, lifo} {
		name := map[order]string{fifo: "queue", lifo: "stack"}[ord]
		ins, rem, dr := outcome(ord)
		if f := auditValues(name, ord, ins, rem, dr); f.n != 0 {
			t.Fatalf("%s: valid outcome rejected: %v", name, f.first)
		}
		bad := map[string]func(rem [][]uint64, dr []uint64) ([][]uint64, []uint64){
			"dropped": func(rem [][]uint64, dr []uint64) ([][]uint64, []uint64) {
				return rem, dr[1:]
			},
			"duplicated": func(rem [][]uint64, dr []uint64) ([][]uint64, []uint64) {
				rem[1] = append(rem[1], rem[0][0])
				return rem, dr
			},
			"foreign": func(rem [][]uint64, dr []uint64) ([][]uint64, []uint64) {
				return rem, append(dr, value(3, 1))
			},
			"reordered": func(rem [][]uint64, dr []uint64) ([][]uint64, []uint64) {
				// Swap producer 1's first and last remaining values in the
				// drain.
				i := slices.Index(dr, value(1, 4))
				j := slices.Index(dr, value(1, 6))
				dr[i], dr[j] = dr[j], dr[i]
				return rem, dr
			},
		}
		for what, mutate := range bad {
			ins, rem, dr := outcome(ord)
			rem, dr = mutate(rem, dr)
			if f := auditValues(name, ord, ins, rem, dr); f.n == 0 {
				t.Errorf("%s audit accepted a result with a value %s", name, what)
			}
		}
	}
}

// TestQueueAuditRejectsConsumerReorder covers a reorder seen by a
// consumer during the run rather than by the drain.
func TestQueueAuditRejectsConsumerReorder(t *testing.T) {
	ins, rem, dr := outcome(fifo)
	rem[0][0], rem[0][2] = rem[0][2], rem[0][0]
	if f := auditValues("queue", fifo, ins, rem, dr); f.n == 0 {
		t.Fatal("queue audit accepted a consumer seeing a producer's values out of order")
	}
}
