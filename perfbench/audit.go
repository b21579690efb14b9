package main

import "fmt"

// findings collects audit violations: every one counts as one failed op,
// and the first few are kept for the report.
type findings struct {
	n     int
	first []string
}

const keptFindings = 5

func (f *findings) add(format string, args ...any) {
	f.n++
	if len(f.first) < keptFindings {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
}

func (f *findings) merge(g findings) {
	f.n += g.n
	for _, s := range g.first {
		if len(f.first) < keptFindings {
			f.first = append(f.first, s)
		}
	}
}

// auditCounter checks a counter's outcomes: the final read must equal
// the number of Inc calls that returned (each took effect exactly once,
// crashes included), and no process may read a smaller value after a
// larger one.
func auditCounter(incs, final uint64, reads [][]uint64) findings {
	var f findings
	if final != incs {
		f.add("counter: final read %d, but %d Inc calls returned", final, incs)
	}
	for p, rs := range reads {
		for i := 1; i < len(rs); i++ {
			if rs[i] < rs[i-1] {
				f.add("counter: process %d read %d after %d", p, rs[i], rs[i-1])
			}
		}
	}
	return f
}

// order is the removal order a container promises.
type order int

const (
	fifo order = iota // a queue
	lifo              // a stack
)

// auditValues checks a queue's or stack's outcomes. inserted lists each
// producer's inserted values in insert order; removed lists each
// consumer's removed values in removal order; drained is what a single
// consumer removed after every process had finished. Every inserted
// value must be removed exactly once and nothing else may be removed.
// A queue must also hand every consumer, the drain included, each
// producer's values in that producer's insert order. A stack must drain
// each producer's remaining values in the reverse of it: nothing ran
// concurrently with the drain, so a later push is always nearer the top.
func auditValues(obj string, ord order, inserted, removed [][]uint64, drained []uint64) findings {
	var f findings
	seen := make(map[uint64]int32)
	for _, vs := range inserted {
		for _, v := range vs {
			seen[v] = 0
		}
	}
	consumers := append(removed[:len(removed):len(removed)], drained)
	for c, vs := range consumers {
		isDrain := c == len(removed)
		last := map[int]uint32{}
		for _, v := range vs {
			n, ok := seen[v]
			switch {
			case !ok:
				f.add("%s: consumer %d removed %#x, which nobody inserted", obj, c, v)
				continue
			case n > 0:
				f.add("%s: %#x removed twice", obj, v)
			}
			seen[v] = n + 1
			p, s := producer(v), sequence(v)
			prev, had := last[p]
			last[p] = s
			switch {
			case !had:
			case ord == fifo && s <= prev:
				f.add("%s: consumer %d removed producer %d's value %d after its value %d", obj, c, p, s, prev)
			case ord == lifo && isDrain && s >= prev:
				f.add("%s: drain removed producer %d's value %d after its value %d", obj, p, s, prev)
			}
		}
	}
	for _, vs := range inserted {
		for _, v := range vs {
			if seen[v] == 0 {
				f.add("%s: %#x was inserted but never removed", obj, v)
			}
		}
	}
	return f
}
