package main

import (
	"math"
	"math/rand"

	"nrl/internal/proc"
)

// opKind is one public object call a scripted op makes.
type opKind uint8

const (
	opInc opKind = iota
	opRead
	opEnq
	opDeq
	opPush
	opPop
	nOpKinds
)

// opNames are the per-layer metric stems of each op kind.
var opNames = [nOpKinds]string{
	opInc:  "counter_inc",
	opRead: "counter_read",
	opEnq:  "queue_enq",
	opDeq:  "queue_deq",
	opPush: "stack_push",
	opPop:  "stack_pop",
}

// inserts reports whether the op adds a value to the queue or stack.
func (k opKind) inserts() bool { return k == opEnq || k == opPush }

// op is one scripted call: its kind and, for inserts, the value.
type op struct {
	kind opKind
	arg  uint64
}

// mix is a workload's op distribution: weights in percent, by kind.
type mix [nOpKinds]int

// pick draws one op kind from the distribution.
func (m *mix) pick(r *rand.Rand) opKind {
	x := r.Intn(100)
	for k, w := range m {
		if x < w {
			return opKind(k)
		}
		x -= w
	}
	panic("perfbench: op mix does not sum to 100")
}

// Stream indices under the run seed (proc.SplitSeed): every round and
// process has its own script stream and its own crash stream.
const (
	streamsPerRound = 64
	crashStreamBase = 1 << 30
	verifyRound     = 1 << 20
)

func scriptStream(round, pid int) int { return round*streamsPerRound + pid }
func crashStream(round, pid int) int  { return crashStreamBase + round*streamsPerRound + pid }

// value packs a distinct insert value: the producer in the high word and
// its 1-based insert sequence in the low word. It never equals
// objects.Empty.
func value(pid int, seq uint32) uint64 { return uint64(pid)<<32 | uint64(seq) }

func producer(v uint64) int    { return int(v >> 32) }
func sequence(v uint64) uint32 { return uint32(v) }

// genScript is process pid's op script for one round: n ops drawn from
// the mix, inserting the values (pid, 1), (pid, 2), ... in order. It is a
// pure function of its arguments.
func genScript(m *mix, seed int64, round, pid, n int) []op {
	r := rand.New(rand.NewSource(proc.SplitSeed(seed, scriptStream(round, pid))))
	s := make([]op, n)
	var seq uint32
	for i := range s {
		k := m.pick(r)
		s[i].kind = k
		if k.inserts() {
			seq++
			s[i].arg = value(pid, seq)
		}
	}
	return s
}

// crashInjector crashes each offered step independently with a fixed
// probability. Every process draws from its own splitmix64 stream, which
// only that process's goroutine advances, so the injector takes no lock
// and its decisions depend only on the process's own step sequence.
type crashInjector struct {
	threshold uint64 // crash when the draw is below it
	streams   []crashRNG
}

// crashRNG is one process's stream, padded to a cache line so the two
// processes' streams do not share one.
type crashRNG struct {
	state uint64
	_     [56]byte
}

func newCrashInjector(seed int64, round, procs int, perStep float64) *crashInjector {
	ci := &crashInjector{
		threshold: uint64(perStep * math.Exp2(64)),
		streams:   make([]crashRNG, procs+1),
	}
	for p := 1; p <= procs; p++ {
		ci.streams[p].state = uint64(proc.SplitSeed(seed, crashStream(round, p)))
	}
	return ci
}

// ShouldCrash implements proc.Injector.
func (ci *crashInjector) ShouldCrash(pt proc.CrashPoint) bool {
	s := &ci.streams[pt.Proc]
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return z < ci.threshold
}
