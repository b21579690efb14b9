// Golden package for the persistorder analyzer: violating and
// conforming persist sequences over the repo's nvm primitives.
package persistorder

import "nrl/internal/nvm"

// persistBuffered has Ctx.PersistBuffered's shape: flush every address,
// then one fence. The analyzer sees through it by its summary.
func persistBuffered(m *nvm.Memory, addrs ...nvm.Addr) {
	for _, a := range addrs {
		m.Flush(a)
	}
	m.Fence()
}

// A store that is persisted on one branch but can reach return
// unpersisted on the other: the missed-flush window.
func missedFlushBranch(m *nvm.Memory, a nvm.Addr, v uint64, commit bool) {
	m.Write(a, v) // want "missed-flush"
	if commit {
		m.Persist(a)
	}
}

// A flush that reaches return without any fence: write-back is only
// scheduled, never ordered.
func flushNoFence(m *nvm.Memory, a nvm.Addr, v uint64) {
	m.Write(a, v)
	m.Flush(a) // want "flush-no-fence"
}

// Conforming: explicit flush+fence.
func persistExplicit(m *nvm.Memory, a nvm.Addr, v uint64) {
	m.Write(a, v)
	m.Flush(a)
	m.Fence()
}

// Conforming: the shared helper persists both stores.
func persistHelper(m *nvm.Memory, a, b nvm.Addr, v uint64) {
	m.Write(a, v)
	m.Write(b, v+1)
	persistBuffered(m, a, b)
}

// Conforming: Persist on every path.
func persistBothBranches(m *nvm.Memory, a nvm.Addr, v uint64, fast bool) {
	m.Write(a, v)
	if fast {
		m.Persist(a)
	} else {
		m.Flush(a)
		m.Fence()
	}
}

// Conforming: a function that never flushes an address makes no
// persistence claim about it (per-process crash model).
func noClaim(m *nvm.Memory, a nvm.Addr, v uint64) {
	m.Write(a, v)
}

// Conforming: a store on a panic path owes nothing — the operation
// never completes.
func panicPath(m *nvm.Memory, a nvm.Addr, v uint64, ok bool) {
	m.Write(a, v)
	if !ok {
		panic("corrupt")
	}
	m.Persist(a)
}
