package witnessorder

import "nrl/internal/nvm"

// Regression: the enqueue shape from the durable queue, where the cell
// payload and tag were written and the linking CAS issued with the
// persist of the payload missing from one revision — the classic
// NVTraverse bug the power-failure sweeps only caught at one specific
// crash index. Arrays exercise the index-peeling in addrField. The
// payload and tag are stored while the cell is private, so the fixed
// revision may fold both into one fence.
type queue struct {
	vals  []nvm.Addr // nrl:own-process; nrl:persist-before links(cas): cell before link
	tags  []nvm.Addr // nrl:own-process; nrl:persist-before links(cas): tag before install
	links []nvm.Addr
}

func regressEnqueue(m *nvm.Memory, q *queue, idx int, v, tag uint64) {
	m.Write(q.vals[idx], v) // want "order-violation"
	m.Write(q.tags[idx], tag)
	m.Persist(q.tags[idx])
	m.CAS(q.links[idx], 0, uint64(idx))
}

func regressEnqueueFixed(m *nvm.Memory, q *queue, idx int, v, tag uint64) {
	m.Write(q.vals[idx], v)
	m.Write(q.tags[idx], tag)
	persistBuffered(m, q.vals[idx], q.tags[idx])
	m.CAS(q.links[idx], 0, uint64(idx))
}
