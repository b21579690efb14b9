package witnessorder

import "nrl/internal/nvm"

// slot is the fold shape: a process's own bookkeeping and a private
// cell may share one fence, while head is a word other processes read.
type slot struct {
	resp  nvm.Addr // nrl:own-process; nrl:persist-before valid(write): response no later than its flag
	valid nvm.Addr // nrl:own-process: response-valid flag
	mine  nvm.Addr // nrl:own-process: the cell being inserted
	head  nvm.Addr // shared: other processes read it
}

// Conforming: a co-fence. The flag's publication is its persist, and
// one fence carries it with the response it vouches for.
func coFence(m *nvm.Memory, s *slot, v uint64) {
	m.Write(s.resp, v)
	m.Write(s.valid, 1)
	persistBuffered(m, s.resp, s.valid)
}

// Violating: the flag is made durable before the response.
func flagFirst(m *nvm.Memory, s *slot, v uint64) {
	m.Write(s.resp, v) // want "order-violation"
	m.Write(s.valid, 1)
	persistBuffered(m, s.valid)
	persistBuffered(m, s.resp)
}

// Violating: the persist of mine is folded past a store to head, which
// other processes read while mine is still volatile.
func foldAcrossShared(m *nvm.Memory, s *slot, idx uint64) {
	m.Write(s.mine, idx) // want "shared-fold"
	m.Write(s.head, idx)
	persistBuffered(m, s.mine, s.head)
}

// Violating: a CAS is a publication whatever its field is marked.
func foldAcrossCAS(m *nvm.Memory, s *slot, idx uint64) {
	m.Write(s.valid, 0) // want "shared-fold"
	m.CAS(s.mine, 0, idx)
	persistBuffered(m, s.valid, s.mine)
}
