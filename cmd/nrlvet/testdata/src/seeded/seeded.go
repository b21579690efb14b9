// Package seeded carries deliberate discipline violations for the
// nrlvet CLI goldens: stable findings from persistorder, witnessorder,
// traceattr, and the ignore engine (recoverypure and checkconv have
// their own golden packages under internal/analysis/testdata).
package seeded

import (
	"nrl/internal/flightrec"
	"nrl/internal/nvm"
)

func missedFlush(m *nvm.Memory, a nvm.Addr, v uint64, commit bool) {
	m.Write(a, v)
	if commit {
		m.Persist(a)
	}
}

func flushNoFence(m *nvm.Memory, a nvm.Addr, v uint64) {
	m.Write(a, v)
	m.Flush(a)
}

func kindless(r *flightrec.Recorder) {
	r.Record(flightrec.Rec{P: 1, Obj: "seeded"})
}

type cell struct {
	val  nvm.Addr // nrl:persist-before next(write): contents before link
	next nvm.Addr
}

func publish(m *nvm.Memory, c *cell, v uint64) {
	m.Write(c.val, v)
	m.Write(c.next, 1)
}

// A reasoned suppression is honored; this function contributes nothing.
func ignored(m *nvm.Memory, a nvm.Addr, v uint64) {
	m.Write(a, v)
	m.Flush(a) //nrl:ignore golden fixture: exercises the suppression path end to end
}

// A reason-less ignore is itself a finding.
//
//nrl:ignore
var placeholder = 0
