// Golden cases for traceattr: flight recorder Rec literals must carry
// a Kind, and lifecycle kinds must name their object.
package traceattr

import (
	"nrl/internal/flightrec"
)

// Violating: kindless and zero-kind records decode as garbage.
func untypedRecords(r *flightrec.Recorder) {
	r.Record(flightrec.Rec{P: 1, Obj: "ctr", Op: "Inc"})          // want "untyped-record"
	r.Record(flightrec.Rec{Kind: 0, P: 1, Obj: "ctr", Op: "Inc"}) // want "untyped-record"
}

// Violating: lifecycle records without an object cannot be placed in
// the forensics op tree.
func unattributedRecords(r *flightrec.Recorder) {
	r.Record(flightrec.Rec{Kind: flightrec.KindBegin, P: 1, Depth: 1})             // want "unattributed-record"
	r.Record(flightrec.Rec{Kind: flightrec.KindCrash, P: 1, Depth: 1, Obj: ""})    // want "unattributed-record"
	r.Record(flightrec.Rec{Kind: flightrec.KindCheckpoint, P: 1, Depth: 1, LI: 2}) // want "unattributed-record"
}

// Conforming: attributed lifecycle records, marker kinds that need no
// object, and records whose Kind or Obj is someone else's provenance.
func conformingRecords(r *flightrec.Recorder, k flightrec.Kind, obj string) {
	r.Record(flightrec.Rec{Kind: flightrec.KindBegin, P: 1, Depth: 1, Obj: "ctr", Op: "Inc"})
	r.Record(flightrec.Rec{Kind: flightrec.KindFence, P: 1, Val: 3})
	r.Record(flightrec.Rec{Kind: flightrec.KindCommit, Val: 8, GStep: 1})
	r.Record(flightrec.Rec{Kind: k, P: 1})
	r.Record(flightrec.Rec{Kind: flightrec.KindEnd, P: 1, Depth: 1, Obj: obj, Op: "Inc"})
}
