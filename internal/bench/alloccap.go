package bench

import (
	"fmt"
	"io"
	"sort"
)

// Absolute allocs-per-op caps. The relative half of Compare catches
// regressions against a committed baseline, but a baseline that itself
// allocates would let the allocation ride forever: after the proc
// frame-arena refactor the uncontended recoverable-op lifecycle
// allocates nothing, and these caps pin that as an absolute property of
// the suite rather than a relative one. A capped benchmark that
// vanishes from the report fails the gate too — a dropped row must not
// retire its own cap.

// AllocCapEpsilon absorbs the measurement grain of an allocs-per-op
// rate: the harness's MemStats window includes its own per-round
// goroutine spawns (a handful of allocations per round of thousands of
// operations), so a true-zero workload reports 1e-5 to a few 1e-3, not
// exactly 0. A breach requires exceeding cap + epsilon; at 0.01 the
// epsilon sits above that harness noise and two orders of magnitude
// below a single real allocation per op.
const AllocCapEpsilon = 0.01

// AllocCaps returns the absolute allocs-per-op caps registered for a
// suite (benchmark name -> cap), or nil when the suite has none. Compare
// applies them to its fresh report. Ten experiments rows are capped at
// zero: the frame arena keeps the whole recoverable-op lifecycle —
// frames, inline arguments, the crash path, flight-recorder plumbing —
// off the heap, in both persistence modes and at 1 and 8 processes.
// Each persist row is capped about a tenth of an allocation above its
// measured rate: one record buffer per commit, the batch the
// SegmentAppend ops build, and the rest rotation and checkpoint
// amortized over the commits between them. A new allocation per commit
// breaches the cap even when it rides in on a re-recorded baseline that
// the relative gate would accept.
func AllocCaps(suite string) map[string]float64 {
	switch suite {
	case "persist":
		return map[string]float64{
			"SegmentAppend/words=1":          2.2,
			"SegmentAppend/words=8":          2.6,
			"SegmentAppend/words=1/procs=2":  2.2,
			"ReplicaShip/replicas=3/words=1": 1.3,
		}
	case "experiments":
		caps := make(map[string]float64)
		inc := "Counter/Inc/recoverable/procs="
		for _, name := range []string{
			inc + "1",
			inc + "1/flightrec=on",
			inc + "1/flightrec=deep",
			inc + "1/mode=Buffered",
			inc + "1/mode=Buffered/flightrec=on",
			inc + "8",
			inc + "8/mode=Buffered",
			"Register/Write/recoverable",
			"Stack/PushPop/recoverable/mode=Buffered",
			"Queue/EnqDeq/recoverable/mode=Buffered",
		} {
			caps[name] = 0
		}
		return caps
	}
	return nil
}

// CapResult is one benchmark's verdict against its absolute
// allocs-per-op cap.
type CapResult struct {
	// Name is the benchmark row the cap applies to.
	Name string
	// Cap is the allowed allocs-per-op ceiling (0 for the zero-alloc
	// rows).
	Cap float64
	// Got is the measured allocs-per-op rate (meaningless when Missing).
	Got float64
	// Missing marks a capped benchmark absent from the report.
	Missing bool
	// Breach marks Got > Cap + AllocCapEpsilon.
	Breach bool
}

// CheckAllocCaps evaluates a report against a cap set, returning one
// CapResult per capped benchmark in name order. Benchmarks in the
// report without a cap are ignored; capped benchmarks missing from the
// report come back Missing (and fail Comparison.Gate).
func CheckAllocCaps(r *Report, caps map[string]float64) []CapResult {
	names := make([]string, 0, len(caps))
	for name := range caps {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]CapResult, 0, len(names))
	for _, name := range names {
		cr := CapResult{Name: name, Cap: caps[name]}
		res, ok := r.Result(name)
		if !ok {
			cr.Missing = true
		} else {
			cr.Got = res.AllocsPerOp
			cr.Breach = cr.Got > cr.Cap+AllocCapEpsilon
		}
		out = append(out, cr)
	}
	return out
}

// FprintAllocCaps renders the cap verdicts as an aligned table (ok /
// BREACH / MISSING per row).
func FprintAllocCaps(w io.Writer, results []CapResult) {
	width := 0
	for _, cr := range results {
		if len(cr.Name) > width {
			width = len(cr.Name)
		}
	}
	for _, cr := range results {
		if cr.Missing {
			fmt.Fprintf(w, "  %-*s  cap %.2f  MISSING from report\n", width, cr.Name, cr.Cap)
			continue
		}
		verdict := "ok"
		if cr.Breach {
			verdict = "BREACH"
		}
		fmt.Fprintf(w, "  %-*s  cap %.2f  measured %.6f allocs/op  %s\n",
			width, cr.Name, cr.Cap, cr.Got, verdict)
	}
}
