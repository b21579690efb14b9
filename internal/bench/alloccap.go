package bench

import (
	"fmt"
	"io"
	"sort"
)

// Absolute allocs-per-op caps (the second half of ROADMAP item 1's
// gate). The relative gate in Compare catches regressions against a
// committed baseline, but a baseline that itself allocates would let
// the allocation ride forever: after the proc frame-arena refactor the
// uncontended recoverable-op lifecycle allocates nothing, and these
// caps pin that as an absolute property of the suite rather than a
// relative one. A capped benchmark that vanishes from the report fails
// the gate too — a dropped row must not retire its own cap.

// AllocCapEpsilon absorbs the measurement grain of an allocs-per-op
// rate: the harness's MemStats window includes its own per-round
// goroutine spawns (a handful of allocations over hundreds of thousands
// of operations), so a true-zero workload reports ~1e-5, not exactly 0.
// A breach requires exceeding cap + epsilon; at 0.01 the epsilon is three
// orders of magnitude above harness noise and two below a single real
// allocation per hundred ops.
const AllocCapEpsilon = 0.01

// AllocCaps returns the absolute allocs-per-op caps registered for a
// suite (benchmark name -> cap), or nil when the suite has none. Every
// row of the objects suite is capped at zero: the frame arena keeps the
// whole recoverable-op lifecycle — frames, inline arguments, the crash
// path, trace/flight-recorder plumbing — off the heap, in every
// persistence mode and at every worker count. Each persist row is capped
// about a tenth of an allocation above its measured rate: one record
// buffer per commit, the batch the SegmentAppend ops build, and the
// rest rotation and checkpoint amortized over the commits between them.
// A new allocation per commit breaches the cap even when it rides in on
// a re-recorded baseline that the relative gate would accept.
func AllocCaps(suite string) map[string]float64 {
	switch suite {
	case "persist":
		return map[string]float64{
			"SegmentAppend/words=1":          2.2,
			"SegmentAppend/words=8":          2.6,
			"SegmentAppend/words=1/procs=2":  2.2,
			"ReplicaShip/replicas=3/words=1": 1.3,
		}
	case "objects":
		caps := make(map[string]float64)
		for _, name := range []string{
			"Counter/Inc/mode=ADR/procs=1",
			"Counter/Inc/mode=ADR/procs=1/flightrec=on",
			"Counter/Inc/mode=Buffered/procs=1",
			"Counter/Inc/mode=Buffered/procs=1/flightrec=on",
			"Counter/Inc/mode=ADR/procs=8",
			"Counter/Inc/mode=Buffered/procs=8",
			"Counter/Inc/mode=ADR/procs=1/flightrec=deep",
			"Register/Write/mode=ADR/procs=1",
			"Stack/PushPop/mode=Buffered/procs=1",
			"Queue/EnqDeq/mode=Buffered/procs=1",
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
// report come back Missing (and fail GateAllocCaps).
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

// GateAllocCaps returns a non-nil error when any cap is breached or any
// capped benchmark is missing — the CI failure condition.
func GateAllocCaps(results []CapResult) error {
	var breaches, missing int
	for _, cr := range results {
		if cr.Breach {
			breaches++
		}
		if cr.Missing {
			missing++
		}
	}
	if breaches > 0 || missing > 0 {
		return fmt.Errorf("bench: absolute allocs-per-op cap failed (%d breach(es), %d capped benchmark(s) missing)",
			breaches, missing)
	}
	return nil
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
