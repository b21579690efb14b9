package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// RecorderOverheadBudget is the relative ns/op cost the always-on
// flight recorder is allowed to add to an instrumented benchmark over
// its bare baseline (20%). Unlike DefaultThreshold — which compares a
// fresh run against a committed baseline from a possibly different
// moment of the machine's life — this budget compares two rows of the
// SAME report, so it is a genuine single-run product guarantee: the
// black box is cheap enough to leave on in production.
//
// The budget is relative, so it must be re-priced when the bare
// baseline is deliberately optimized: the frame-arena refactor
// (DESIGN.md §13) cut the uncontended Counter/Inc op ~25% without
// touching the recorder, which left the recorder's unchanged ~110
// ns/op absolute cost sitting at ~15–17% of the faster base — over the
// old 15% line through no fault of its own. 20% holds the same
// absolute ceiling against the new denominator.
const RecorderOverheadBudget = 0.20

// OverheadPair names a (baseline, instrumented) row pair within one
// report that an overhead budget applies to.
type OverheadPair struct {
	// Base and Inst are the benchmark names of the bare and the
	// instrumented row.
	Base string
	Inst string
	// Budget is the allowed relative ns/op growth of Inst over Base.
	Budget float64
}

// OverheadPairs returns the budgeted pairs registered for a suite, or
// nil when it has none. The experiments suite budgets its shallow-mode
// flight-recorder rows against their bare baselines, in both
// persistence modes. The deep-mode row is deliberately absent —
// checkpoint-per-step is a debugging mode, priced (E13) but not
// budgeted.
func OverheadPairs(suite string) []OverheadPair {
	if suite != "experiments" {
		return nil
	}
	inc := "Counter/Inc/recoverable/procs=1"
	return []OverheadPair{
		{Base: inc, Inst: inc + "/flightrec=on", Budget: RecorderOverheadBudget},
		{Base: inc + "/mode=Buffered", Inst: inc + "/mode=Buffered/flightrec=on", Budget: RecorderOverheadBudget},
	}
}

// OverheadResult is one pair's verdict.
type OverheadResult struct {
	Pair           OverheadPair
	BaseNs, InstNs float64
	// Overhead is the pair's relative cost (0.10 = 10% slower), the
	// smaller of two estimates that fail under disjoint noise regimes:
	//
	//   - min/min: the ratio of the two rows' best throughput rounds.
	//     Machine noise only ever adds time, so each row's best of
	//     several GC-isolated rounds is its clean measurement — unless a
	//     noise burst parks over one row's whole window and freezes an
	//     inflated minimum into the numerator.
	//   - median-paired: the median over rounds of the per-round
	//     inst/base ratio. Because the pair ran as one interleaved group
	//     (see Spec.Group), round r's two segments are adjacent in time
	//     and share whatever the machine was doing, so sustained load
	//     cancels out of the ratio — but intermittent bursts that land
	//     inst-side in more than half the rounds inflate the median.
	//
	// A genuine code regression adds its cost to every round of the
	// instrumented row and therefore raises both estimates, so gating on
	// the smaller keeps full detection power while a breach requires
	// both noise regimes at once.
	Overhead               float64
	BaseAllocs, InstAllocs float64
	// TimeBreach is true when Overhead exceeds the pair's budget;
	// AllocBreach when the instrumented row allocates more than the
	// baseline (the record path must be allocation-free, so any extra
	// allocation is a breach regardless of the time budget).
	TimeBreach  bool
	AllocBreach bool
	// Missing names a row absent from the report (both verdicts false).
	Missing string
}

// Overhead evaluates every pair against r. Pairs whose rows are missing
// are reported as such and MUST fail the gate: losing a row silently
// would retire the budget it carries.
func Overhead(r *Report, pairs []OverheadPair) []OverheadResult {
	out := make([]OverheadResult, 0, len(pairs))
	for _, p := range pairs {
		res := OverheadResult{Pair: p}
		base, okB := r.Result(p.Base)
		inst, okI := r.Result(p.Inst)
		switch {
		case !okB:
			res.Missing = p.Base
		case !okI:
			res.Missing = p.Inst
		default:
			res.BaseNs, res.InstNs = base.NsPerOp, inst.NsPerOp
			res.BaseAllocs, res.InstAllocs = base.AllocsPerOp, inst.AllocsPerOp
			if base.NsPerOp > 0 {
				// NsPerOp is each row's best round: the min/min estimate.
				res.Overhead = inst.NsPerOp/base.NsPerOp - 1
				// The median-paired estimate needs both rows' round
				// series from one group run (equal lengths, produced in
				// lockstep). Reports predating RoundsNs fall back to
				// min/min alone.
				if len(base.RoundsNs) > 0 && len(base.RoundsNs) == len(inst.RoundsNs) {
					if mp := medianPaired(base.RoundsNs, inst.RoundsNs); mp < res.Overhead {
						res.Overhead = mp
					}
				}
			}
			res.TimeBreach = res.Overhead > p.Budget
			// Same absolute floor as the comparison gate: allocs/op is a
			// measured rate, not an exact count, so require half an
			// allocation of growth before calling it a new allocation.
			res.AllocBreach = inst.AllocsPerOp-base.AllocsPerOp > 0.5
		}
		out = append(out, res)
	}
	return out
}

// medianPaired is the median over rounds of inst[r]/base[r] minus one.
// Rounds where the baseline segment measured zero (degenerate) are
// skipped; an empty survivor set returns +Inf so the caller's min keeps
// the min/min estimate.
func medianPaired(base, inst []float64) float64 {
	ratios := make([]float64, 0, len(base))
	for r := range base {
		if base[r] > 0 {
			ratios = append(ratios, inst[r]/base[r]-1)
		}
	}
	if len(ratios) == 0 {
		return math.Inf(1)
	}
	sort.Float64s(ratios)
	mid := len(ratios) / 2
	if len(ratios)%2 == 1 {
		return ratios[mid]
	}
	return (ratios[mid-1] + ratios[mid]) / 2
}

// FprintOverhead renders the pair verdicts as an aligned table.
func FprintOverhead(w io.Writer, results []OverheadResult) {
	width := 0
	for _, res := range results {
		if len(res.Pair.Inst) > width {
			width = len(res.Pair.Inst)
		}
	}
	for _, res := range results {
		if res.Missing != "" {
			fmt.Fprintf(w, "  %-*s  MISSING row %q\n", width, res.Pair.Inst, res.Missing)
			continue
		}
		verdict := "ok"
		switch {
		case res.TimeBreach && res.AllocBreach:
			verdict = "BREACHED (time, allocs)"
		case res.TimeBreach:
			verdict = "BREACHED"
		case res.AllocBreach:
			verdict = "BREACHED (allocs)"
		}
		fmt.Fprintf(w, "  %-*s  %10.1f -> %10.1f ns/op  (%+5.1f%% of %.0f%% budget)  %6.2f -> %6.2f allocs  %s\n",
			width, res.Pair.Inst, res.BaseNs, res.InstNs,
			res.Overhead*100, res.Pair.Budget*100,
			res.BaseAllocs, res.InstAllocs, verdict)
	}
}
