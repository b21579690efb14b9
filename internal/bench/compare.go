package bench

import (
	"errors"
	"fmt"
	"io"
)

// DefaultThreshold is the relative ns/op growth the regression gate
// tolerates before failing (15%): wide enough to ride out shared-runner
// noise, tight enough to catch a lost fast path.
const DefaultThreshold = 0.15

// Delta is one benchmark's old-vs-new comparison. Ratio is new/old
// ns/op (so 2.0 means twice as slow, 0.5 twice as fast). An allocation
// regression is tracked separately from the time ratio: allocs/op is
// effectively deterministic, so a new allocation on a hot path is a
// real code change even when the timing noise hides it.
type Delta struct {
	Name       string
	OldNs      float64
	NewNs      float64
	Ratio      float64
	Regression bool

	OldAllocs       float64
	NewAllocs       float64
	AllocRegression bool
}

// Comparison is the result of diffing two reports of the same suite,
// together with the verdicts of the suite's absolute gates on the fresh
// report: its allocs-per-op caps (AllocCaps) and overhead budgets
// (OverheadPairs). Those read the fresh report alone, so no baseline can
// grandfather an allocation or an overhead in.
type Comparison struct {
	Suite       string
	Threshold   float64
	Deltas      []Delta
	OnlyOld     []string // benchmarks that disappeared (treated as failures by Gate)
	OnlyNew     []string // newly added benchmarks (informational)
	EnvMismatch string   // non-empty when the reports came from different environments
	Caps        []CapResult
	Overhead    []OverheadResult
}

// Regressions returns the deltas that exceeded the threshold (on either
// time or allocations).
func (c *Comparison) Regressions() []Delta {
	var out []Delta
	for _, d := range c.Deltas {
		if d.Regression || d.AllocRegression {
			out = append(out, d)
		}
	}
	return out
}

// Gate returns an error when the comparison should fail a CI run: any
// ns/op or allocs/op regression beyond the threshold, a benchmark that
// vanished (a silently dropped benchmark would otherwise retire its own
// gate), a breached or missing allocs-per-op cap, or a breached or
// missing overhead pair.
func (c *Comparison) Gate() error {
	var ns, allocs, breaches, missing, pairs int
	for _, d := range c.Deltas {
		if d.Regression {
			ns++
		}
		if d.AllocRegression {
			allocs++
		}
	}
	for _, cr := range c.Caps {
		if cr.Breach {
			breaches++
		}
		if cr.Missing {
			missing++
		}
	}
	for _, res := range c.Overhead {
		if res.TimeBreach || res.AllocBreach || res.Missing != "" {
			pairs++
		}
	}
	var errs []error
	if n := len(c.Regressions()); n > 0 {
		errs = append(errs, fmt.Errorf("bench: %d benchmark(s) regressed beyond %.0f%% (%d on ns/op, %d on allocs/op)",
			n, c.Threshold*100, ns, allocs))
	}
	if len(c.OnlyOld) > 0 {
		errs = append(errs, fmt.Errorf("bench: %d baseline benchmark(s) missing from the new report: %v", len(c.OnlyOld), c.OnlyOld))
	}
	if breaches > 0 || missing > 0 {
		errs = append(errs, fmt.Errorf("bench: absolute allocs-per-op cap failed (%d breach(es), %d capped benchmark(s) missing)",
			breaches, missing))
	}
	if pairs > 0 {
		errs = append(errs, fmt.Errorf("bench: %d overhead pair(s) breached their budget or are missing", pairs))
	}
	return errors.Join(errs...)
}

// Compare diffs two reports benchmark-by-benchmark on ns/op: base is
// the committed baseline, head the fresh run. threshold <= 0 selects
// DefaultThreshold. The suites must match; comparing an experiments
// report against a persist report is always a mistake. The suite's caps
// and overhead pairs are evaluated on head.
func Compare(base, head *Report, threshold float64) (*Comparison, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if err := head.Validate(); err != nil {
		return nil, err
	}
	if base.Suite != head.Suite {
		return nil, fmt.Errorf("bench: comparing different suites %q vs %q", base.Suite, head.Suite)
	}
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	c := &Comparison{
		Suite:     base.Suite,
		Threshold: threshold,
		Caps:      CheckAllocCaps(head, AllocCaps(head.Suite)),
		Overhead:  Overhead(head, OverheadPairs(head.Suite)),
	}
	if base.Go != head.Go || base.GOOS != head.GOOS || base.GOARCH != head.GOARCH || base.CPUs != head.CPUs {
		c.EnvMismatch = fmt.Sprintf("%s %s/%s %d CPUs vs %s %s/%s %d CPUs",
			base.Go, base.GOOS, base.GOARCH, base.CPUs, head.Go, head.GOOS, head.GOARCH, head.CPUs)
	}
	for _, name := range base.sorted() {
		o, _ := base.Result(name)
		n, ok := head.Result(name)
		if !ok {
			c.OnlyOld = append(c.OnlyOld, name)
			continue
		}
		d := Delta{
			Name: name, OldNs: o.NsPerOp, NewNs: n.NsPerOp,
			OldAllocs: o.AllocsPerOp, NewAllocs: n.AllocsPerOp,
		}
		if o.NsPerOp > 0 {
			d.Ratio = n.NsPerOp / o.NsPerOp
			d.Regression = d.Ratio > 1+threshold
		}
		// Allocation gate: at least half an allocation per op appeared AND
		// the relative growth clears the threshold. The absolute floor
		// keeps rounding jitter on near-zero rates (and GC accounting
		// noise on tiny runs) from tripping a relative-only rule; the
		// relative part keeps one extra alloc on a 20-alloc op from
		// counting as a regression.
		d.AllocRegression = d.NewAllocs-d.OldAllocs > 0.5 &&
			d.NewAllocs > d.OldAllocs*(1+threshold)
		c.Deltas = append(c.Deltas, d)
	}
	for _, name := range head.sorted() {
		if _, ok := base.Result(name); !ok {
			c.OnlyNew = append(c.OnlyNew, name)
		}
	}
	return c, nil
}

// Fprint renders the comparison as an aligned table with one verdict
// per benchmark (ok / REGRESSED / missing / new), followed by the cap
// and overhead verdicts when the suite registers any.
func (c *Comparison) Fprint(w io.Writer) {
	fmt.Fprintf(w, "suite %s (threshold %.0f%%)\n", c.Suite, c.Threshold*100)
	if c.EnvMismatch != "" {
		fmt.Fprintf(w, "  note: environments differ: %s\n", c.EnvMismatch)
	}
	width := 0
	for _, d := range c.Deltas {
		if len(d.Name) > width {
			width = len(d.Name)
		}
	}
	for _, d := range c.Deltas {
		verdict := "ok"
		switch {
		case d.Regression && d.AllocRegression:
			verdict = "REGRESSED (ns/op, allocs/op)"
		case d.Regression:
			verdict = "REGRESSED"
		case d.AllocRegression:
			verdict = "REGRESSED (allocs/op)"
		}
		fmt.Fprintf(w, "  %-*s  %10.1f -> %10.1f ns/op  (%5.2fx)  %6.2f -> %6.2f allocs  %s\n",
			width, d.Name, d.OldNs, d.NewNs, d.Ratio, d.OldAllocs, d.NewAllocs, verdict)
	}
	for _, name := range c.OnlyOld {
		fmt.Fprintf(w, "  %-*s  missing from new report\n", width, name)
	}
	for _, name := range c.OnlyNew {
		fmt.Fprintf(w, "  %-*s  new benchmark (no baseline)\n", width, name)
	}
	if len(c.Caps) > 0 {
		fmt.Fprintln(w, "absolute allocs-per-op caps (new report)")
		FprintAllocCaps(w, c.Caps)
	}
	if len(c.Overhead) > 0 {
		fmt.Fprintln(w, "flight-recorder overhead (new report)")
		FprintOverhead(w, c.Overhead)
	}
}
