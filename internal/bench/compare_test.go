package bench

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// fixture builds a report with the given ns/op per benchmark name.
func fixture(suite string, ns map[string]float64) *Report {
	r := newReport(suite)
	// Insertion order does not matter: Compare walks names sorted.
	for name, v := range ns {
		r.Results = append(r.Results, Result{Name: name, Ops: 1000, NsPerOp: v})
	}
	return r
}

func TestCompareFlagsRegression(t *testing.T) {
	base := fixture("test", map[string]float64{
		"CASPersist": 100,
		"Write":      20,
	})
	head := fixture("test", map[string]float64{
		"CASPersist": 130, // +30%: regression at a 15% threshold
		"Write":      21,  // +5%: within threshold
	})
	c, err := Compare(base, head, 0.15)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	regs := c.Regressions()
	if len(regs) != 1 || regs[0].Name != "CASPersist" {
		t.Fatalf("Regressions = %+v, want exactly CASPersist", regs)
	}
	if got := regs[0].Ratio; got < 1.29 || got > 1.31 {
		t.Errorf("ratio = %v, want ~1.30", got)
	}
	if err := c.Gate(); err == nil {
		t.Fatal("Gate passed despite a regression")
	}
	var sb strings.Builder
	c.Fprint(&sb)
	if !strings.Contains(sb.String(), "REGRESSED") {
		t.Errorf("Fprint output missing REGRESSED verdict:\n%s", sb.String())
	}
}

func TestComparePassesWithinThreshold(t *testing.T) {
	base := fixture("test", map[string]float64{"CASPersist": 100})
	head := fixture("test", map[string]float64{"CASPersist": 114}) // +14%
	c, err := Compare(base, head, 0.15)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if regs := c.Regressions(); len(regs) != 0 {
		t.Fatalf("Regressions = %+v, want none", regs)
	}
	if err := c.Gate(); err != nil {
		t.Fatalf("Gate failed within threshold: %v", err)
	}
}

func TestCompareImprovementIsNotRegression(t *testing.T) {
	base := fixture("test", map[string]float64{"CASPersist": 7000})
	head := fixture("test", map[string]float64{"CASPersist": 56})
	c, err := Compare(base, head, 0.15)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if err := c.Gate(); err != nil {
		t.Fatalf("Gate failed on a 125x improvement: %v", err)
	}
	if r := c.Deltas[0].Ratio; r > 0.01 {
		t.Errorf("ratio = %v, want ~0.008", r)
	}
}

func TestCompareMissingBenchmarkFailsGate(t *testing.T) {
	base := fixture("test", map[string]float64{"CASPersist": 100, "Gone": 50})
	head := fixture("test", map[string]float64{"CASPersist": 100, "Fresh": 10})
	c, err := Compare(base, head, 0.15)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(c.OnlyOld) != 1 || c.OnlyOld[0] != "Gone" {
		t.Fatalf("OnlyOld = %v, want [Gone]", c.OnlyOld)
	}
	if len(c.OnlyNew) != 1 || c.OnlyNew[0] != "Fresh" {
		t.Fatalf("OnlyNew = %v, want [Fresh]", c.OnlyNew)
	}
	if err := c.Gate(); err == nil {
		t.Fatal("Gate passed despite a vanished baseline benchmark")
	}
}

func TestCompareRejectsSuiteMismatch(t *testing.T) {
	base := fixture("experiments", map[string]float64{"X": 1})
	head := fixture("persist", map[string]float64{"X": 1})
	if _, err := Compare(base, head, 0.15); err == nil {
		t.Fatal("Compare accepted reports from different suites")
	}
}

func TestCompareDefaultThreshold(t *testing.T) {
	base := fixture("test", map[string]float64{"X": 100})
	head := fixture("test", map[string]float64{"X": 114})
	c, err := Compare(base, head, 0) // 0 selects DefaultThreshold (15%)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if c.Threshold != DefaultThreshold {
		t.Fatalf("threshold = %v, want %v", c.Threshold, DefaultThreshold)
	}
	if len(c.Regressions()) != 0 {
		t.Fatal("14% growth flagged under the default 15% threshold")
	}
}

func TestCompareEnvMismatchIsNoted(t *testing.T) {
	base := fixture("test", map[string]float64{"X": 100})
	head := fixture("test", map[string]float64{"X": 100})
	head.Go = "go1.99.0"
	c, err := Compare(base, head, 0.15)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if c.EnvMismatch == "" {
		t.Fatal("environment mismatch not recorded")
	}
	if err := c.Gate(); err != nil {
		t.Fatalf("env mismatch alone must not fail the gate: %v", err)
	}
}

// allocFixture is fixture with per-row allocation rates.
func allocFixture(suite string, rows map[string][2]float64) *Report {
	r := newReport(suite)
	for name, v := range rows {
		r.Results = append(r.Results, Result{Name: name, Ops: 1000, NsPerOp: v[0], AllocsPerOp: v[1]})
	}
	return r
}

func TestCompareFlagsAllocRegression(t *testing.T) {
	base := allocFixture("test", map[string][2]float64{
		"Hot":   {100, 4},
		"Noise": {100, 0.2}, // rounding jitter on a near-zero rate
		"Wide":  {100, 20},  // one more alloc on a 20-alloc op
	})
	head := allocFixture("test", map[string][2]float64{
		"Hot":   {100, 6},    // two new allocations: regression
		"Noise": {100, 0.45}, // +0.25 absolute: under the half-alloc floor
		"Wide":  {100, 21},   // +1 absolute but only +5% relative
	})
	c, err := Compare(base, head, 0.15)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	regs := c.Regressions()
	if len(regs) != 1 || regs[0].Name != "Hot" {
		t.Fatalf("regressions = %+v, want exactly Hot", regs)
	}
	if !regs[0].AllocRegression || regs[0].Regression {
		t.Fatalf("Hot = %+v, want an alloc-only regression", regs[0])
	}
	if err := c.Gate(); err == nil {
		t.Fatal("alloc regression did not fail the gate")
	}
}

func TestOverheadGate(t *testing.T) {
	pair := OverheadPair{Base: "Bare", Inst: "Instrumented", Budget: 0.15}
	gate := func(res []OverheadResult) error { return (&Comparison{Overhead: res}).Gate() }

	within := allocFixture("test", map[string][2]float64{
		"Bare": {100, 4}, "Instrumented": {112, 4},
	})
	res := Overhead(within, []OverheadPair{pair})
	if err := gate(res); err != nil {
		t.Fatalf("12%% overhead failed a 15%% budget: %v", err)
	}

	over := allocFixture("test", map[string][2]float64{
		"Bare": {100, 4}, "Instrumented": {120, 4},
	})
	res = Overhead(over, []OverheadPair{pair})
	if err := gate(res); err == nil {
		t.Fatal("20% overhead passed a 15% budget")
	}
	if !res[0].TimeBreach || res[0].AllocBreach {
		t.Fatalf("result = %+v, want a time-only breach", res[0])
	}

	allocs := allocFixture("test", map[string][2]float64{
		"Bare": {100, 4}, "Instrumented": {105, 5},
	})
	res = Overhead(allocs, []OverheadPair{pair})
	if err := gate(res); err == nil {
		t.Fatal("an extra allocation passed the budget")
	}

	missing := allocFixture("test", map[string][2]float64{"Bare": {100, 4}})
	res = Overhead(missing, []OverheadPair{pair})
	if err := gate(res); err == nil {
		t.Fatal("a vanished instrumented row passed the gate")
	}
	if res[0].Missing != "Instrumented" {
		t.Fatalf("Missing = %q, want Instrumented", res[0].Missing)
	}
}

func TestOverheadTwoEstimators(t *testing.T) {
	pair := OverheadPair{Base: "Bare", Inst: "Instrumented", Budget: 0.15}
	report := func(base, inst Result) *Report {
		base.Name, inst.Name = "Bare", "Instrumented"
		base.Ops, inst.Ops = 1000, 1000
		r := newReport("test")
		r.Results = append(r.Results, base, inst)
		return r
	}

	// A noise burst froze the instrumented minimum high (min/min +25%)
	// but the round-by-round ratios say ~10%: the paired estimate wins
	// and the pair passes.
	frozenMin := report(
		Result{NsPerOp: 100, RoundsNs: []float64{100, 101, 130, 128}},
		Result{NsPerOp: 125, RoundsNs: []float64{125, 110, 143, 141}},
	)
	res := Overhead(frozenMin, []OverheadPair{pair})
	if res[0].TimeBreach {
		t.Fatalf("burst-frozen minimum breached: overhead = %.3f", res[0].Overhead)
	}
	if got := res[0].Overhead; got > 0.12 || got < 0.08 {
		t.Fatalf("overhead = %.3f, want the ~10%% paired median", got)
	}

	// A genuine regression raises every round, so both estimates agree
	// and the smaller one still breaches.
	regressed := report(
		Result{NsPerOp: 100, RoundsNs: []float64{100, 102, 104}},
		Result{NsPerOp: 125, RoundsNs: []float64{125, 128, 131}},
	)
	res = Overhead(regressed, []OverheadPair{pair})
	if !res[0].TimeBreach {
		t.Fatalf("25%% regression passed: overhead = %.3f", res[0].Overhead)
	}

	// Pre-RoundsNs reports (or mismatched series) fall back to min/min.
	legacy := report(
		Result{NsPerOp: 100},
		Result{NsPerOp: 125, RoundsNs: []float64{125, 110}},
	)
	res = Overhead(legacy, []OverheadPair{pair})
	if !res[0].TimeBreach || res[0].Overhead != 0.25 {
		t.Fatalf("legacy report: overhead = %.3f, want the 0.25 min/min fallback", res[0].Overhead)
	}
}

// TestOverheadPairsResolveInExperimentsSuite: every pair member is an
// experiments-suite spec, or the budget silently gates nothing, and each
// instrumented row directly follows its baseline, so the pair's
// segments run back to back in every pass of the interleaved group.
func TestOverheadPairsResolveInExperimentsSuite(t *testing.T) {
	at := map[string]int{}
	for i, s := range ExperimentsSuite() {
		at[s.Name] = i
	}
	pairs := OverheadPairs("experiments")
	if len(pairs) != 2 {
		t.Fatalf("%d experiments overhead pairs, want 2", len(pairs))
	}
	for _, p := range pairs {
		b, okB := at[p.Base]
		i, okI := at[p.Inst]
		if !okB || !okI {
			t.Errorf("pair %q/%q: base in suite %v, inst in suite %v", p.Base, p.Inst, okB, okI)
			continue
		}
		if i != b+1 {
			t.Errorf("%q is row %d, its baseline %q row %d: not adjacent", p.Inst, i, p.Base, b)
		}
	}
	if pairs := OverheadPairs("persist"); pairs != nil {
		t.Errorf("persist suite has overhead pairs %v, want none", pairs)
	}
}

// gatedReport is an experiments report holding every capped and every
// pair row at 100 ns/op and 0 allocs/op, so it passes every gate.
func gatedReport() *Report {
	r := newReport("experiments")
	names := map[string]bool{}
	for name := range AllocCaps("experiments") {
		names[name] = true
	}
	for _, p := range OverheadPairs("experiments") {
		names[p.Base], names[p.Inst] = true, true
	}
	for name := range names {
		r.Results = append(r.Results, Result{Name: name, Ops: 1000, NsPerOp: 100})
	}
	return r
}

// TestCompareGateAppliesCapsAndOverhead: with every delta clean, Gate
// still fails on a breached cap, a missing capped row, a breached
// overhead pair and a missing pair row. Each case edits the baseline
// the same way, so the gates read the new report and no baseline can
// grandfather a breach in.
func TestCompareGateAppliesCapsAndOverhead(t *testing.T) {
	c, err := Compare(gatedReport(), gatedReport(), 0)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if err := c.Gate(); err != nil {
		t.Fatalf("clean comparison gated: %v", err)
	}
	if len(c.Caps) != len(AllocCaps("experiments")) || len(c.Overhead) != len(OverheadPairs("experiments")) {
		t.Fatalf("Compare evaluated %d caps and %d pairs", len(c.Caps), len(c.Overhead))
	}
	set := func(name string, f func(*Result)) func(*Report) {
		return func(r *Report) {
			for i := range r.Results {
				if r.Results[i].Name == name {
					f(&r.Results[i])
				}
			}
		}
	}
	drop := func(name string) func(*Report) {
		return func(r *Report) {
			r.Results = slices.DeleteFunc(r.Results, func(res Result) bool { return res.Name == name })
		}
	}
	capped, inst := "Stack/PushPop/recoverable/mode=Buffered", OverheadPairs("experiments")[1].Inst
	for _, tc := range []struct {
		name string
		edit func(*Report)
		want string
	}{
		{"cap breached", set(capped, func(r *Result) { r.AllocsPerOp = 0.2 }), "1 breach(es)"},
		{"capped row missing", drop(capped), "1 capped benchmark(s) missing"},
		{"overhead breached", set(inst, func(r *Result) { r.NsPerOp = 130 }), "overhead pair"},
		{"pair row missing", drop(inst), "overhead pair"},
	} {
		base, head := gatedReport(), gatedReport()
		tc.edit(base)
		tc.edit(head)
		c, err := Compare(base, head, 0)
		if err != nil {
			t.Fatalf("%s: Compare: %v", tc.name, err)
		}
		if len(c.Regressions()) != 0 || len(c.OnlyOld) != 0 {
			t.Fatalf("%s: deltas not clean: %+v, only old %v", tc.name, c.Regressions(), c.OnlyOld)
		}
		err = c.Gate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Gate = %v, want an error naming %q", tc.name, err, tc.want)
		}
		var sb strings.Builder
		c.Fprint(&sb)
		if out := sb.String(); !strings.Contains(out, "BREACH") && !strings.Contains(out, "MISSING") {
			t.Errorf("%s: Fprint shows no verdict:\n%s", tc.name, out)
		}
	}
}

// TestComparePersistAppliesCaps: a persist-suite comparison applies the
// persist caps, and only those.
func TestComparePersistAppliesCaps(t *testing.T) {
	caps := AllocCaps("persist")
	report := func(allocs float64) *Report {
		r := newReport("persist")
		for name, cap := range caps {
			r.Results = append(r.Results, Result{Name: name, Ops: 1000, NsPerOp: 100, AllocsPerOp: cap + allocs})
		}
		return r
	}
	c, err := Compare(report(0), report(0), 0)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(c.Caps) != len(caps) || len(c.Overhead) != 0 {
		t.Fatalf("persist comparison evaluated %d caps (want %d) and %d pairs", len(c.Caps), len(caps), len(c.Overhead))
	}
	if err := c.Gate(); err != nil {
		t.Fatalf("rows at their caps gated: %v", err)
	}
	// A tenth of an allocation over every cap: under the relative
	// gate's half-allocation floor, over the caps' epsilon.
	c, err = Compare(report(0.1), report(0.1), 0)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if err := c.Gate(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d breach(es)", len(caps))) {
		t.Errorf("Gate = %v, want every persist cap breached", err)
	}
}
