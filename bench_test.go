// BenchmarkSuites runs every internal/bench suite under testing.B: the
// Spec values `nrlbench -json` measures, EXPERIMENTS.md's E1–E13 rows
// included, one sub-benchmark per suite/spec.
package nrl_test

import (
	"testing"

	"nrl/internal/bench"
)

// BenchmarkSuites measures each spec with bench.Measure at b.N ops (one
// round, no latency sampling; b.N replaces a spec's own op count) and
// reports its ns/op, allocation rates and NVRAM primitives per op.
func BenchmarkSuites(b *testing.B) {
	b.Cleanup(bench.CleanupDirs)
	suites := bench.Suites()
	for _, suite := range bench.SuiteNames() {
		for _, s := range suites[suite] {
			b.Run(suite+"/"+s.Name, func(b *testing.B) {
				s.Ops = b.N
				res := bench.Measure(s, bench.Options{Rounds: 1, Samples: -1})
				b.ReportMetric(res.NsPerOp, "ns/op")
				b.ReportMetric(res.AllocsPerOp, "allocs/op")
				b.ReportMetric(res.BytesPerOp, "B/op")
				b.ReportMetric(res.MemOpsPerOp, "mem-ops/op")
			})
		}
	}
}
