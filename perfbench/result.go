package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// namedMetric keeps the report order.
type namedMetric struct {
	name string
	metric
}

// identity holds the sums the attribution identity is checked on: the
// words handed to Backend.Commit against the words fences made durable,
// the outcome records of every op type against the completed ops, and
// the time spent in Commit against the time spent in ops.
type identity struct {
	commitWords, fenceWords uint64
	records, ops            int
	commitBusy, opTime      time.Duration
}

// result is a run's outcome. endToEnd holds the metrics every workload
// has; workload holds the end-to-end metrics only some workloads have
// (crashes, restarts) and failed_frac, which is 0 on a correct run; layers
// holds the per-layer metrics of traced rounds.
type result struct {
	correct                    bool
	attempted, failed          int
	endToEnd, workload, layers []namedMetric
	latSamples                 int       // untraced op latencies the percentiles pool
	roundRates                 []float64 // ops/s of each untraced round
	roundSetups                []float64 // s, set-up of each untraced round
	findings                   findings
	identity                   identity
	spansDropped               int
}

// result computes the run's metrics: the end-to-end set from untraced
// rounds, the per-layer set from traced ones.
func (b *bench) result() *result {
	u, t := &b.tot[0], &b.tot[1]
	res := &result{
		attempted: u.attempted + t.attempted,
		failed:    b.failed,
		findings:  b.findings,
	}
	res.correct = res.failed == 0 && res.attempted > 0
	res.roundRates, res.roundSetups = u.rates, u.setup

	var recovery []float64
	recovery = append(append(recovery, u.recovery...), t.recovery...)
	e2e := func(name, unit string, v float64) {
		res.endToEnd = append(res.endToEnd, namedMetric{name, metric{v, unit}})
	}
	e2e("setup_s", "s", median(u.setup))
	// Throughput is the median of the rounds' rates, so that one round
	// caught in a burst of someone else's disk traffic does not move it.
	e2e("ops_per_s", "ops/s", median(u.rates))
	res.latSamples = len(u.lat)
	e2e("op_p50_us", "us", percentile(u.lat, 0.50)/1e3)
	e2e("op_p99_us", "us", percentile(u.lat, 0.99)/1e3)
	e2e("heap_mb", "MiB", median(u.heap))
	res.workload = []namedMetric{
		{"crashed_op_p50_us", metric{percentile(u.crashLat, 0.50) / 1e3, "us"}},
		{"recovery_ms", metric{median(recovery), "ms"}},
		{"failed_frac", metric{ratio(float64(res.failed), float64(res.attempted)), "ratio"}},
	}

	lay := func(name, unit string, v float64) {
		res.layers = append(res.layers, namedMetric{name, metric{v, unit}})
	}
	tops := float64(t.ops)
	for k := opKind(0); k < nOpKinds; k++ {
		lay("objects."+opNames[k]+"_p50_us", "us", percentile(t.kindLat[k], 0.50)/1e3)
	}
	lay("objects.empty_frac", "ratio", ratio(float64(t.empty), float64(len(t.kindLat[opDeq])+len(t.kindLat[opPop]))))
	if len(t.rebuild) > 0 {
		lay("objects.rebuild_ms", "ms", median(t.rebuild))
	} else {
		lay("objects.rebuild_ms", "ms", median(t.build))
	}

	st := &t.steps
	lay("proc.steps_per_op", "count", ratio(float64(st.steps), tops))
	lay("proc.nested_step_frac", "ratio", ratio(float64(st.nested), float64(st.steps)))
	lay("proc.recovery_steps_per_crash", "count", ratio(float64(st.recovery), float64(st.crashes)))
	lay("proc.await_steps_per_op", "count", ratio(float64(st.await), tops))
	lay("proc.crashes_per_op", "count", ratio(float64(st.crashes), tops))
	lay("core.steps_per_op", "count", ratio(float64(st.core), tops))

	m := &t.mem
	lay("nvm.reads_per_op", "count", ratio(float64(m.Reads), tops))
	lay("nvm.writes_per_op", "count", ratio(float64(m.Writes), tops))
	lay("nvm.cas_per_op", "count", ratio(float64(m.CASes), tops))
	lay("nvm.faa_per_op", "count", ratio(float64(m.FAAs), tops))
	lay("nvm.flushes_per_op", "count", ratio(float64(m.Flushes), tops))
	lay("nvm.fences_per_op", "count", ratio(float64(m.Fences), tops))
	lay("nvm.fence_words_per_op", "count", ratio(float64(m.FenceWords), tops))
	lay("nvm.shard_contention_per_op", "count", ratio(float64(m.ShardContention), tops))

	// The timing wrapper sits around whichever backend the workload
	// installs; its figures belong to that layer and read 0 on the other.
	c := &t.commits
	commitP50 := percentile(c.lat, 0.50) / 1e3
	commitP99 := percentile(c.lat, 0.99) / 1e3
	share := ratio(float64(c.busy), float64(t.opTime))
	persistOn, replicaOn := 0.0, 0.0
	switch b.w.backend {
	case fileBackend:
		persistOn = 1
	case replicaBackend:
		replicaOn = 1
	}
	lay("persist.commits_per_op", "count", ratio(float64(c.commits), tops))
	lay("persist.words_per_commit", "count", ratio(float64(c.words), float64(c.commits)))
	lay("persist.commit_p50_us", "us", persistOn*commitP50)
	lay("persist.commit_p99_us", "us", persistOn*commitP99)
	lay("persist.commit_share", "ratio", persistOn*share)
	lay("persist.wal_fsyncs_per_op", "count", ratio(float64(t.io.walFsync), tops))
	lay("persist.data_fsyncs_per_op", "count", ratio(float64(t.io.dataFsync), tops))
	lay("persist.pwrites_per_op", "count", ratio(float64(t.io.pwrite), tops))
	lay("persist.store_bytes", "B", median(t.store))
	lay("persist.open_ms", "ms", persistOn*median(t.open))
	lay("replica.commit_p50_us", "us", replicaOn*commitP50)
	lay("replica.commit_p99_us", "us", replicaOn*commitP99)
	lay("replica.commit_share", "ratio", replicaOn*share)
	lay("replica.fsyncs_per_commit", "count", replicaOn*ratio(float64(t.ioAll.walFsync+t.ioAll.dataFsync), float64(c.commits)))
	lay("replica.open_ms", "ms", replicaOn*median(t.open))
	lay("linearize.check_ms", "ms", median(b.checkMS))

	traced, untraced := median(t.rates), median(u.rates)
	lay("trace.ops_per_s", "ops/s", traced)
	lay("trace.untraced_ops_per_s", "ops/s", untraced)
	lay("trace.overhead_frac", "ratio", ratio(untraced-traced, untraced))

	res.identity = identity{
		commitWords: c.words, fenceWords: m.FenceWords,
		records: t.records, ops: t.ops,
		commitBusy: c.busy, opTime: t.opTime,
	}
	if b.cfg.spans != nil {
		res.spansDropped = b.cfg.spans.dropped
	}
	return res
}

// lookup finds a metric by name in any set.
func (r *result) lookup(name string) (metric, bool) {
	for _, set := range [][]namedMetric{r.endToEnd, r.workload, r.layers} {
		for _, m := range set {
			if m.name == name {
				return m.metric, true
			}
		}
	}
	return metric{}, false
}

// write prints every measured metric by name and unit, the audit
// findings, and as the last line the JSON result. Untraced, the JSON
// carries the end-to-end metrics every workload has; traced, the
// per-layer metrics plus the workload-specific end-to-end ones, which
// cannot carry a bound because they are 0 on some workloads.
func (r *result) write(w io.Writer, traced bool) error {
	fmt.Fprintf(w, "# rounds: %d, ops/s by round:", len(r.roundRates))
	for _, x := range r.roundRates {
		fmt.Fprintf(w, " %.0f", x)
	}
	fmt.Fprintf(w, "\n# set-up ms by round:")
	for _, x := range r.roundSetups {
		fmt.Fprintf(w, " %.2f", x*1e3)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "# op latency: %d samples pooled over the untraced rounds, %d of them beyond p99\n",
		r.latSamples, r.latSamples-int(math.Ceil(0.99*float64(r.latSamples))))
	sets := [][]namedMetric{r.endToEnd, r.workload}
	if traced {
		sets = append(sets, r.layers)
	}
	for _, set := range sets {
		for _, m := range set {
			fmt.Fprintf(w, "# %-34s %16.6f %s\n", m.name, m.Value, m.Unit)
		}
	}
	if r.spansDropped > 0 {
		fmt.Fprintf(w, "# spans beyond the in-memory cap, not kept: %d\n", r.spansDropped)
	}
	fmt.Fprintf(w, "# audit: %d failed of %d attempted ops\n", r.failed, r.attempted)
	for _, s := range r.findings.first {
		fmt.Fprintf(w, "# audit finding: %s\n", s)
	}
	set := r.endToEnd
	if traced {
		set = append(slices.Clone(r.layers), r.workload...)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]metric, len(set))}
	for _, m := range set {
		out.Metrics[m.name] = m.metric
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// percentile is the nearest-rank q-quantile of xs (ns), 0 when empty. It
// sorts xs in place.
func percentile(xs []uint32, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return float64(xs[max(i, 0)])
}

// median is the median of xs, 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
