package bench

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"nrl/internal/nvm"
)

// Spec describes one benchmark: a name, a worker count, and a Setup
// that builds a fresh instance of the workload. Setup receives the
// resolved worker count and the total operation budget (measured ops
// plus warmup — capacity-bounded objects size themselves from it) and
// returns the memory whose nvm.Stats the harness should attribute to
// the run (nil if the workload has no interesting persistence side)
// plus one operation closure per worker; closure w is called with the
// iteration index from a goroutine dedicated to worker w.
type Spec struct {
	Name    string
	Workers int
	Setup   func(workers, totalOps int) (mem *nvm.Memory, ops []func(i int))
	// Group, when non-empty, interleaves this spec's throughput rounds
	// with the adjacent specs sharing the same Group (round-robin, order
	// alternating per round). Rows whose RATIO is gated — an overhead
	// pair — belong in one group: a noise burst on a shared machine then
	// lands on both rows instead of inflating one side of the ratio.
	Group string
	// Ops, when positive, is this spec's own total operation count and
	// takes the place of Options.Ops. One-shot and size-dependent rows
	// need it: a row that builds a fresh object per op, replays an O(n)
	// log or checks a whole history cannot run at a suite-wide count,
	// whose 6x-rounds capacity budget (see MeasureGroup) would build
	// hundreds of thousands of objects.
	Ops int
	// MaxProcs, when positive, is GOMAXPROCS while the spec's workers run
	// (warmup, rounds and latency phase); the collector and the harness
	// run at the process's own setting.
	MaxProcs int
}

// Options tunes a suite run.
type Options struct {
	// Ops is the total operation count per benchmark, split evenly
	// across the spec's workers. Zero selects DefaultOps.
	Ops int
	// Samples is the number of operations to time individually for the
	// latency percentiles. Zero selects DefaultSamples; negative
	// disables sampling (P50/P99 stay zero).
	Samples int
	// Rounds is how many times the throughput phase runs; the reported
	// ns/op is the minimum across rounds. One round measures whatever the
	// machine was doing at that moment; the min of several is the
	// workload's actual cost, which is what ratio gates (the regression
	// gate, the recorder-overhead gate) need to not flake on a noisy
	// host. Interleaved groups treat Rounds as a floor and keep running
	// extra rounds — to a cap of 6x — until every row's best round has
	// stopped improving (see MeasureGroup), so a ratio of two bests
	// compares two converged floors. Allocation and nvm rates are
	// averaged over all rounds (they are deterministic, so rounds do not
	// blur them). Zero selects DefaultRounds.
	Rounds int
	// Repeats, when above 1, is how many times RunSuite measures the
	// whole suite, each time over fresh instances; every row keeps the
	// repeat with its best round. A floor then escapes an unlucky
	// instance (a memory layout that slows one run of a tight loop by a
	// third) as well as a slow stretch of the machine.
	Repeats int
}

// Default measurement sizes: large enough that per-run fixed costs
// (goroutine spawns, the sampling slices) amortise below the reported
// resolution, small enough that a full suite stays in CI-smoke range.
const (
	DefaultOps     = 200_000
	DefaultSamples = 20_000
	DefaultRounds  = 7
)

func (o Options) withDefaults() Options {
	if o.Ops <= 0 {
		o.Ops = DefaultOps
	}
	if o.Samples == 0 {
		o.Samples = DefaultSamples
	}
	if o.Rounds <= 0 {
		o.Rounds = DefaultRounds
	}
	return o
}

// timerOverhead estimates the cost of one time.Now/time.Since pair, so
// sampled latencies can be corrected for the harness's own timer reads.
// The estimate is the median of a short calibration loop.
func timerOverhead() time.Duration {
	const rounds = 2001
	lat := make([]time.Duration, rounds)
	for i := range lat {
		t0 := time.Now()
		lat[i] = time.Since(t0)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[rounds/2]
}

// Measure runs one spec and returns its measurements. See MeasureGroup
// for the phases; Measure is a group of one.
func Measure(s Spec, o Options) Result {
	return MeasureGroup([]Spec{s}, o)[0]
}

// instance is one spec's live state during a MeasureGroup run.
type instance struct {
	spec       Spec
	workers    int
	per        int
	total      int
	samplesPer int
	mem        *nvm.Memory
	fns        []func(int)
	best       time.Duration
	rounds     []float64
	mallocs    uint64
	bytes      uint64
	lastBytes  uint64 // allocated by the latest timed segment
}

// MeasureGroup runs a set of specs with their throughput rounds
// interleaved, and returns one Result per spec in order.
//
// Each spec's run has two measured phases over one workload instance.
// The throughput phase runs every worker concurrently with no per-op
// instrumentation (the `go test -bench` convention: ns/op is wall time
// over total operations) and repeats o.Rounds times (more for groups,
// until the bests converge — see the round loop); the reported ns/op is
// the best round, and the allocation and nvm.Stats rates are deltas
// over exactly the spec's own timed segments. Rounds rotate across the
// group's specs — spec A round 1, spec B round 1, spec A round 2, ... —
// with the order reversing on every pass, so slow drift and noise
// bursts of a shared machine land on every spec of the group instead of
// whichever one was running.
// The latency phase then times each operation individually — all
// workers still running concurrently, corrected for calibrated timer
// overhead — so the percentiles reflect latency under the benchmark's
// own concurrency without polluting the throughput number with timer
// reads.
func MeasureGroup(specs []Spec, o Options) []Result {
	o = o.withDefaults()
	// Adaptive extension (the round loop below) can run groups past
	// o.Rounds, so capacity-bounded workloads must be sized for the cap,
	// not the floor.
	budgetRounds := o.Rounds
	if len(specs) > 1 {
		budgetRounds = 6 * o.Rounds
	}
	insts := make([]*instance, len(specs))
	for i, s := range specs {
		in := &instance{spec: s, workers: s.Workers}
		if in.workers <= 0 {
			in.workers = 1
		}
		ops := o.Ops
		if s.Ops > 0 {
			ops = s.Ops
		}
		in.per = ops / in.workers
		if in.per < 1 {
			in.per = 1
		}
		in.total = in.per * in.workers
		warm := in.per / 10
		if warm > 1000 {
			warm = 1000
		}
		if o.Samples > 0 {
			in.samplesPer = o.Samples / in.workers
			if in.samplesPer > in.per {
				in.samplesPer = in.per
			}
		}
		in.mem, in.fns = s.Setup(in.workers, (in.per*budgetRounds+warm+in.samplesPer)*in.workers)
		if len(in.fns) != in.workers {
			panic("bench: Setup returned wrong worker count for " + s.Name)
		}
		// Warm up: a slice of the real workload, so first-touch costs
		// (slab growth, flush-set registration, scheduler state) are
		// paid before the measured region.
		in.timed(warm, nil, 0)
		if in.mem != nil {
			in.mem.DrainStats()
		}
		insts[i] = in
	}

	// Throughput rounds, interleaved. No collection may start inside a
	// timed segment: a segment's allocations would otherwise become GC
	// work inside whichever segment runs next, which biases any ratio
	// taken between rows of the group. So the collector runs before a
	// segment that could reach the runtime's next collection target —
	// one whose previous segment allocated at least half the heap's
	// remaining headroom — and before every spec's first segment; it
	// also runs once gcSlack bytes were allocated since it last did,
	// which bounds the heap of a large group. It does not run before the
	// other segments: over rows whose ops allocate nothing, a collection
	// per segment would cost a large interleaved group more time than
	// its rounds.
	//
	// Groups run at least o.Rounds rounds and then keep going — to a cap
	// of 6x — until every row's best has been stale for staleRounds
	// consecutive rounds. A ratio gate divides the group's bests, and a
	// best is only meaningful once extending the run stops lowering it:
	// a noise burst parked over one row's segments would otherwise
	// freeze an inflated floor into the ratio.
	const staleRounds = 4
	maxRounds := o.Rounds
	if len(insts) > 1 {
		maxRounds = 6 * o.Rounds
	}
	const gcSlack = 16 << 20
	var ms0, ms1 runtime.MemStats
	var collected uint64 // TotalAlloc at the last collection
	lastImprove := make([]int, len(insts))
	for round := 0; round < maxRounds; round++ {
		if round >= o.Rounds {
			converged := true
			for k := range insts {
				if round-lastImprove[k] < staleRounds {
					converged = false
					break
				}
			}
			if converged {
				break
			}
		}
		for k := range insts {
			i := k
			if round%2 == 1 {
				i = len(insts) - 1 - k
			}
			in := insts[i]
			runtime.ReadMemStats(&ms0)
			if round == 0 || ms0.TotalAlloc-collected > gcSlack || ms0.HeapAlloc+2*in.lastBytes >= ms0.NextGC {
				runtime.GC()
				runtime.ReadMemStats(&ms0)
				collected = ms0.TotalAlloc
			}
			wall := in.timed(in.per, nil, 0)
			runtime.ReadMemStats(&ms1)
			// An improvement under a fifth of a percent is measurement
			// grain, not a falling floor; it updates the best without
			// resetting the staleness clock.
			if round == 0 || float64(wall) < 0.998*float64(in.best) {
				lastImprove[i] = round
			}
			if round == 0 || wall < in.best {
				in.best = wall
			}
			in.rounds = append(in.rounds, float64(wall.Nanoseconds())/float64(in.total))
			in.lastBytes = ms1.TotalAlloc - ms0.TotalAlloc
			in.mallocs += ms1.Mallocs - ms0.Mallocs
			in.bytes += ms1.TotalAlloc - ms0.TotalAlloc
		}
	}

	results := make([]Result, len(insts))
	for i, in := range insts {
		allOps := in.total * len(in.rounds)
		res := Result{
			Name:    in.spec.Name,
			Ops:     in.total,
			NsPerOp: float64(in.best.Nanoseconds()) / float64(in.total),
		}
		res.RoundsNs = in.rounds
		res.AllocsPerOp = float64(in.mallocs) / float64(allOps)
		res.BytesPerOp = float64(in.bytes) / float64(allOps)
		if in.mem != nil {
			st := in.mem.DrainStats()
			res.MemOpsPerOp = float64(st.Total()) / float64(allOps)
			res.FlushesPerOp = float64(st.Flushes) / float64(allOps)
			res.FencesPerOp = float64(st.Fences) / float64(allOps)
			res.FenceWordsPerOp = float64(st.FenceWords) / float64(allOps)
			res.ShardContention = st.ShardContention
		}

		// Latency phase.
		if in.samplesPer > 0 {
			overhead := timerOverhead()
			lat := make([][]time.Duration, in.workers)
			in.timed(in.samplesPer, lat, 1)
			if all := mergeLatencies(lat, overhead); len(all) > 0 {
				res.P50Ns = float64(percentile(all, 50))
				res.P99Ns = float64(percentile(all, 99))
			}
		}
		results[i] = res
	}
	return results
}

// timed runs per iterations of every worker at the spec's MaxProcs and
// returns their wall time, which excludes the GOMAXPROCS switches.
func (in *instance) timed(per int, lat [][]time.Duration, every int) time.Duration {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(in.spec.MaxProcs))
	start := time.Now()
	runWorkers(in.fns, per, lat, every)
	return time.Since(start)
}

// runWorkers executes per iterations of every worker concurrently.
// When lat is non-nil, each worker times every `every`-th operation
// into lat[w] (preallocated here, so the timed region never grows a
// slice). A panicking operation is recovered in its worker and
// re-raised on the caller once every worker has stopped, so the
// caller's deferred cleanup (the persist suite's store directories)
// runs instead of the process dying on the worker's goroutine.
func runWorkers(fns []func(int), per int, lat [][]time.Duration, every int) {
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	for w := range fns {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			fn := fns[w]
			if lat == nil || every <= 0 {
				for i := 0; i < per; i++ {
					fn(i)
				}
				return
			}
			samples := make([]time.Duration, 0, per/every+1)
			for i := 0; i < per; i++ {
				if i%every == 0 {
					t0 := time.Now()
					fn(i)
					samples = append(samples, time.Since(t0))
				} else {
					fn(i)
				}
			}
			lat[w] = samples
		}(w)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// mergeLatencies pools every worker's samples, corrects each for the
// calibrated timer overhead (flooring at zero) and sorts them.
func mergeLatencies(lat [][]time.Duration, overhead time.Duration) []time.Duration {
	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	for i, d := range all {
		if d > overhead {
			all[i] = d - overhead
		} else {
			all[i] = 0
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// percentile returns the p-th percentile of sorted samples
// (nearest-rank).
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

// RunSuite measures every spec and assembles the report. Runs of
// adjacent specs sharing a non-empty Group are measured together with
// interleaved rounds (see MeasureGroup). With o.Repeats above 1 each
// row reports the repeat with the best round, and RoundsNs holds the
// rounds of every repeat.
func RunSuite(suite string, specs []Spec, o Options) *Report {
	r := newReport(suite)
	for rep := 0; rep < max(o.Repeats, 1); rep++ {
		var results []Result
		for i := 0; i < len(specs); {
			j := i + 1
			if g := specs[i].Group; g != "" {
				for j < len(specs) && specs[j].Group == g {
					j++
				}
			}
			results = append(results, MeasureGroup(specs[i:j], o)...)
			i = j
		}
		if rep == 0 {
			r.Results = results
			continue
		}
		for k, res := range results {
			rounds := append(r.Results[k].RoundsNs, res.RoundsNs...)
			if res.NsPerOp < r.Results[k].NsPerOp {
				r.Results[k] = res
			}
			r.Results[k].RoundsNs = rounds
		}
	}
	return r
}
