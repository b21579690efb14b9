package bench

import (
	"fmt"
	"os"
	"sync"

	"nrl/internal/nvm"
	"nrl/internal/persist"
	"nrl/internal/replica"
)

// Persist-suite sizing: every operation is a real fsynced commit
// (~10^2 µs, not ~10^1 ns), so the suite runs orders of magnitude fewer
// operations than the in-memory suites or it would take minutes per
// row. SuiteOptions applies these when the caller didn't choose.
const (
	persistDefaultOps     = 1000
	persistDefaultSamples = 500
)

// SuiteOptions fills a suite's own measurement defaults into unset
// fields: the file-backed persist suite cannot amortise at the
// in-memory suites' operation counts, and the experiments suite runs
// at the paper-facing tables' own scale.
func SuiteOptions(suite string, o Options) Options {
	switch suite {
	case "persist":
		if o.Ops <= 0 {
			o.Ops = persistDefaultOps
		}
		if o.Samples == 0 {
			o.Samples = persistDefaultSamples
		}
	case "experiments":
		if o.Ops <= 0 {
			o.Ops = experimentsDefaultOps
		}
		if o.Rounds <= 0 {
			o.Rounds = experimentsRounds
		}
		if o.Repeats <= 0 {
			o.Repeats = experimentsRepeats
		}
	}
	return o
}

// benchDirs collects the temp store directories the persist suite
// creates; Setup has no teardown hook, so CleanupDirs removes them
// after the run.
var (
	benchDirsMu sync.Mutex
	benchDirs   []string
)

func benchDir() string {
	d, err := os.MkdirTemp("", "nrlbench-persist-")
	if err != nil {
		panic("bench: " + err.Error())
	}
	benchDirsMu.Lock()
	benchDirs = append(benchDirs, d)
	benchDirsMu.Unlock()
	return d
}

// CleanupDirs removes every store directory the persist suite created
// in this process. Call it after the suite's report is written.
func CleanupDirs() {
	benchDirsMu.Lock()
	dirs := benchDirs
	benchDirs = nil
	benchDirsMu.Unlock()
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// persistStoreOpts is the store shape under measurement: segments small
// enough that rotation happens every couple hundred commits and
// checkpoints fold the log a few times per run — the steady state of a
// long-lived store, not an append-only honeymoon.
func persistStoreOpts() persist.Options {
	return persist.Options{
		SegmentBytes:    16 << 10,
		CheckpointBytes: 256 << 10,
	}
}

// persistAddrs pre-grows a working set of page-spread words and returns
// the address cycle the workload commits to.
func persistAddrs(grow func(nvm.Addr, uint64)) []nvm.Addr {
	addrs := make([]nvm.Addr, 128)
	for i := range addrs {
		// Spread across pages: consecutive multiples of 6 words land on
		// different pages often enough to exercise page assembly.
		addrs[i] = nvm.Addr(i * 6)
		grow(addrs[i], 0)
	}
	return addrs
}

// appendRow commits a batch of words per op to one segmented store.
func appendRow(words int) Spec {
	return Spec{
		Name:    fmt.Sprintf("SegmentAppend/words=%d", words),
		Workers: 1,
		Setup: func(_, _ int) (*nvm.Memory, []func(int)) {
			f, err := persist.Open(benchDir(), persistStoreOpts())
			if err != nil {
				panic("bench: " + err.Error())
			}
			addrs := persistAddrs(f.Grow)
			return nil, []func(int){func(i int) {
				batch := make([]nvm.WordUpdate, words)
				for k := range batch {
					batch[k] = nvm.WordUpdate{Addr: addrs[(i*words+k)%len(addrs)], Val: uint64(i)}
				}
				if err := f.Commit(batch); err != nil {
					panic("bench: " + err.Error())
				}
			}}
		},
	}
}

// PersistSuite returns the durable-backend benchmarks ("persist"
// report): segmented WAL append throughput on a single store, the same
// with multi-word batches, and leader→follower ship throughput over a
// three-member replica set. These are the BENCH_persist.json rows the
// CI regression gate watches.
func PersistSuite() []Spec {
	specs := []Spec{appendRow(1), appendRow(8)}
	specs = append(specs, Spec{
		Name:    "ReplicaShip/replicas=3/words=1",
		Workers: 1,
		Setup: func(_, _ int) (*nvm.Memory, []func(int)) {
			root := benchDir()
			s, err := replica.Open(replica.Options{
				Dirs:    []string{root + "/r0", root + "/r1", root + "/r2"},
				Persist: persistStoreOpts(),
			})
			if err != nil {
				panic("bench: " + err.Error())
			}
			addrs := persistAddrs(s.Grow)
			return nil, []func(int){func(i int) {
				if err := s.Commit([]nvm.WordUpdate{{Addr: addrs[i%len(addrs)], Val: uint64(i)}}); err != nil {
					panic("bench: " + err.Error())
				}
			}}
		},
	})
	return specs
}
