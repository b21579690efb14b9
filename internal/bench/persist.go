package bench

import (
	"fmt"
	"os"
	"sync"

	"nrl/internal/nvm"
	"nrl/internal/persist"
	"nrl/internal/proc"
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

// appendRow commits a batch of words per op to one segmented store
// from each of procs workers at once. Worker w commits to its own
// stride of the address cycle, as one process of a durable program
// fences its own words.
func appendRow(words, procs int) Spec {
	name := fmt.Sprintf("SegmentAppend/words=%d", words)
	if procs > 1 {
		name += fmt.Sprintf("/procs=%d", procs)
	}
	return Spec{
		Name:    name,
		Workers: procs,
		Setup: func(workers, _ int) (*nvm.Memory, []func(int)) {
			f, err := persist.Open(benchDir(), persistStoreOpts())
			if err != nil {
				panic("bench: " + err.Error())
			}
			addrs := persistAddrs(f.Grow)
			ops := make([]func(int), workers)
			for w := range ops {
				ops[w] = func(i int) {
					batch := make([]nvm.WordUpdate, words)
					for k := range batch {
						batch[k] = nvm.WordUpdate{Addr: addrs[((i*workers+w)*words+k)%len(addrs)], Val: uint64(i)}
					}
					if err := f.Commit(batch); err != nil {
						panic("bench: " + err.Error())
					}
				}
			}
			return nil, ops
		},
	}
}

// replicaRow commits one word per op to a three-member replica set from
// each of procs workers at once, each to its own stride of the address
// cycle, as appendRow does.
func replicaRow(procs int) Spec {
	name := "ReplicaShip/replicas=3/words=1"
	if procs > 1 {
		name += fmt.Sprintf("/procs=%d", procs)
	}
	return Spec{
		Name:    name,
		Workers: procs,
		Setup: func(workers, _ int) (*nvm.Memory, []func(int)) {
			root := benchDir()
			s, err := replica.Open(replica.Options{
				Dirs:    replica.MemberDirs(root, 3),
				Persist: persistStoreOpts(),
			})
			if err != nil {
				panic("bench: " + err.Error())
			}
			addrs := persistAddrs(s.Grow)
			ops := make([]func(int), workers)
			for w := range ops {
				ops[w] = func(i int) {
					if err := s.Commit([]nvm.WordUpdate{{Addr: addrs[(i*workers+w)%len(addrs)], Val: uint64(i)}}); err != nil {
						panic("bench: " + err.Error())
					}
				}
			}
			return nil, ops
		},
	}
}

// queueFileRow is one recoverable ENQ+DEQ pair per op from one process
// on Buffered memory over one segmented store, so each of the pair's
// fences is a commit: the row prices the queue's fence placement on
// real storage.
func queueFileRow() Spec {
	return queueRow("Queue/EnqDeq/recoverable/store=file", func() proc.Config {
		f, err := persist.Open(benchDir(), persistStoreOpts())
		if err != nil {
			panic("bench: " + err.Error())
		}
		return proc.Config{Mem: nvm.New(nvm.WithMode(nvm.Buffered), nvm.WithBackend(f))}
	})
}

// PersistSuite returns the durable-backend benchmarks ("persist"
// report): segmented WAL append throughput on a single store, the same
// with multi-word batches and with two committers whose syncs overlap,
// quorum-commit throughput over a three-member replica set from one
// committer and from two whose commits pipeline, and the recoverable
// queue over one store. These are the BENCH_persist.json rows the CI
// regression gate watches.
func PersistSuite() []Spec {
	return []Spec{appendRow(1, 1), appendRow(8, 1), appendRow(1, 2), replicaRow(1), replicaRow(2), queueFileRow()}
}
