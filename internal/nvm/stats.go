package nvm

import (
	"sync/atomic"
	"unsafe"
)

// Stats counts the operations applied to a Memory since creation (or since
// the last ResetStats). Counters are updated atomically and may be sampled
// concurrently with memory operations.
//
// A Memory keeps one Stats per process stripe rather than one in total:
// a primitive issued by process p counts into stripe p&(statStripes-1)
// (raw, unattributed accesses into stripe 0), so a process's steps never
// write a cache line another process writes. Stats, ResetStats and
// DrainStats read, clear or steal every stripe.
//
// # Snapshot consistency contract
//
// Each counter is individually atomic, but a StatsSnapshot is NOT a
// cross-counter atomic picture: Stats loads the counters one stripe and
// one counter after another, so a snapshot taken while memory operations
// are in flight may pair a read count from before a concurrent operation
// with a write count from after it, and a total summed over the stripes
// is a moment's reading of a moving sum. Likewise ResetStats zeroes the
// counters one at a time; a concurrent sampler can observe some counters
// already reset and others not, and an increment racing a reset lands on
// whichever side of the zeroing its Add happens to fall — it is never
// lost and never double counted, but which interval it is attributed to
// is unspecified.
//
// Callers that need exact per-interval deltas must either quiesce the
// memory around the sample (what the harness does: it samples between
// System.Wait and the next workload) or use DrainStats. Each increment
// lands in exactly one stripe's counter, and DrainStats atomically steals
// every stripe's value, so every increment is attributed to exactly one
// interval even under concurrency.
type Stats struct {
	reads         atomic.Uint64
	writes        atomic.Uint64
	cases         atomic.Uint64
	tases         atomic.Uint64
	faas          atomic.Uint64
	flushes       atomic.Uint64
	fences        atomic.Uint64
	systemCrashes atomic.Uint64

	// fenceWords counts the words fences made durable (after
	// deduplicating re-flushed words), so fenceWords/fences is the mean
	// drained-batch size — a direct read on how much work the
	// per-process flush sets save versus a global scan.
	fenceWords atomic.Uint64

	// shardContention counts lock acquisitions (bank persistence
	// mutexes) that could not be taken immediately. Zero under a
	// well-striped workload; growth signals fences or crashes fighting
	// over the same bank.
	shardContention atomic.Uint64
}

// statStripes is the number of counter stripes a Memory keeps, a power
// of two. Processes 1..statStripes-1 each own a stripe; pid 0 (raw
// accesses, crashes, slab growth) counts into stripe 0, and larger pids
// wrap.
const statStripes = 16

// statStripe is one stripe's Stats padded to a multiple of 128 bytes
// (two cache lines, the unit the adjacent-line prefetcher moves), so no
// two stripes' counters share a line (TestStatStripeLayout pins both).
type statStripe struct {
	Stats
	_ [(128 - unsafe.Sizeof(Stats{})%128) % 128]byte
}

// statsFor returns the counter stripe of process p. The primitives
// count after their word access, so the access never waits behind the
// locked add.
func (m *Memory) statsFor(p int) *Stats {
	return &m.stripes[p&(statStripes-1)].Stats
}

// StatsSnapshot is a point-in-time copy of a Memory's counters.
type StatsSnapshot struct {
	Reads         uint64
	Writes        uint64
	CASes         uint64
	TASes         uint64
	FAAs          uint64
	Flushes       uint64
	Fences        uint64
	SystemCrashes uint64

	// FenceWords is the total number of words fences made durable; see
	// Stats for the batch-size interpretation.
	FenceWords uint64

	// ShardContention counts contended bank-mutex acquisitions; see
	// Stats.
	ShardContention uint64
}

// Total returns the total number of memory primitives applied (excluding
// flushes, fences and crashes).
func (s StatsSnapshot) Total() uint64 {
	return s.Reads + s.Writes + s.CASes + s.TASes + s.FAAs
}

// Stats returns a snapshot of the memory's counters, summed over the
// stripes.
func (m *Memory) Stats() StatsSnapshot {
	return m.sumStripes((*atomic.Uint64).Load)
}

// ResetStats zeroes all counters. See the Stats type documentation for
// the consistency contract with concurrent samplers: the reset is atomic
// per counter, not across counters.
func (m *Memory) ResetStats() {
	m.sumStripes(func(c *atomic.Uint64) uint64 { c.Store(0); return 0 })
}

// DrainStats atomically swaps every counter to zero and returns the
// drained values. Unlike a Stats-then-ResetStats pair, an increment
// racing the drain is attributed to exactly one interval: either it is
// included in the returned snapshot or it survives into the next one.
// (The snapshot is still assembled counter by counter; only per-counter
// exactness is guaranteed, per the Stats contract.)
func (m *Memory) DrainStats() StatsSnapshot {
	return m.sumStripes(func(c *atomic.Uint64) uint64 { return c.Swap(0) })
}

// sumStripes applies take to every counter of every stripe and returns
// the per-counter sums of what it returned.
func (m *Memory) sumStripes(take func(*atomic.Uint64) uint64) StatsSnapshot {
	var s StatsSnapshot
	for i := range m.stripes {
		st := &m.stripes[i].Stats
		s.Reads += take(&st.reads)
		s.Writes += take(&st.writes)
		s.CASes += take(&st.cases)
		s.TASes += take(&st.tases)
		s.FAAs += take(&st.faas)
		s.Flushes += take(&st.flushes)
		s.Fences += take(&st.fences)
		s.SystemCrashes += take(&st.systemCrashes)
		s.FenceWords += take(&st.fenceWords)
		s.ShardContention += take(&st.shardContention)
	}
	return s
}
