package nvm

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Memory layout: words are striped across ShardCount banks by the low
// bits of their address, and each bank stores its words inline in
// fixed-size slabs (wordChunk) instead of a flat []*word — one pointer
// dereference per access, no per-word heap object, and cache-line
// padding so two hot words in the same bank never share a line.
//
// Growth never moves a word: a bank grows by appending chunk pointers
// to a copy-on-write chunk table published through an atomic pointer,
// so the read path (wordAt) is entirely lock-free and a word's *slot*
// stays valid for the lifetime of the Memory.
const (
	// ShardCount is the number of word banks a Memory stripes its
	// address space over. Each bank has its own persistence mutex, so
	// fences and crashes touching disjoint banks never contend. It is a
	// power of two; the shard of address a is a & (ShardCount-1).
	ShardCount = 32

	shardMask  = ShardCount - 1
	shardShift = 5 // log2(ShardCount)

	// chunkWords is the number of words per slab. 256 padded words are
	// 16KiB, large enough to amortise growth and small enough that a
	// few sparse banks do not bloat tiny memories.
	chunkWords = 256
	chunkMask  = chunkWords - 1
	chunkShift = 8 // log2(chunkWords)
)

// wordState tracks a word's position in the persistence state machine
// (Buffered mode only). It exists for phase accounting and is
// maintained only while a phase hook is installed; transitions are
// lock-free (atomic CAS/store).
type wordState = uint32

const (
	wordClean    wordState = iota // persisted == val at last persist event
	wordDirty                     // val newer than persisted, no flush pending
	wordFlushing                  // a flush captured a value, awaiting fence
)

// word is one 64-bit NVRAM cell, padded to a cache line.
//
// val is the current (architecturally visible) value and persisted the
// durable one; both are atomics, so reads (Read, Durable) never lock.
// state tracks the persistence state machine — it is maintained only
// while a phase hook is installed (it exists purely for phase
// accounting) and a multi-word fence still takes the bank mutexes so
// its persisted advances are atomic against CrashAll. The value a flush
// captured lives in the flushing process's flush set (a WordUpdate), not
// in the word: two processes flushing the same word capture
// independently, exactly like two CPUs each CLWB-ing a line out of
// their own write buffers.
type word struct {
	val       atomic.Uint64
	persisted atomic.Uint64
	state     atomic.Uint32

	_ [64 - 20]byte // pad to one cache line
}

// wordChunk is one slab of a bank: chunkWords padded words plus their
// allocation names. Names are written once in Alloc before the address
// escapes, so reads are synchronised by whatever published the address.
type wordChunk struct {
	words [chunkWords]word
	names [chunkWords]string
}

// shard is one word bank: a copy-on-write chunk table plus the mutex
// guarding the durable side (persisted values) of its words. The
// trailing pad keeps neighbouring banks' mutexes off one cache line.
type shard struct {
	chunks atomic.Pointer[[]*wordChunk]
	mu     sync.Mutex

	_ [64 - 16]byte
}

// lock acquires the shard's persistence mutex, counting the acquisition
// as contended if it could not be taken immediately.
func (s *shard) lock(st *Stats) {
	if s.mu.TryLock() {
		return
	}
	st.shardContention.Add(1)
	s.mu.Lock()
}

// slotOf splits an address into its bank and the slot within the bank.
func slotOf(a Addr) (shardIdx, slot int) {
	return int(a) & shardMask, int(a) >> shardShift
}

// wordAt resolves an address to its cell: two atomic-free index
// operations and one atomic pointer load, no locks.
func (m *Memory) wordAt(a Addr) *word {
	si, slot := slotOf(a)
	chunks := *m.shards[si].chunks.Load()
	return &chunks[slot>>chunkShift].words[slot&chunkMask]
}

// chunkFor returns the slab holding slot in shard si, growing the
// shard's chunk table if needed. Growth copies only the table of chunk
// pointers (never the words), publishing the new table atomically so
// concurrent readers are undisturbed.
func (m *Memory) chunkFor(si, slot int) *wordChunk {
	s := &m.shards[si]
	ci := slot >> chunkShift
	if cs := s.chunks.Load(); cs != nil && ci < len(*cs) {
		return (*cs)[ci]
	}
	s.lock(m.statsFor(0))
	defer s.mu.Unlock()
	var cur []*wordChunk
	if cs := s.chunks.Load(); cs != nil {
		cur = *cs
	}
	for ci >= len(cur) {
		// Full-slice expression: the append below always copies, so
		// tables already published to readers are never written to.
		cur = append(cur[:len(cur):len(cur)], &wordChunk{})
	}
	s.chunks.Store(&cur)
	return cur[ci]
}

// shardSlots reports how many slots of shard si are allocated when the
// memory holds n words in total (addresses 0..n-1 striped by low bits).
func shardSlots(si, n int) int {
	if n <= si {
		return 0
	}
	return (n - si + shardMask) / ShardCount
}

// flushSet is the per-process persistence tracking state ("Tracking in
// Order to Recover", Attiya et al. 2019, applied to the persistence
// domain): the flushes process p has issued since its last fence. A
// fence by p makes exactly these captures durable — it never scans the
// word array and never commits another process's outstanding flushes,
// matching real hardware, where SFENCE orders the issuing CPU's
// CLWBs only.
//
// Sets with p > 0 are strictly owner-accessed (the proc.Ctx contract:
// one process, one goroutine at a time) and therefore entirely
// lock-free; successive owners of a pid are sequenced by System.Wait.
// CrashAll never touches them — it invalidates every set at once by
// bumping Memory.crashEpoch, and the owner lazily discards a stale set
// (epoch != current) at its next flush or fence. Set 0 is shared by
// all unattributed raw accesses and is the one set guarded by its
// mutex.
type flushSet struct {
	mu    sync.Mutex // set 0 only; owner-exclusive sets never lock
	epoch uint64     // Memory.crashEpoch value the entries belong to
	// entries are the pending flushes: each the target word and the value
	// captured at flush time. A fence hands its deduplicated prefix to
	// Backend.Commit as the batch.
	entries []WordUpdate
}

// flushSetFor returns process p's flush set, growing the registry on
// first sight of a new process id. Index 0 is the shared bucket for
// unattributed accesses (raw Memory calls outside any process).
func (m *Memory) flushSetFor(p int) *flushSet {
	if p < 0 {
		p = 0
	}
	if cur := m.flushSets.Load(); cur != nil && p < len(*cur) {
		return (*cur)[p]
	}
	m.growMu.Lock()
	defer m.growMu.Unlock()
	var cur []*flushSet
	if cs := m.flushSets.Load(); cs != nil {
		cur = *cs
	}
	for p >= len(cur) {
		cur = append(cur[:len(cur):len(cur)], &flushSet{}) //nrl:ignore one-time per-process flush-set growth, then reused forever
	}
	m.flushSets.Store(&cur)
	return cur[p]
}

// shardBitmap tracks which banks a fence batch touches, so the fence
// can take exactly those persistence mutexes in ascending order (the
// global lock order; CrashAll takes all of them the same way).
type shardBitmap uint32

func (b *shardBitmap) add(si int) { *b |= 1 << uint(si) }

// lockAll acquires the persistence mutex of every bank in the set, in
// ascending index order (bit iteration visits set bits low to high).
func (b shardBitmap) lockAll(shards *[ShardCount]shard, st *Stats) {
	for rest := uint32(b); rest != 0; rest &= rest - 1 {
		shards[bits.TrailingZeros32(rest)].lock(st)
	}
}

// unlockAll releases every bank mutex in the set.
func (b shardBitmap) unlockAll(shards *[ShardCount]shard) {
	for rest := uint32(b); rest != 0; rest &= rest - 1 {
		shards[bits.TrailingZeros32(rest)].mu.Unlock()
	}
}
