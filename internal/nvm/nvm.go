package nvm

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
)

// Mode selects the persistence semantics of a Memory.
type Mode int

const (
	// ADR ("asynchronous DRAM refresh") persists every store at the moment
	// it is applied. This matches the paper's model, in which shared
	// non-volatile variables always survive individual-process crashes.
	ADR Mode = iota + 1

	// Buffered simulates a write-back persistence domain: stores land in a
	// volatile buffer and become durable only after Flush of the word
	// followed by Fence. CrashAll discards non-durable stores.
	Buffered
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ADR:
		return "ADR"
	case Buffered:
		return "Buffered"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Addr identifies a word within a Memory.
type Addr int32

// InvalidAddr is never returned by Alloc.
const InvalidAddr Addr = -1

// Memory is a simulated NVRAM, sharded for scale: words are striped over
// ShardCount banks of inline, cache-line-padded slabs (see shard.go), so
// the primitive hot path is lock-free — reads and mutations are plain
// atomics plus one atomic chunk-table load — and persistence metadata is
// guarded per bank, not globally.
//
// Persistence tracking is per process: each Flush records its captured
// (address, value) pair in the issuing process's flush set, and a Fence
// drains exactly that set — no global scan, no cross-process
// interference, mirroring how SFENCE orders only the issuing CPU's
// cache-line write-backs. Raw accesses (the forms without a pid) share
// flush set 0. The operation counters follow the same rule: each
// primitive counts into the issuing process's stripe (see stats.go), so
// the hot path writes no cache line another process writes.
type Memory struct {
	mode Mode

	// next is the allocation cursor: addresses 0..next-1 are allocated.
	next atomic.Int64

	// shards are the word banks; the shard of address a is a&shardMask.
	shards [ShardCount]shard

	// flushSets[p] tracks process p's flushes awaiting its next fence;
	// growMu guards registry growth only (never the hot path).
	flushSets atomic.Pointer[[]*flushSet]
	growMu    sync.Mutex

	// crashEpoch counts CrashAll events. Each flush set is stamped with
	// the epoch its entries were captured in; a crash invalidates every
	// process's pending flushes at once by bumping the epoch, and each
	// owner discards its stale set lazily at its next flush or fence —
	// so a crash never has to visit (or lock) the flush sets at all.
	crashEpoch atomic.Uint64

	// backend, when non-nil, holds the durable side of every word in
	// real storage; fences commit through it (see Backend). phase, when
	// non-nil, observes persistence-phase transitions (see
	// WithPhaseHook). Both are set at construction only.
	backend Backend
	phase   func(Phase)

	// degraded flips to true (sticky) when the backend exhausts its
	// retry budget; degErr, under degMu, carries the *DegradedError.
	// A degraded memory is read-only: see Err.
	degraded atomic.Bool
	degMu    sync.Mutex
	degErr   error

	// stripes are the per-process operation counters (see stats.go).
	stripes [statStripes]statStripe

	// frec, when non-nil, receives one crash-surviving fence marker per
	// drained fence. It is set once, before the memory is shared (see
	// SetRecorder), so the nil-check on the fence path needs no
	// synchronisation.
	frec FenceRecorder
}

// FenceRecorder receives a durable fence marker every time a process's
// flush set drains: p is the fencing process, words how many captured
// words the fence made persistent. It is satisfied by
// *flightrec.Recorder; depending on the interface keeps the memory
// decoupled from the recorder's package.
type FenceRecorder interface {
	RecordFence(p int, words uint64)
}

// Option configures a Memory.
type Option interface {
	apply(*Memory)
}

type modeOption Mode

func (o modeOption) apply(m *Memory) { m.mode = Mode(o) }

// WithMode selects the persistence mode (default ADR).
func WithMode(mode Mode) Option { return modeOption(mode) }

// New returns an empty Memory.
func New(opts ...Option) *Memory {
	m := &Memory{mode: ADR}
	for _, o := range opts {
		o.apply(m)
	}
	return m
}

// Mode reports the persistence mode of the memory.
func (m *Memory) Mode() Mode { return m.mode }

// SetRecorder installs a flight recorder receiving one fence marker per
// drained fence. It must be called before the memory is shared between
// goroutines (proc.NewSystem installs Config.FlightRec here).
func (m *Memory) SetRecorder(r FenceRecorder) { m.frec = r }

// Alloc allocates one word initialized to init and returns its address.
// The name is retained for tracing and error messages only.
//
// With a backend installed, Alloc first consults the backend's
// recovered state: if storage from a previous incarnation holds a
// durable value for this address, that value — not init — is the word's
// initial (and initial durable) value. Word identity is the address, so
// programs must allocate the same words in the same order across
// restarts.
//
// Alloc is safe for concurrent use and holds no global lock: the
// address is reserved with one atomic increment, and only the word's
// own bank is locked (briefly) to initialise its durable side.
func (m *Memory) Alloc(name string, init uint64) Addr {
	a := Addr(m.next.Add(1) - 1)
	m.place(a, name, init)
	return a
}

// AllocArray allocates n words, all initialized to init, with names
// "name[0]".."name[n-1]", and returns their addresses in order. The
// addresses form one contiguous bank reservation — a single atomic
// reservation of n consecutive addresses, striped round-robin across
// the shards — rather than n independent allocations. The n names are
// formatted into one buffer, and each word's name is a substring of
// it, so naming the array costs one string rather than one per word.
func (m *Memory) AllocArray(name string, n int, init uint64) []Addr {
	if n <= 0 {
		return nil
	}
	buf := make([]byte, 0, n*(len(name)+2+len(strconv.Itoa(n))))
	for i := 0; i < n; i++ {
		buf = append(buf, name...)
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ']')
	}
	names := string(buf)
	base := Addr(m.next.Add(int64(n)) - int64(n))
	addrs := make([]Addr, n)
	off, digits, next := 0, 1, 10
	for i := range addrs {
		if i == next {
			digits, next = digits+1, next*10
		}
		end := off + len(name) + digits + 2
		a := base + Addr(i)
		m.place(a, names[off:end], init)
		addrs[i] = a
		off = end
	}
	return addrs
}

// place initialises the word at a reserved address: recovers or grows
// the backend state, materialises the slab, and sets the initial value.
// No lock is held (both value stores are atomic; slab growth has its
// own brief bank lock inside chunkFor) — backend I/O and the name write
// happen entirely outside any critical section.
func (m *Memory) place(a Addr, name string, init uint64) {
	if m.backend != nil {
		if v, ok := m.backend.Recovered(a); ok {
			init = v
		} else {
			m.backend.Grow(a, init)
		}
	}
	si, slot := slotOf(a)
	ch := m.chunkFor(si, slot)
	off := slot & chunkMask
	w := &ch.words[off]
	w.val.Store(init)
	w.persisted.Store(init)
	ch.names[off] = name
}

// Size reports the number of allocated words.
func (m *Memory) Size() int { return int(m.next.Load()) }

// Name returns the name given to the word at a.
func (m *Memory) Name(a Addr) string {
	si, slot := slotOf(a)
	chunks := *m.shards[si].chunks.Load()
	return chunks[slot>>chunkShift].names[slot&chunkMask]
}

// dirtied records a store landing on a word: a clean word becomes dirty
// (lock-free transition) and the phase hook observes it. The state
// machine exists for phase accounting only, so without a hook installed
// no state is maintained and the store costs one predictable branch.
func (m *Memory) dirtied(w *word) {
	if m.phase == nil {
		return
	}
	if w.state.CompareAndSwap(wordClean, wordDirty) {
		m.phase(PhaseDirty)
	}
}

// Read atomically reads the word at a. It is ReadAt issued by pid 0, as
// are the other forms without a pid: raw accesses count into stats
// stripe 0 and share flush set 0.
func (m *Memory) Read(a Addr) uint64 { return m.ReadAt(a, 0) }

// ReadAt is Read issued by process p: the read counts into p's stats
// stripe (package proc routes Ctx accesses through the *At forms).
//
//nrl:hotpath NVRAM primitive, ~77 ns/op budget (DESIGN.md §9)
func (m *Memory) ReadAt(a Addr, p int) uint64 {
	v := m.wordAt(a).val.Load()
	m.statsFor(p).reads.Add(1)
	return v
}

// Write atomically stores v into the word at a.
func (m *Memory) Write(a Addr, v uint64) { m.WriteAt(a, v, 0) }

// WriteAt is Write issued by process p, counted in p's stats stripe. On
// a degraded memory the store is dropped (see Err).
//
//nrl:hotpath NVRAM primitive, ~77 ns/op budget (DESIGN.md §9)
func (m *Memory) WriteAt(a Addr, v uint64, p int) {
	if m.degraded.Load() {
		return
	}
	w := m.wordAt(a)
	w.val.Store(v)
	m.statsFor(p).writes.Add(1)
	if m.mode == Buffered {
		m.dirtied(w)
	} else if m.backend != nil {
		m.commitOne(a, v)
	}
}

// CAS atomically replaces the word at a with new if it currently holds old,
// reporting whether the swap happened.
func (m *Memory) CAS(a Addr, old, new uint64) bool { return m.CASAt(a, old, new, 0) }

// CASAt is CAS issued by process p, counted in p's stats stripe. On a
// degraded memory the swap is rejected (returns false; see Err).
//
//nrl:hotpath NVRAM primitive, ~77 ns/op budget (DESIGN.md §9)
func (m *Memory) CASAt(a Addr, old, new uint64, p int) bool {
	if m.degraded.Load() {
		return false
	}
	w := m.wordAt(a)
	ok := w.val.CompareAndSwap(old, new)
	m.statsFor(p).cases.Add(1)
	if ok {
		if m.mode == Buffered {
			m.dirtied(w)
		} else if m.backend != nil {
			m.commitOne(a, new)
		}
	}
	return ok
}

// TAS atomically sets the word at a to 1 and returns its previous value.
// It implements the paper's non-resettable t&s primitive; the word is
// expected to be used only with values 0 and 1.
func (m *Memory) TAS(a Addr) uint64 { return m.TASAt(a, 0) }

// TASAt is TAS issued by process p, counted in p's stats stripe. On a
// degraded memory the set is rejected and the current value returned
// unchanged (see Err).
//
//nrl:hotpath NVRAM primitive, ~77 ns/op budget (DESIGN.md §9)
func (m *Memory) TASAt(a Addr, p int) uint64 {
	if m.degraded.Load() {
		return m.wordAt(a).val.Load()
	}
	w := m.wordAt(a)
	prev := w.val.Swap(1)
	m.statsFor(p).tases.Add(1)
	if m.mode == Buffered {
		m.dirtied(w)
	} else if m.backend != nil {
		m.commitOne(a, 1)
	}
	return prev
}

// FAA atomically adds delta to the word at a and returns the previous value.
func (m *Memory) FAA(a Addr, delta uint64) uint64 { return m.FAAAt(a, delta, 0) }

// FAAAt is FAA issued by process p, counted in p's stats stripe. On a
// degraded memory the add is rejected and the current value returned
// unchanged (see Err).
//
//nrl:hotpath NVRAM primitive, ~77 ns/op budget (DESIGN.md §9)
func (m *Memory) FAAAt(a Addr, delta uint64, p int) uint64 {
	if m.degraded.Load() {
		return m.wordAt(a).val.Load()
	}
	w := m.wordAt(a)
	prev := w.val.Add(delta) - delta
	m.statsFor(p).faas.Add(1)
	if m.mode == Buffered {
		m.dirtied(w)
	} else if m.backend != nil {
		m.commitOne(a, prev+delta)
	}
	return prev
}

// Flush initiates persistence of the word at a. In Buffered mode the
// current value is captured into the issuing process's flush set and
// becomes durable at that process's next Fence; in ADR mode Flush only
// counts (stores are already durable).
func (m *Memory) Flush(a Addr) { m.FlushAt(a, 0) } //nrl:ignore delegation shorthand; the fence is the caller's obligation, not this wrapper's

// FlushAt is Flush issued by process p: the flush counts into p's stats
// stripe, and in Buffered mode its capture joins p's flush set (0 = the
// shared set of raw accesses), which only p's next fence drains.
//
//nrl:hotpath NVRAM primitive, ~77 ns/op budget (DESIGN.md §9)
func (m *Memory) FlushAt(a Addr, p int) {
	if m.degraded.Load() {
		return
	}
	m.statsFor(p).flushes.Add(1)
	if m.mode == Buffered {
		w := m.wordAt(a)
		v := w.val.Load()
		fs := m.flushSetFor(p)
		shared := p <= 0
		if shared {
			fs.mu.Lock()
		}
		if e := m.crashEpoch.Load(); e != fs.epoch {
			// The entries predate a crash that already discarded their
			// captures; drop them before tracking the new one.
			fs.entries = fs.entries[:0]
			fs.epoch = e
		}
		fs.entries = append(fs.entries, WordUpdate{Addr: a, Val: v}) //nrl:ignore amortized append into a per-epoch buffer reused across fences
		if shared {
			fs.mu.Unlock()
		}
		if m.phase != nil {
			w.state.Store(wordFlushing)
			m.phase(PhaseFlushing)
		}
	}
}

// Fence makes the values flushed by this caller durable. In ADR mode it
// only counts.
func (m *Memory) Fence() { m.FenceAt(0) }

// FenceAt is Fence issued by process p, counted in p's stats stripe. A
// fence has no address: it orders every outstanding flush of p (0 = the
// shared set of raw accesses) at once. It drains exactly that process's
// flush set — the per-process tracking invariant:
// every NRL persistence obligation is a flush followed by a fence by
// the same process, so a fence never needs to commit (or scan for)
// another process's captures.
//
// With a backend installed, the fence first commits the drained values
// through Backend.Commit — the real pwrite+fsync — and only advances the
// simulated persisted values once the backend reports the batch durable.
// A failed commit (the backend's retry budget is exhausted) degrades the
// memory to read-only instead of advancing anything: the simulated state
// never claims durability that storage does not have.
//
//nrl:hotpath NVRAM primitive, ~77 ns/op budget (DESIGN.md §9)
func (m *Memory) FenceAt(p int) {
	if m.degraded.Load() {
		return
	}
	m.statsFor(p).fences.Add(1)
	if m.mode == Buffered {
		if err := m.drainFlushes(p); err != nil {
			m.degrade(err)
			return
		}
		if m.phase != nil {
			if m.backend != nil {
				m.phase(PhaseIdle)
			} else {
				m.phase(PhaseFenced)
			}
		}
	}
}

// drainFlushes applies process p's pending flush captures: commits them
// through the backend (if any) and advances the persisted values. The
// owner accesses its set lock-free (set 0, shared by raw accesses, takes
// its mutex); entries stamped with a pre-crash epoch are discarded, not
// drained. A single capture without a backend is one atomic persisted
// store; every other shape locks the banks involved in ascending order
// (the global lock order shared with CrashAll), so a multi-word fence
// advances its words atomically with respect to a concurrent crash. The
// fence words and any bank contention count into p's stripe.
func (m *Memory) drainFlushes(p int) error {
	fs := m.flushSetFor(p)
	st := m.statsFor(p)
	if p <= 0 {
		fs.mu.Lock()
		defer fs.mu.Unlock()
	}
	if e := m.crashEpoch.Load(); e != fs.epoch {
		// Everything pending predates the last crash, which already
		// discarded the captures; the fence has nothing to make durable.
		fs.entries = fs.entries[:0]
		fs.epoch = e
		return nil
	}
	entries := fs.entries
	if len(entries) == 0 {
		return nil
	}
	if len(entries) == 1 && m.backend == nil {
		// Fast path: the canonical persist discipline is one flush per
		// fence, and advancing one word's durable value is a single
		// atomic store — no bank lock, no dedup, no bank-set bookkeeping.
		m.applyPersist(entries[0])
		st.fenceWords.Add(1)
		fs.entries = entries[:0]
		if m.frec != nil {
			m.frec.RecordFence(p, 1)
		}
		return nil
	}
	// Deduplicate re-flushed words keeping the last capture (the batch
	// is almost always tiny, so the quadratic scan beats a map).
	batch := entries[:0:len(entries)]
	for i, e := range entries {
		last := true
		for _, later := range entries[i+1:] {
			if later.Addr == e.Addr {
				last = false
				break
			}
		}
		if last {
			batch = append(batch, e) //nrl:ignore fence-time batch reuses capacity across drains
		}
	}
	var banks shardBitmap
	for _, e := range batch {
		si, _ := slotOf(e.Addr)
		banks.add(si)
	}
	banks.lockAll(&m.shards, st)
	if m.backend != nil {
		if err := m.backend.Commit(batch); err != nil {
			banks.unlockAll(&m.shards)
			return err
		}
	}
	for _, e := range batch {
		m.applyPersist(e)
	}
	banks.unlockAll(&m.shards)
	st.fenceWords.Add(uint64(len(batch)))
	fs.entries = fs.entries[:0]
	if m.frec != nil {
		m.frec.RecordFence(p, uint64(len(batch)))
	}
	return nil
}

// applyPersist advances one word's durable side to a drained flush
// capture. The store itself is atomic; multi-word drains call this with
// the word's bank mutex held so the batch is atomic against CrashAll,
// while a single-word drain needs no lock. State-machine maintenance
// runs only for phase-hooked memories (see dirtied).
func (m *Memory) applyPersist(e WordUpdate) {
	w := m.wordAt(e.Addr)
	w.persisted.Store(e.Val)
	if m.phase == nil {
		return
	}
	if w.val.Load() == e.Val {
		w.state.Store(wordClean)
	} else {
		w.state.Store(wordDirty)
	}
}

// Persist flushes the word at a and fences, making its current value
// durable before returning.
func (m *Memory) Persist(a Addr) {
	m.Flush(a)
	m.Fence()
}

// CrashAll simulates a full-system power failure: every word reverts to its
// most recently persisted value and every process's pending flushes are
// discarded. It is meaningful only in Buffered mode; in ADR mode it is a
// no-op because every store is already durable.
//
// The pending flushes are discarded without touching the flush sets:
// bumping crashEpoch invalidates every set at once, and each owner drops
// its stale entries at its next flush or fence. The reverts themselves
// run with every bank mutex held (ascending index — the same order
// multi-word fences use), so a crash never tears a multi-word fence.
//
// Stats accounting: the crash is counted only after its effects (the
// reverts) are applied, and the reverts bypass Write entirely — so a
// concurrent sampler never observes a SystemCrashes count ahead of the
// crash's effects, and a crash never inflates the Writes counter. Both
// properties keep Stats/DrainStats snapshots taken across a crash
// monotonic per counter (see TestCrashAllStatsAccounting). A crash has
// no issuing process, so it counts into stripe 0.
func (m *Memory) CrashAll() {
	st := m.statsFor(0)
	if m.mode != Buffered {
		st.systemCrashes.Add(1)
		return
	}
	m.crashEpoch.Add(1)
	for si := range m.shards {
		m.shards[si].lock(st)
	}
	n := int(m.next.Load())
	for si := range m.shards {
		s := &m.shards[si]
		var chunks []*wordChunk
		if cs := s.chunks.Load(); cs != nil {
			chunks = *cs
		}
		slots := shardSlots(si, n)
		for slot := 0; slot < slots; slot++ {
			ci := slot >> chunkShift
			if ci >= len(chunks) {
				break
			}
			w := &chunks[ci].words[slot&chunkMask]
			w.val.Store(w.persisted.Load())
			w.state.Store(wordClean)
		}
	}
	for si := range m.shards {
		m.shards[si].mu.Unlock()
	}
	st.systemCrashes.Add(1)
}

// Durable reports the durable (persisted) value of the word at a. In ADR
// mode this equals Read(a). The read is a single atomic load — no lock.
func (m *Memory) Durable(a Addr) uint64 {
	w := m.wordAt(a)
	if m.mode != Buffered {
		return w.val.Load()
	}
	return w.persisted.Load()
}
