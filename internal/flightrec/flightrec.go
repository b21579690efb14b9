// Package flightrec is the crash-surviving flight recorder: a bounded
// ring of fixed-size, individually checksummed op-lifecycle records that
// a durable backend (package persist) carries alongside the data it
// explains, under the same flush-before-fence discipline.
//
// The volatile tracing layer (package trace) answers questions about a
// run that ended politely. The flight recorder answers the question the
// paper cares about: what was this process doing when the power went
// out? Every record — operation begin/end with nesting depth, LI_p
// checkpoints, recovery entry/exit, fence and commit markers — is 32
// bytes, written lock-free with four atomic stores and no allocation, so
// the recorder can stay on in production. After a crash, package
// forensics replays the surviving ring into a per-process in-flight op
// tree and a recovery report, and the real-crash harness (package chaos)
// cross-checks that report against the actually-recovered state.
//
// # Ring format
//
// The persisted region is a 32-byte header (magic, version, slot count,
// CRC-32C) followed by one 32-byte slot per record. Record seq numbers
// are assigned by an atomic counter; record seq s lives in slot
// (s-1) mod nslots, so the ring always holds the newest window and a
// wrap overwrites the oldest records first. Each record carries a
// 32-bit multiplicative checksum over its first 28 bytes (see
// sumWords): an all-zero slot is empty, a slot failing its checksum is
// torn (a write cut short by the crash, or a wrap racing the final
// sync) and is dropped from the reconstruction — a torn black box
// degrades to a partial report, never to a recovery failure.
//
// Object and operation names are interned to 16-bit ids on first use;
// the assignment is itself recorded in the ring (KindNameObj /
// KindNameOp records, name truncated to 18 bytes), so a surviving ring
// is self-describing. A record whose name assignment was overwritten by
// a ring wrap decodes with a placeholder name ("obj#7").
//
// # Durability
//
// The recorder implements persist.BlackBox: the backend rewrites the
// dirty slot range into the store's bbox file before every WAL fsync
// (flush before fence) and fsyncs it at every checkpoint. Under the
// kill harness's crash model (SIGKILL; the kernel survives) a completed
// pwrite is durable, so every record issued before a commit's fence is
// in the box that recovery reads back.
package flightrec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates flight-recorder records.
type Kind uint8

const (
	// KindBegin marks an operation invocation (val = first argument, if
	// any). In shallow mode only top-level (depth 1) begins are recorded.
	KindBegin Kind = iota + 1
	// KindEnd marks an operation completing on its normal path (val =
	// response).
	KindEnd
	// KindCrash marks a process crash, attributed to the inner-most
	// pending operation; LI carries the frame's last-instruction register.
	KindCrash
	// KindRecoverEnter marks the system entering a frame's recovery
	// function (attempt = the attempt now beginning).
	KindRecoverEnter
	// KindRecoverExit marks an operation completing through its recovery
	// function (val = response).
	KindRecoverExit
	// KindCheckpoint is an LI_p checkpoint: the frame's last-instruction
	// register advanced to LI. Recorded in deep mode only.
	KindCheckpoint
	// KindFence marks a process's flush set draining through a fence
	// (val = words drained).
	KindFence
	// KindCommit marks a durable backend's commit fence landing (val =
	// words committed); the record is durable in the same fence.
	KindCommit
	// KindNameObj records an object-name interning: id -> name.
	KindNameObj
	// KindNameOp records an operation-name interning: id -> name.
	KindNameOp

	kindMax = KindNameOp
)

var kindNames = [...]string{
	KindBegin:        "begin",
	KindEnd:          "end",
	KindCrash:        "crash",
	KindRecoverEnter: "recover-enter",
	KindRecoverExit:  "recover-exit",
	KindCheckpoint:   "checkpoint",
	KindFence:        "fence",
	KindCommit:       "commit",
	KindNameObj:      "name-obj",
	KindNameOp:       "name-op",
}

// String returns the kind's wire name (e.g. "recover-enter").
func (k Kind) String() string {
	if k >= 1 && k <= kindMax {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Lifecycle reports whether k is an op-lifecycle kind (begin, end,
// crash, recover-enter, recover-exit, checkpoint) — the kinds that carry
// an object/operation attribution.
func (k Kind) Lifecycle() bool { return k >= KindBegin && k <= KindCheckpoint }

const (
	// recordSize is the fixed size of one ring slot.
	recordSize = 32
	// headerSize is the persisted region header.
	headerSize = 32
	// nameBytes is how much of an interned name a name record carries.
	nameBytes = 18

	headerMagic   = "NRLFREC1"
	formatVersion = 1

	// DefaultSlots is the ring capacity NewRecorder applies when
	// Options.Slots <= 0. 4096 slots = 128 KiB of region.
	DefaultSlots = 4096
	// maxID is the largest internable name id; later names fold to id 0.
	maxID = 1<<16 - 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record checksums are a multiplicative mixer, not a CRC. The threat
// model is a torn slot — some of its four 8-byte words stale, from a
// write cut short by the crash or a wrap racing the final sync — and
// for stale-word detection a keyed multiply-and-fold avalanche is as
// strong as a CRC (any changed word flips the sum with probability
// 1-2⁻³²) at a fraction of the cost: four independent multiplies and a
// finalizer against a CRC table walk's three dependent slicing-by-8
// rounds. (hash/crc32's hardware-accelerated Checksum would be cheap
// too, but it leaks its argument to the heap, which would cost the
// record path its zero-allocation guarantee.) The region header keeps
// CRC-32C: it is written once per Sync, off the hot path.
const (
	sumK0 = 0x9e3779b185ebca87 // golden-ratio odd constants (xxh64's)
	sumK1 = 0xc2b2ae3d27d4eb4f
	sumK2 = 0x165667b19e3779f9
	sumK3 = 0xff51afd7ed558ccd // murmur3 finalizer constant
)

// sumWords is the record checksum over a record's first 28 bytes given
// as its little-endian words: the three full words and the low half of
// w3 (the gstep field). Decode recomputes it over the same words. Each
// word is keyed and multiplied independently — the products pipeline —
// and the fold-multiply-fold finalizer avalanches, so a stale word
// anywhere, even one differing only in its top bit, disturbs every
// output bit.
func sumWords(w0, w1, w2 uint64, g uint32) uint32 {
	h := (w0^sumK0)*sumK1 ^ (w1^sumK1)*sumK2 ^ (w2^sumK2)*sumK0 ^
		(uint64(g)^sumK3)*sumK2
	h ^= h >> 32
	h *= sumK3
	h ^= h >> 29
	return uint32(h)
}

// Rec is one record on its way into the ring. The zero Rec is invalid:
// Kind must be set, and lifecycle kinds must carry a non-empty Obj (the
// traceattr analyzer enforces both at the call site).
type Rec struct {
	// Kind discriminates the record; required.
	Kind Kind
	// P is the issuing process id (1-based, 0 = unattributed).
	P int
	// Depth is the operation nesting depth (1 = top level).
	Depth int
	// Obj and Op name the operation; interned to 16-bit ids on first use.
	Obj string
	Op  string
	// LI is the frame's last-instruction register where meaningful
	// (crash, checkpoint, recovery records).
	LI int
	// Attempt counts recovery attempts of the frame.
	Attempt int
	// Val is the kind-specific payload value: argument, response, or
	// words drained/committed.
	Val uint64
	// GStep is the record's step stamp: for lifecycle records, the
	// issuing process's own step count at emission (proc stamps it so
	// that recording reads no other process's counter; it lines up with
	// the p@N crash sites chaos prints); for commit markers, the commit
	// sequence. Zero when unavailable.
	GStep uint64
}

// Options configures a Recorder. The zero value selects the defaults
// noted on each field.
type Options struct {
	// Slots is the ring capacity in records (default DefaultSlots),
	// rounded up to the next power of two so the record path can mask
	// instead of divide when picking a slot.
	Slots int
	// Deep enables recording of nested (depth > 1) begin/end records and
	// per-step LI checkpoints. The default shallow mode records only
	// top-level begin/end plus every crash/recovery record at any depth —
	// the policy the overhead gate is calibrated for.
	Deep bool
}

// Recorder is the flight recorder: a lock-free bounded ring of 32-byte
// checksummed records. The Record path is safe for concurrent use and
// performs no allocation and takes no lock once the record's names are
// interned. A Recorder may run purely in memory (benchmarks, live
// telemetry) or be installed as a persist.BlackBox so the ring rides the
// store's commit fences.
type Recorder struct {
	slots    []slot
	nslots   uint64        // always a power of two
	slotMask uint64        // nslots - 1
	seq      atomic.Uint64 // records issued; record seq s occupies slot (s-1)&slotMask
	deep     bool

	// names holds the interning tables behind an atomic pointer to an
	// immutable snapshot: the hit path is one load and a plain map read,
	// no lock. Misses copy-on-write under nameMu.
	names  atomic.Pointer[nameTables]
	nameMu sync.Mutex

	syncMu     sync.Mutex
	synced     uint64 // highest seq flushed to media
	headerSent bool
	scratch    []byte

	recMu sync.Mutex
	recs  []Record
}

// nameTables is one immutable interning snapshot.
type nameTables struct {
	obj map[string]uint16
	op  map[string]uint16
}

// slot is one ring entry: 32 bytes as four atomically stored words.
// A record write is not atomic across the four stores; readers rely on
// the per-record checksum to drop the (rare) torn snapshot.
type slot [4]atomic.Uint64

// NewRecorder returns a recorder with an empty ring.
func NewRecorder(opts Options) *Recorder {
	n := opts.Slots
	if n <= 0 {
		n = DefaultSlots
	}
	// Round up to a power of two: the slot index becomes one AND.
	p := 1
	for p < n {
		p <<= 1
	}
	n = p
	r := &Recorder{
		slots: make([]slot, n), nslots: uint64(n), slotMask: uint64(n - 1),
		deep: opts.Deep,
	}
	r.names.Store(&nameTables{obj: map[string]uint16{}, op: map[string]uint16{}})
	return r
}

// Slots returns the ring capacity in records.
func (r *Recorder) Slots() int { return int(r.nslots) }

// DeepMode reports whether nested begin/end and LI checkpoints are
// recorded.
func (r *Recorder) DeepMode() bool { return r.deep }

// Seq returns the number of records issued so far (including records
// already overwritten by the ring wrapping).
func (r *Recorder) Seq() uint64 { return r.seq.Load() }

// Dropped returns how many records the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	s := r.seq.Load()
	if s <= r.nslots {
		return 0
	}
	return s - r.nslots
}

// Keeps reports whether the recorder writes a record of kind at nesting
// depth: shallow mode drops begin/end records at depth > 1 and all
// checkpoint records; crash and recovery records are always written.
func (r *Recorder) Keeps(kind Kind, depth int) bool {
	return r.deep || kind != KindCheckpoint &&
		(depth <= 1 || kind != KindBegin && kind != KindEnd)
}

// Record writes one record into the ring unless Keeps drops it, which
// it checks before interning the record's names. The path is lock-free
// and allocation-free once those names are interned.
func (r *Recorder) Record(rec Rec) {
	if !r.Keeps(rec.Kind, rec.Depth) {
		return
	}
	var ref Ref
	if rec.Kind.Lifecycle() {
		ref = r.Ref(rec.Obj, rec.Op)
	}
	r.RecordOp(rec.Kind, rec.P, rec.Depth, ref, rec.LI, rec.Attempt, rec.Val, rec.GStep)
}

// Ref is a pre-resolved operation attribution: the record's interned
// object and operation name ids packed into one word. Hot paths that
// issue many records for the same operation resolve the Ref once (two
// interning-table lookups) and then use RecordOp, which touches no maps
// and no strings. Refs are stable for the life of the Recorder —
// interning never reassigns a name — so caching one across records, and
// across crashes of the recorded process, is safe.
type Ref uint32

// Ref interns obj and op (empty names map to id 0) and returns their
// packed ids for RecordOp.
func (r *Recorder) Ref(obj, op string) Ref {
	t := r.names.Load()
	objID, ok := t.obj[obj]
	if !ok && obj != "" {
		objID = r.intern(obj, false)
	}
	opID, ok := t.op[op]
	if !ok && op != "" {
		opID = r.intern(op, true)
	}
	return Ref(uint32(objID) | uint32(opID)<<16)
}

// RecordOp is the zero-lookup record path: Record for a lifecycle kind
// whose attribution was pre-resolved with Ref. It applies the same
// Keeps drop and writes an identical record; gstep is truncated to the
// record's 32-bit field as usual.
func (r *Recorder) RecordOp(kind Kind, p, depth int, ref Ref, li, attempt int, val, gstep uint64) {
	if !r.Keeps(kind, depth) {
		return
	}
	w0 := uint64(kind) | uint64(sat8(p))<<8 | uint64(sat8(depth))<<16
	w1 := uint64(uint32(ref)) |
		uint64(sat16(li))<<32 | uint64(sat16(attempt))<<48
	r.putWords(w0, w1, val, uint64(uint32(gstep)))
}

// RecordFence records a fence marker for process p draining words
// flushed words. It is the hook nvm.Memory calls from FenceAt.
func (r *Recorder) RecordFence(p int, words uint64) {
	r.Record(Rec{Kind: KindFence, P: p, Val: words})
}

// RecordCommit records a durable-backend commit marker: commit sequence
// seq made words words durable. It is the hook persist.File calls at the
// top of Commit, so the marker rides the very fence it describes.
func (r *Recorder) RecordCommit(seq uint64, words uint64) {
	r.Record(Rec{Kind: KindCommit, Val: words, GStep: seq})
}

// put assigns the next seq, checksums and stores a record given as raw
// bytes (the name-record path; lifecycle records take putWords directly).
// The seq (bytes 4-7) and CRC (bytes 28-31) areas of b are ignored —
// putWords fills them.
func (r *Recorder) put(b [recordSize]byte) {
	r.putWords(
		binary.LittleEndian.Uint64(b[0:])&0xffffffff,
		binary.LittleEndian.Uint64(b[8:]),
		binary.LittleEndian.Uint64(b[16:]),
		uint64(binary.LittleEndian.Uint32(b[24:])),
	)
}

// putWords assigns the next seq, checksums and stores a record given as
// its four little-endian words. On entry w0's high half (the seq field)
// and w3's high half (the checksum field) must be zero; putWords fills
// both. This is the whole hot path: one atomic add, the multiplicative
// record checksum, four atomic stores — no bytes buffer, no map, no
// allocation.
func (r *Recorder) putWords(w0, w1, w2, w3 uint64) {
	seq := r.seq.Add(1)
	w0 |= uint64(uint32(seq)) << 32
	w3 |= uint64(sumWords(w0, w1, w2, uint32(w3))) << 32
	s := &r.slots[(seq-1)&r.slotMask]
	s[0].Store(w0)
	s[1].Store(w1)
	s[2].Store(w2)
	s[3].Store(w3)
}

// intern assigns a name its 16-bit id (copy-on-write miss path; the hit
// path in Record reads the snapshot lock-free) and records the
// assignment in the ring. The overflow case maps to id 0.
func (r *Recorder) intern(name string, isOp bool) uint16 {
	r.nameMu.Lock()
	defer r.nameMu.Unlock()
	old := r.names.Load()
	m := old.obj
	if isOp {
		m = old.op
	}
	if id, ok := m[name]; ok {
		return id
	}
	// Next id = highest in use + 1: after a Recover the surviving table
	// can be sparse, and reusing a lost id would mislabel older records.
	var id, maxUsed uint16
	for _, v := range m {
		if v > maxUsed {
			maxUsed = v
		}
	}
	if maxUsed < maxID {
		id = maxUsed + 1
	}
	next := &nameTables{obj: old.obj, op: old.op}
	grown := make(map[string]uint16, len(m)+1)
	for k, v := range m {
		grown[k] = v
	}
	grown[name] = id
	if isOp {
		next.op = grown
	} else {
		next.obj = grown
	}
	r.names.Store(next)
	if id == 0 {
		return 0
	}

	kind := KindNameObj
	if isOp {
		kind = KindNameOp
	}
	var b [recordSize]byte
	b[0] = byte(kind)
	b[3] = byte(min(len(name), nameBytes))
	binary.LittleEndian.PutUint16(b[8:], id)
	copy(b[10:10+nameBytes], name)
	r.put(b)
	return id
}

func sat8(v int) byte {
	if v < 0 {
		return 0
	}
	if v > 0xff {
		return 0xff
	}
	return byte(v)
}

func sat16(v int) uint16 {
	if v < 0 {
		return 0
	}
	if v > 0xffff {
		return 0xffff
	}
	return uint16(v)
}

// header builds the 32-byte region header.
func (r *Recorder) header() []byte {
	h := make([]byte, headerSize)
	copy(h, headerMagic)
	binary.LittleEndian.PutUint32(h[8:], formatVersion)
	binary.LittleEndian.PutUint32(h[12:], uint32(r.nslots))
	binary.LittleEndian.PutUint32(h[24:], crc32.Checksum(h[:24], castagnoli))
	return h
}

// SizeBytes implements persist.BlackBox: the full persisted region size.
func (r *Recorder) SizeBytes() int64 {
	return int64(headerSize) + int64(r.nslots)*recordSize
}

// Sync implements persist.BlackBox: it rewrites the slots dirtied since
// the previous Sync (and, once, the header) through pw, which writes
// b at byte offset off in the region. The backend calls it before every
// WAL fsync, so a successful Sync is ordered before the commit fence.
// A record racing Sync may land torn in the region; its slot is
// rewritten intact by the next Sync, and a crash in between costs
// exactly that record at reconstruction, nothing more.
func (r *Recorder) Sync(pw func(b []byte, off int64) error) error {
	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	if !r.headerSent {
		if err := pw(r.header(), 0); err != nil {
			return err
		}
		r.headerSent = true
	}
	cur := r.seq.Load()
	lo := r.synced
	if cur == lo {
		return nil
	}
	if cur-lo >= r.nslots {
		// The whole ring turned over since the last sync.
		if err := r.syncRange(pw, 0, int(r.nslots)); err != nil {
			return err
		}
		r.synced = cur
		return nil
	}
	i := int(lo % r.nslots)
	j := int(cur % r.nslots)
	if i < j {
		if err := r.syncRange(pw, i, j); err != nil {
			return err
		}
	} else {
		if err := r.syncRange(pw, i, int(r.nslots)); err != nil {
			return err
		}
		if err := r.syncRange(pw, 0, j); err != nil {
			return err
		}
	}
	r.synced = cur
	return nil
}

// Resync marks the entire region dirty: the next Sync rewrites the
// header and every live slot from scratch. A replica set calls it after
// failing over to a promoted peer, whose store directory holds an empty
// (or stale) region file — the live ring must be rewritten wholesale
// into its new home before the incremental delta tracking is valid
// again.
func (r *Recorder) Resync() {
	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	r.headerSent = false
	cur := r.seq.Load()
	if cur >= r.nslots {
		r.synced = cur - r.nslots
	} else {
		r.synced = 0
	}
}

// syncRange writes slots [i, j) as one contiguous pwrite.
func (r *Recorder) syncRange(pw func(b []byte, off int64) error, i, j int) error {
	if i >= j {
		return nil
	}
	need := (j - i) * recordSize
	if cap(r.scratch) < need {
		r.scratch = make([]byte, need)
	}
	buf := r.scratch[:need]
	for k := i; k < j; k++ {
		s := &r.slots[k]
		off := (k - i) * recordSize
		binary.LittleEndian.PutUint64(buf[off:], s[0].Load())
		binary.LittleEndian.PutUint64(buf[off+8:], s[1].Load())
		binary.LittleEndian.PutUint64(buf[off+16:], s[2].Load())
		binary.LittleEndian.PutUint64(buf[off+24:], s[3].Load())
	}
	return pw(buf, int64(headerSize)+int64(i)*recordSize)
}

// Recover implements persist.BlackBox: it decodes a previous
// incarnation's region image, keeps the surviving records for Recovered,
// reloads them into the ring (so later syncs preserve them) and
// continues the sequence counter where the image left off. It returns
// how many records decoded intact and how many slots were torn. Damage
// is never an error: an unreadable or truncated image yields a partial
// (possibly empty) reconstruction.
func (r *Recorder) Recover(img []byte) (valid, torn int) {
	recs, valid, torn := Decode(img)
	r.recMu.Lock()
	r.recs = recs
	r.recMu.Unlock()

	// Reload the raw image into the ring so a future full-ring sync does
	// not erase history, and restart numbering after the newest survivor.
	var maxSeq uint64
	for _, rec := range recs {
		if uint64(rec.Seq) > maxSeq {
			maxSeq = uint64(rec.Seq)
		}
	}
	if len(img) > headerSize {
		body := img[headerSize:]
		n := len(body) / recordSize
		if uint64(n) > r.nslots {
			n = int(r.nslots)
		}
		for k := 0; k < n; k++ {
			s := &r.slots[k]
			off := k * recordSize
			s[0].Store(binary.LittleEndian.Uint64(body[off:]))
			s[1].Store(binary.LittleEndian.Uint64(body[off+8:]))
			s[2].Store(binary.LittleEndian.Uint64(body[off+16:]))
			s[3].Store(binary.LittleEndian.Uint64(body[off+24:]))
		}
	}
	r.reseed(recs, maxSeq)
	return valid, torn
}

// reseed continues seq numbering and the name tables from recovered
// records.
func (r *Recorder) reseed(recs []Record, maxSeq uint64) {
	if cur := r.seq.Load(); maxSeq > cur {
		r.seq.Store(maxSeq)
	}
	r.syncMu.Lock()
	if maxSeq > r.synced {
		r.synced = maxSeq
	}
	r.syncMu.Unlock()
	r.nameMu.Lock()
	old := r.names.Load()
	obj := make(map[string]uint16, len(old.obj))
	for k, v := range old.obj {
		obj[k] = v
	}
	op := make(map[string]uint16, len(old.op))
	for k, v := range old.op {
		op[k] = v
	}
	for _, rec := range recs {
		switch rec.Kind {
		case KindNameObj:
			if _, ok := obj[rec.Obj]; !ok && rec.Val > 0 && rec.Val <= maxID {
				obj[rec.Obj] = uint16(rec.Val)
			}
		case KindNameOp:
			if _, ok := op[rec.Op]; !ok && rec.Val > 0 && rec.Val <= maxID {
				op[rec.Op] = uint16(rec.Val)
			}
		}
	}
	r.names.Store(&nameTables{obj: obj, op: op})
	r.nameMu.Unlock()
}

// Recovered returns the records that survived the previous incarnation
// (decoded by Recover), in seq order.
func (r *Recorder) Recovered() []Record {
	r.recMu.Lock()
	defer r.recMu.Unlock()
	return r.recs
}

// Snapshot decodes the ring's current in-memory contents, newest window
// in seq order — the live-telemetry view of the black box.
func (r *Recorder) Snapshot() []Record {
	img := make([]byte, r.SizeBytes())
	copy(img, r.header())
	for k := range r.slots {
		s := &r.slots[k]
		off := headerSize + k*recordSize
		binary.LittleEndian.PutUint64(img[off:], s[0].Load())
		binary.LittleEndian.PutUint64(img[off+8:], s[1].Load())
		binary.LittleEndian.PutUint64(img[off+16:], s[2].Load())
		binary.LittleEndian.PutUint64(img[off+24:], s[3].Load())
	}
	recs, _, _ := Decode(img)
	return recs
}

// Record is one decoded ring record.
type Record struct {
	// Seq is the record's ring sequence number (1-based, monotonically
	// increasing; wraps after 2^32 records).
	Seq uint32
	// Kind discriminates the record.
	Kind Kind
	// P is the issuing process id (0 = unattributed).
	P int
	// Depth, LI and Attempt mirror Rec.
	Depth   int
	LI      int
	Attempt int
	// Obj and Op are the resolved names; when the interning record was
	// lost to a ring wrap, a placeholder like "obj#7" is substituted.
	Obj string
	Op  string
	// Val is the kind-specific payload value. For name records it is the
	// recorded id.
	Val uint64
	// GStep is Rec.GStep truncated to 32 bits: the issuing process's
	// own step count for lifecycle records, the commit sequence for
	// commit markers.
	GStep uint32
}

// Decode parses a persisted region image into its surviving records,
// sorted by seq, resolving interned names. It returns the record count
// that decoded intact and the torn slot count. A missing, truncated or
// damaged header costs the header's slot count knowledge, not the
// records: decoding proceeds over whatever slot bytes follow.
func Decode(img []byte) (recs []Record, valid, torn int) {
	if len(img) <= headerSize {
		return nil, 0, 0
	}
	if !validHeader(img) && !allZero(img[:headerSize]) {
		torn++ // damaged header: count it, keep going
	}
	body := img[headerSize:]
	objNames := map[uint16]string{}
	opNames := map[uint16]string{}
	type raw struct {
		rec   Record
		objID uint16
		opID  uint16
	}
	var raws []raw
	for off := 0; off+recordSize <= len(body); off += recordSize {
		b := body[off : off+recordSize]
		if allZero(b) {
			continue
		}
		k := Kind(b[0])
		if k < 1 || k > kindMax ||
			binary.LittleEndian.Uint32(b[28:]) != sumWords(
				binary.LittleEndian.Uint64(b[0:]),
				binary.LittleEndian.Uint64(b[8:]),
				binary.LittleEndian.Uint64(b[16:]),
				binary.LittleEndian.Uint32(b[24:])) {
			torn++
			continue
		}
		valid++
		rec := Record{
			Seq:   binary.LittleEndian.Uint32(b[4:]),
			Kind:  k,
			P:     int(b[1]),
			Depth: int(b[2]),
		}
		switch k {
		case KindNameObj, KindNameOp:
			id := binary.LittleEndian.Uint16(b[8:])
			n := int(b[3])
			if n > nameBytes {
				n = nameBytes
			}
			name := string(b[10 : 10+n])
			rec.Val = uint64(id)
			if k == KindNameObj {
				rec.Obj = name
				objNames[id] = name
			} else {
				rec.Op = name
				opNames[id] = name
			}
			raws = append(raws, raw{rec: rec})
		default:
			rec.LI = int(binary.LittleEndian.Uint16(b[12:]))
			rec.Attempt = int(binary.LittleEndian.Uint16(b[14:]))
			rec.Val = binary.LittleEndian.Uint64(b[16:])
			rec.GStep = binary.LittleEndian.Uint32(b[24:])
			raws = append(raws, raw{
				rec:   rec,
				objID: binary.LittleEndian.Uint16(b[8:]),
				opID:  binary.LittleEndian.Uint16(b[10:]),
			})
		}
	}
	recs = make([]Record, 0, len(raws))
	for _, rw := range raws {
		rec := rw.rec
		if rec.Kind.Lifecycle() {
			rec.Obj = resolve(objNames, rw.objID, "obj")
			rec.Op = resolve(opNames, rw.opID, "op")
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	return recs, valid, torn
}

func resolve(names map[uint16]string, id uint16, what string) string {
	if id == 0 {
		return ""
	}
	if n, ok := names[id]; ok {
		return n
	}
	return fmt.Sprintf("%s#%d", what, id)
}

func validHeader(img []byte) bool {
	if len(img) < headerSize {
		return false
	}
	if string(img[:len(headerMagic)]) != headerMagic {
		return false
	}
	return binary.LittleEndian.Uint32(img[24:]) ==
		crc32.Checksum(img[:24], castagnoli)
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
