package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nrl/internal/nvm"
	"nrl/internal/vclock"
)

const (
	dataName = "data"
	// BlackBoxName is the flight-recorder region file inside a store
	// directory (see Options.BlackBox).
	BlackBoxName = "bbox"

	headerSize  = PageSize
	headerMagic = "NRLPERS1"

	walMagic = uint32(0x4E524C57) // "NRLW"
	// walRecHeaderSize is magic + seq + npages.
	walRecHeaderSize = 4 + 8 + 4
	// walEntrySize is one page entry: index + image.
	walEntrySize = 4 + PageSize
)

// Options configures a backend. The zero value selects the defaults
// noted on each field.
type Options struct {
	// Retries is how many times each physical I/O is retried beyond the
	// first attempt before the backend degrades (default 5).
	Retries int
	// BaseDelay and MaxDelay bound the capped exponential backoff
	// between retries (defaults 1ms and 50ms).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Sleep replaces time.Sleep between retries (tests inject a no-op
	// to exercise the budget without waiting).
	Sleep func(time.Duration)
	// Inject, when non-nil, is consulted before every physical I/O
	// attempt with the operation name — "wal.append", "wal.fsync",
	// "seg.create", "seg.trim", "seg.remove", "manifest.write",
	// "manifest.rename", "data.pwrite", "data.fsync", "data.read",
	// "snap.install", "bbox.pwrite" or "bbox.fsync" — and a non-nil
	// return fails that attempt. It is the failpoint hook the
	// degradation and replica fault tests drive. On Linux File.Sync
	// runs outside the store lock, so concurrent commits call it for
	// "wal.fsync" concurrently; a Mirror's Fence likewise calls it
	// beside the Mirror's Append.
	Inject func(op string) error
	// PhaseHook observes the commit-side persistence phases: Fenced
	// when a record's fsync lands (the atomic commit point) and
	// MidCommit while data pages are rewritten in place.
	PhaseHook func(nvm.Phase)
	// SegmentBytes is the size beyond which the active WAL segment is
	// rotated — succeeded, once every record on it is durable, by a fresh
	// segment at the next index (default 64 KiB). Segments are created
	// preallocated to this size plus segSlack where the platform can.
	SegmentBytes int64
	// CheckpointBytes is the total live WAL size beyond which a commit
	// checkpoints — fsync the data file, persist the manifest, retire
	// every old segment (default 256 KiB).
	CheckpointBytes int64
	// Shipper, when non-nil, observes the commit pipeline for
	// replication (package replica wires the leader's store to its
	// follower mirrors through it). Hooks are notifications: the
	// shipper owns its own retry policy, error state and follower
	// syncs, and can never fail or degrade the local store.
	Shipper Shipper
	// BlackBox, when non-nil, attaches a flight recorder (package
	// flightrec) to the store: Open feeds it the surviving bbox region
	// for reconstruction, and every Commit rewrites its dirty slots into
	// the region before the WAL fsync — flush before fence, so the ring
	// is exactly as durable as the data it explains. The region is
	// fsynced at every checkpoint. Damage to the region never fails
	// Open; it shows up in RecoveryReport as torn black-box slots.
	BlackBox BlackBox
}

// Shipper observes a store's commit pipeline for replication.
type Shipper interface {
	// Append delivers one record's encoded bytes right after the local
	// segment append, under the store lock, in sequence order. rec is
	// valid only during the call: the store encodes the next record into
	// the same buffer.
	Append(seq, epoch uint64, rec []byte)
	// Checkpoint runs after a checkpoint folds the log into the data
	// file; snapshotSeq is the sequence the data file now carries. It
	// may run outside the caller's own locks: from Snapshot, or from the
	// Sync that leaves no commit in flight.
	Checkpoint(snapshotSeq uint64)
}

// BlackBox is the persistence contract between the store and a flight
// recorder. It is satisfied by *flightrec.Recorder; the store only
// needs region geometry, crash reconstruction, dirty-slot syncing and
// the commit marker, and depending on the interface keeps the packages
// decoupled.
type BlackBox interface {
	// SizeBytes is the full region size the recorder persists.
	SizeBytes() int64
	// Recover decodes a previous incarnation's region image; it reports
	// intact and torn record counts and must not fail.
	Recover(img []byte) (valid, torn int)
	// Sync rewrites the slots dirtied since the last call through pw
	// (write b at region offset off).
	Sync(pw func(b []byte, off int64) error) error
	// RecordCommit records the marker for commit sequence seq making
	// words words durable. The store calls it before the region sync
	// that precedes the commit's WAL sync.
	RecordCommit(seq, words uint64)
}

func (o Options) withDefaults() Options {
	if o.Retries <= 0 {
		o.Retries = 5
	}
	if o.BaseDelay <= 0 {
		o.BaseDelay = time.Millisecond
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 50 * time.Millisecond
	}
	if o.Sleep == nil {
		o.Sleep = vclock.WallSleep
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 10
	}
	if o.CheckpointBytes <= 0 {
		o.CheckpointBytes = 256 << 10
	}
	return o
}

// retrier runs physical I/O under the capped-exponential-backoff
// budget, consulting the failpoint hook before each attempt. It is
// shared by the store, the manifest writer, and follower mirrors; each
// owner holds its own so the lifetime retry counts stay attributable.
// The count is atomic because File.Sync and Mirror.Fence sync outside
// their locks.
type retrier struct {
	opts    Options
	retries atomic.Uint64
}

// run performs one physical I/O: a failure of the hook or of fn is
// retried until the budget is spent.
func (r *retrier) run(op string, fn func() error) error { return r.do(op, fn, true) }

// runSync performs one sync syscall. A hook failure, which precedes the
// syscall, is retried like any other; the syscall's own failure is
// returned at once. After a writeback error the kernel may already have
// marked the failed pages clean, so a retried sync can succeed over data
// that never reached the disk.
func (r *retrier) runSync(op string, fn func() error) error { return r.do(op, fn, false) }

func (r *retrier) do(op string, fn func() error, retryFn bool) error {
	delay := r.opts.BaseDelay
	var err error
	for attempt := 0; attempt <= r.opts.Retries; attempt++ {
		if attempt > 0 {
			r.retries.Add(1)
			r.opts.Sleep(delay)
			delay *= 2
			if delay > r.opts.MaxDelay {
				delay = r.opts.MaxDelay
			}
		}
		if r.opts.Inject != nil {
			if err = r.opts.Inject(op); err != nil {
				continue
			}
		}
		if err = fn(); err == nil {
			return nil
		}
		if !retryFn {
			return fmt.Errorf("%s failed: %w", op, err)
		}
	}
	return fmt.Errorf("%s failed after %d attempts: %w", op, r.opts.Retries+1, err)
}

// RecoveryReport summarizes what Open's recovery scan found and did.
type RecoveryReport struct {
	// Pages is the number of data pages scanned; Valid how many carried
	// a valid image (unwritten all-zero pages count as neither).
	Pages int
	Valid int
	// Torn counts pages failing CRC or index validation; Repaired how
	// many of those the WAL's committed records repaired. Open fails
	// with *CorruptError unless Repaired == Torn.
	Torn     int
	Repaired int
	// WALSegments is the number of segment files found; WALRecords the
	// committed records replayed across the chain; WALDiscarded the
	// bytes discarded as uncommitted (torn) tail or post-anomaly
	// segments.
	WALSegments  int
	WALRecords   int
	WALDiscarded int64
	// Reinitialized reports that the store died before its header was
	// durable and was re-created empty.
	Reinitialized bool
	// BlackBoxRecords and BlackBoxTorn report what survived in the
	// flight-recorder region (when Options.BlackBox is set): records
	// decoded intact and slots that failed their checksum. A torn black
	// box degrades the reconstruction to a partial report; it never
	// fails recovery of the data.
	BlackBoxRecords int
	BlackBoxTorn    int
}

// ShipRec is one committed record as handed to a catching-up follower:
// the raw segment-format bytes and the sequence they carry.
type ShipRec struct {
	Seq uint64
	Rec []byte
}

// File is a file-backed nvm.Backend. Open one per store directory and
// install it with nvm.WithBackend; see the package documentation for
// the commit protocol and recovery semantics.
type File struct {
	dir  string
	opts Options
	ship Shipper

	mu sync.Mutex
	// cond, on mu, announces every commit completion and every lifted
	// hold.
	cond     sync.Cond
	data     *os.File
	seg      *os.File // active WAL segment
	segIndex uint32
	segSize  int64          // active segment's append offset, header included
	logBytes int64          // total live chain size across segments
	bbox     *os.File       // flight-recorder region; nil without Options.BlackBox
	img      []uint64       // current committed+growing word image
	covered  []bool         // per page: an appended record or the data file carries an image
	queued   []bool         // per page: listed in pending
	pending  []uint32       // pages whose rewrite waits until no commit is in flight
	idxs     []uint32       // one commit's page list, reused
	pageBuf  [PageSize]byte // writePendingLocked's page image
	recBuf   []byte         // encodeRecord's record, reused
	seq      uint64         // last record sequence appended
	done     uint64         // last sequence whose commit completed; so did every lower one
	inflight int            // commits appended and not yet completed
	// spare holds open file descriptions of the active segment, each
	// free for one commit's sync (see takeSyncFileLocked).
	spare []*os.File
	// hold counts the parties waiting for inflight to drain — a due
	// rotation or checkpoint, SetEpoch, Snapshot, RecordsSince, Close;
	// no commit appends while it is positive. due marks the commit-path
	// one.
	hold     int
	due      bool
	epoch    uint64 // replication epoch (manifest-backed)
	snapSeq  uint64 // sequence the data file is checkpointed at
	degraded error
	report   RecoveryReport
	ret      retrier

	// commits/checkpoints are lifetime totals, see Metrics.
	commits     uint64
	checkpoints uint64
}

// Open opens (creating if absent) the store in dir and runs recovery:
// page scan, segment-chain redo, torn-write repair, then a checkpoint
// that folds the replayed WAL back into the data file. It returns a
// *CorruptError (matching ErrCorrupt) if the store holds damage no
// committed record can repair. I/O failures during the final checkpoint
// do not fail Open; they leave the backend degraded (see Err).
func Open(dir string, opts Options) (*File, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	data, err := os.OpenFile(filepath.Join(dir, dataName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	f := &File{dir: dir, opts: opts, data: data, ret: retrier{opts: opts}}
	f.cond.L = &f.mu
	if opts.BlackBox != nil {
		f.bbox, err = os.OpenFile(filepath.Join(dir, BlackBoxName), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			data.Close()
			return nil, fmt.Errorf("persist: %w", err)
		}
	}
	if err := f.recover(); err != nil {
		data.Close()
		if f.seg != nil {
			f.seg.Close()
		}
		if f.bbox != nil {
			f.bbox.Close()
		}
		return nil, err
	}
	// The shipper activates only after recovery: Open's internal fold
	// checkpoint is local housekeeping, not replicated history.
	f.ship = opts.Shipper
	f.done = f.seq
	return f, nil
}

// Dir returns the store directory (for artifact collection).
func (f *File) Dir() string { return f.dir }

// Report returns what Open's recovery found.
func (f *File) Report() RecoveryReport {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.report
}

// Err returns nil while the backend is healthy and the sticky
// *nvm.DegradedError once its retry budget has been exhausted.
func (f *File) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.degraded
}

// Metrics reports lifetime totals: commits completed, I/O retries
// spent, and checkpoints taken by the commit path (recovery's
// housekeeping fold at Open is not counted).
func (f *File) Metrics() (commits, retries, checkpoints uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.commits, f.ret.retries.Load(), f.checkpoints
}

// Seq returns the last committed record sequence — the store's durable
// prefix.
func (f *File) Seq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.done
}

// Epoch returns the replication epoch the store last served under.
func (f *File) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// SnapshotSeq returns the sequence the data file is checkpointed at;
// records at or below it have been folded out of the WAL.
func (f *File) SnapshotSeq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.snapSeq
}

// Recovered implements nvm.Backend: the durable value recovered for a,
// if a's page carries a committed image.
func (f *File) Recovered(a nvm.Addr) (uint64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if a < 0 || int(a) >= len(f.img) {
		return 0, false
	}
	if !f.covered[int(a)/PayloadWords] {
		return 0, false
	}
	return f.img[a], true
}

// Grow implements nvm.Backend: it tracks a fresh word's initial value
// in the in-memory image only. The word becomes durable with the first
// commit touching its page.
func (f *File) Grow(a nvm.Addr, init uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.growLocked(int(a))
	f.img[a] = init
}

func (f *File) growLocked(a int) {
	for len(f.img) <= a {
		f.img = append(f.img, 0)
	}
	for len(f.covered) <= a/PayloadWords {
		f.covered = append(f.covered, false)
		f.queued = append(f.queued, false)
	}
}

// Commit implements nvm.Backend: Append, then Sync.
func (f *File) Commit(batch []nvm.WordUpdate) error {
	p, err := f.Append(batch)
	if err != nil {
		return err
	}
	return f.Sync(p)
}

// Pending is a record Append wrote and Sync has yet to complete.
type Pending struct {
	seq uint64
	sf  *os.File // the open file description this record's sync uses
}

// Seq returns the record's sequence.
func (p Pending) Seq() uint64 { return p.seq }

// Append is the first half of Commit. Under the store lock it appends one
// WAL record at the active segment's tail, so records reach the file in
// sequence order, and runs the shipper's Append. Every Pending it
// returns must be passed to Sync exactly once: rotations, checkpoints,
// SetEpoch, Snapshot, RecordsSince and Close wait until it has been.
func (f *File) Append(batch []nvm.WordUpdate) (Pending, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.hold > 0 && f.degraded == nil {
		f.cond.Wait()
	}
	if f.degraded != nil {
		return Pending{}, f.degraded
	}
	// The sync's file is taken before the record is written; see
	// takeSyncFileLocked.
	sf, err := f.takeSyncFileLocked()
	if err != nil {
		return Pending{}, f.degradeLocked(err)
	}
	if err := f.appendLocked(batch); err != nil {
		f.spare = append(f.spare, sf)
		return Pending{}, f.degradeLocked(err)
	}
	f.inflight++
	return Pending{seq: f.seq, sf: sf}, nil
}

// Sync is the second half of Commit. It syncs the segment outside the
// store lock (on Linux; see syncOutsideLock), through an open file
// description of its own, overlapping the syncs of concurrent commits.
// Back under the lock it completes in sequence order: it returns nil
// only once its own sync and every earlier commit's have returned nil.
// The commit that leaves none in flight rewrites the queued data pages
// and runs a due rotation or checkpoint.
func (f *File) Sync(p Pending) error {
	if !syncOutsideLock {
		f.mu.Lock()
	}
	err := f.ret.runSync("wal.fsync", func() error { return syncSegment(p.sf) })
	if syncOutsideLock {
		f.mu.Lock()
	}
	defer f.mu.Unlock()
	f.spare = append(f.spare, p.sf)
	if err != nil {
		f.degradeLocked(err)
	}
	// This sync saw every error on this record's pages (on Linux; see
	// takeSyncFileLocked), but one on an earlier record's pages reaches
	// that record's own sync: wait for every earlier commit, and fail if
	// any of them did.
	for f.done != p.seq-1 && f.degraded == nil {
		f.cond.Wait()
	}
	if f.degraded == nil {
		f.done = p.seq
		f.hook(nvm.PhaseFenced)
		f.commits++
	}
	f.inflight--
	if f.inflight == 0 {
		f.quiescentLocked()
	}
	f.cond.Broadcast()
	return f.degraded
}

// appendLocked assigns the next sequence to batch, applies it to the
// image, writes its record at the segment tail, and runs what must
// precede the record's sync: the shipper's Append and the black-box
// rewrite. Its pages join the rewrite queue, and a rotation or
// checkpoint the record makes due holds back later commits.
func (f *File) appendLocked(batch []nvm.WordUpdate) error {
	f.seq++
	// The commit marker rides the very fence it describes: it is in the
	// ring before the region sync below, which lands before the WAL
	// sync that makes this commit durable.
	if f.opts.BlackBox != nil {
		f.opts.BlackBox.RecordCommit(f.seq, uint64(len(batch)))
	}
	idxs := f.idxs[:0]
	for _, u := range batch {
		f.growLocked(int(u.Addr))
		f.img[u.Addr] = u.Val
		idxs = append(idxs, uint32(int(u.Addr)/PayloadWords))
	}
	slices.Sort(idxs)
	idxs = slices.Compact(idxs)
	f.idxs = idxs

	rec := f.encodeRecord(idxs)
	if err := f.ret.run("wal.append", func() error {
		_, err := f.seg.WriteAt(rec, f.segSize)
		return err
	}); err != nil {
		return err
	}
	f.segSize += int64(len(rec))
	f.logBytes += int64(len(rec))
	for _, idx := range idxs {
		f.covered[idx] = true
		f.queuePage(idx)
	}
	if f.ship != nil {
		f.ship.Append(f.seq, f.epoch, rec)
	}
	// Flush before fence: the flight-recorder region must be in the page
	// cache before the sync that commits this record, so the box always
	// explains at least as much history as the data carries.
	if err := f.syncBlackBox(); err != nil {
		return err
	}
	if !f.due && (f.logBytes >= f.opts.CheckpointBytes || f.segSize >= f.opts.SegmentBytes) {
		f.due = true
		f.hold++
	}
	return nil
}

// takeSyncFileLocked takes an open file description of the active
// segment for one commit's sync, opening another when none is spare.
// Linux reports a writeback error once to each open file description
// whose last check predates it, and no sooner than the failed writeback
// ends, which the sync of the record's pages waits for. A description
// that is taken before the record is written, and that no other sync
// checks until this commit's own, therefore reports every error on the
// record's pages. One shared with an overlapping sync would not: that
// sync could consume the report and this one return nil.
func (f *File) takeSyncFileLocked() (*os.File, error) {
	if n := len(f.spare); n > 0 {
		sf := f.spare[n-1]
		f.spare = f.spare[:n-1]
		return sf, nil
	}
	return os.OpenFile(f.seg.Name(), os.O_RDWR, 0)
}

// closeSpareLocked closes the spare descriptions of a segment being
// retired. It runs with no commit in flight, so none is taken.
func (f *File) closeSpareLocked() {
	for _, sf := range f.spare {
		sf.Close()
	}
	f.spare = f.spare[:0]
}

// quiescentLocked runs when the last commit in flight completes. Every
// appended record is then durable (or the store is degraded), so the
// queued page rewrites carry no record that is not, and a rotation or
// checkpoint retires no segment a sync still targets. It lifts the
// hold of a due rotation or checkpoint.
func (f *File) quiescentLocked() {
	due := f.due
	if due {
		f.due = false
		f.hold--
	}
	if f.degraded != nil {
		return
	}
	if len(f.pending) > 0 {
		f.hook(nvm.PhaseMidCommit)
	}
	var err error
	switch {
	case due && f.logBytes >= f.opts.CheckpointBytes:
		if err = f.checkpointLocked(); err == nil {
			f.checkpoints++
			if f.ship != nil {
				f.ship.Checkpoint(f.snapSeq)
			}
		}
	case due:
		if err = f.writePendingLocked(); err == nil {
			err = f.rotateLocked()
		}
	default:
		err = f.writePendingLocked()
	}
	if err != nil {
		f.degradeLocked(err)
	}
}

// quiesceLocked holds back new commits and waits until none is in
// flight; resumeLocked lifts the hold.
func (f *File) quiesceLocked() {
	f.hold++
	for f.inflight > 0 {
		f.cond.Wait()
	}
}

func (f *File) resumeLocked() {
	f.hold--
	f.cond.Broadcast()
}

// syncBlackBox rewrites the recorder's dirty slots into the bbox file
// under the I/O retry budget. No-op without a black box.
func (f *File) syncBlackBox() error {
	if f.bbox == nil {
		return nil
	}
	return f.opts.BlackBox.Sync(func(b []byte, off int64) error {
		return f.ret.run("bbox.pwrite", func() error {
			_, err := f.bbox.WriteAt(b, off)
			return err
		})
	})
}

// SetEpoch durably adopts a higher replication epoch: the manifest is
// rewritten first (the epoch must be durable before any record is
// committed under it — a promoted leader may only ack once no stale
// peer can outrank its history), then the active segment is rotated so
// every subsequent record lands under a header carrying the new epoch.
func (f *File) SetEpoch(e uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.quiesceLocked()
	defer f.resumeLocked()
	if f.degraded != nil {
		return f.degraded
	}
	if e <= f.epoch {
		return fmt.Errorf("persist: epoch %d not above current %d", e, f.epoch)
	}
	if err := writeManifest(f.dir, manifest{epoch: e, snapshotSeq: f.snapSeq}, &f.ret); err != nil {
		return f.degradeLocked(err)
	}
	f.epoch = e
	if err := f.rotateLocked(); err != nil {
		return f.degradeLocked(err)
	}
	return nil
}

// RecordsSince returns the committed records with sequences above
// "after", for follower catch-up. ok is false when the store no longer
// holds them (they were folded into a checkpoint) — the caller must
// fall back to a snapshot transfer.
func (f *File) RecordsSince(after uint64) (recs []ShipRec, ok bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.quiesceLocked()
	defer f.resumeLocked()
	if after < f.snapSeq {
		return nil, false, nil
	}
	if after >= f.seq {
		return nil, true, nil
	}
	ch, err := loadChain(f.dir)
	if err != nil {
		return nil, false, fmt.Errorf("persist: %w", err)
	}
	for _, r := range ch.recs {
		if r.seq > after {
			recs = append(recs, ShipRec{Seq: r.seq, Rec: r.raw})
		}
	}
	if uint64(len(recs)) != f.seq-after {
		// The on-disk chain no longer covers the range (it should —
		// nothing below snapSeq was asked for); snapshot instead.
		return nil, false, nil
	}
	return recs, true, nil
}

// Snapshot checkpoints the store and returns the data file's bytes —
// the complete committed state at the returned sequence — for transfer
// to a follower that is too far behind to catch up by records.
func (f *File) Snapshot() (img []byte, seq uint64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.quiesceLocked()
	defer f.resumeLocked()
	if f.degraded != nil {
		return nil, 0, f.degraded
	}
	if f.seq > f.snapSeq {
		if err := f.checkpointLocked(); err != nil {
			return nil, 0, f.degradeLocked(err)
		}
		f.checkpoints++
		if f.ship != nil {
			f.ship.Checkpoint(f.snapSeq)
		}
	}
	if err := f.ret.run("data.read", func() error {
		var rerr error
		img, rerr = os.ReadFile(filepath.Join(f.dir, dataName))
		return rerr
	}); err != nil {
		return nil, 0, f.degradeLocked(err)
	}
	return img, f.seq, nil
}

// Close waits for the commits in flight, then releases the file
// handles. It does not flush: anything committed is already durable,
// and anything else never was.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.quiesceLocked()
	defer f.resumeLocked()
	var werr error
	if f.seg != nil {
		werr = f.seg.Close()
	}
	f.closeSpareLocked()
	derr := f.data.Close()
	if f.bbox != nil {
		f.bbox.Close()
	}
	if werr != nil {
		return werr
	}
	return derr
}

// encodePageAt encodes the current image of page idx at sequence f.seq
// into buf.
func (f *File) encodePageAt(buf []byte, idx uint32) {
	lo := int(idx) * PayloadWords
	hi := lo + PayloadWords
	if hi > len(f.img) {
		hi = len(f.img)
	}
	var words []uint64
	if lo < len(f.img) {
		words = f.img[lo:hi]
	}
	encodePage(buf, words, f.seq, idx)
}

// writePendingLocked rewrites every queued data page in place.
func (f *File) writePendingLocked() error {
	for len(f.pending) > 0 {
		idx := f.pending[len(f.pending)-1]
		f.encodePageAt(f.pageBuf[:], idx)
		if err := f.ret.run("data.pwrite", func() error {
			_, err := f.data.WriteAt(f.pageBuf[:], headerSize+int64(idx)*PageSize)
			return err
		}); err != nil {
			return err
		}
		f.queued[idx] = false
		f.pending = f.pending[:len(f.pending)-1]
	}
	return nil
}

// queuePage adds page idx to the rewrite queue.
func (f *File) queuePage(idx uint32) {
	if !f.queued[idx] {
		f.queued[idx] = true
		f.pending = append(f.pending, idx)
	}
}

// encodeRecord builds one WAL record carrying the current images of the
// given pages at sequence f.seq, in a buffer the next record reuses: the
// caller writes and ships it under the store lock.
func (f *File) encodeRecord(idxs []uint32) []byte {
	n := walRecHeaderSize + len(idxs)*walEntrySize + 4
	rec := slices.Grow(f.recBuf[:0], n)[:n]
	f.recBuf = rec
	binary.LittleEndian.PutUint32(rec[0:], walMagic)
	binary.LittleEndian.PutUint64(rec[4:], f.seq)
	binary.LittleEndian.PutUint32(rec[12:], uint32(len(idxs)))
	off := walRecHeaderSize
	for _, idx := range idxs {
		binary.LittleEndian.PutUint32(rec[off:], idx)
		f.encodePageAt(rec[off+4:off+4+PageSize], idx)
		off += walEntrySize
	}
	binary.LittleEndian.PutUint32(rec[off:], crc32.Checksum(rec[:off], castagnoli))
	return rec
}

// rotateLocked retires the active segment (already durable — it runs
// with no commit in flight, so every record on it was synced by its
// commit) and opens a fresh one at the next index, headed with the
// current epoch and sequence.
func (f *File) rotateLocked() error {
	next := f.segIndex + 1
	seg, err := createSegment(f.dir, segHeader{index: next, epoch: f.epoch, baseSeq: f.seq}, &f.ret)
	if err != nil {
		return err
	}
	if f.seg != nil {
		f.seg.Close()
	}
	f.closeSpareLocked()
	f.seg = seg
	f.segIndex = next
	f.segSize = segHeaderSize
	f.logBytes += segHeaderSize
	return nil
}

// checkpointLocked folds the WAL into the data file: queued page
// rewrites, data fsync, then the manifest records the new snapshot
// sequence, then a fresh active segment is created and every old
// segment retired (ascending, so an interrupted cleanup leaves a
// contiguous suffix). After it, the data file alone carries the
// committed state. It runs with no commit in flight.
func (f *File) checkpointLocked() error {
	if err := f.writePendingLocked(); err != nil {
		return err
	}
	if err := f.ret.runSync("data.fsync", f.data.Sync); err != nil {
		return err
	}
	// The black box gets the same power-failure durability as the data:
	// whatever the commits pwrote since the last checkpoint is fenced
	// here.
	if f.bbox != nil {
		if err := f.ret.runSync("bbox.fsync", f.bbox.Sync); err != nil {
			return err
		}
	}
	if err := writeManifest(f.dir, manifest{epoch: f.epoch, snapshotSeq: f.seq}, &f.ret); err != nil {
		return err
	}
	f.snapSeq = f.seq
	old, err := listSegments(f.dir)
	if err != nil {
		return err
	}
	next := f.segIndex + 1
	if f.seg == nil {
		next = 0 // bootstrap: recovery checkpoints before any segment is open
	}
	if len(old) > 0 && old[len(old)-1].index >= next {
		next = old[len(old)-1].index + 1
	}
	seg, err := createSegment(f.dir, segHeader{index: next, epoch: f.epoch, baseSeq: f.seq}, &f.ret)
	if err != nil {
		return err
	}
	if f.seg != nil {
		f.seg.Close()
	}
	f.closeSpareLocked()
	f.seg = seg
	f.segIndex = next
	f.segSize = segHeaderSize
	if err := removeSegments(old, &f.ret); err != nil {
		return err
	}
	f.logBytes = segHeaderSize
	return nil
}

// degradeLocked sticks the degradation error. Every subsequent Commit
// fails immediately with the same error.
func (f *File) degradeLocked(err error) error {
	if f.degraded == nil {
		f.degraded = &nvm.DegradedError{Cause: fmt.Errorf("persist: %w", err)}
	}
	return f.degraded
}

func (f *File) hook(p nvm.Phase) {
	if f.opts.PhaseHook != nil {
		f.opts.PhaseHook(p)
	}
}
