package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// ErrSeqGap reports that a record handed to Mirror.Append does not
// extend the mirror's contiguous prefix. The mirror is intact — the
// caller must catch it up (RecordsSince or a snapshot) and retry.
var ErrSeqGap = errors.New("persist: record sequence gap")

// Mirror is the follower side of replication: an append-only writer
// over a store directory in the exact on-disk format File recovers
// from, so promoting a follower is nothing more than persist.Open on
// its directory. A mirror holds a contiguous committed prefix — a
// snapshot-installed data file plus a gap-free segment chain — and
// refuses any append that would break contiguity (ErrSeqGap), which is
// what makes "the follower with the longest prefix holds every acked
// record" a sound election rule.
type Mirror struct {
	dir  string
	opts Options

	mu       sync.Mutex
	ret      retrier
	seg      *os.File
	segIndex uint32
	segSize  int64
	seq      uint64
	synced   uint64 // last sequence a sync covered
	epoch    uint64
	snapSeq  uint64
	// failed is the sticky error of a failed sync: the kernel may have
	// marked the failed pages clean, so no later sync, and no mirror
	// reopened over the page cache, can show them durable.
	failed error
}

// OpenMirror opens (creating if absent) the follower store in dir and
// positions it at the end of its durable prefix, trimming any torn log
// tail left by a crash so the next append extends a clean chain.
func OpenMirror(dir string, opts Options) (*Mirror, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	m := &Mirror{dir: dir, opts: opts, ret: retrier{opts: opts}}
	man, manOK := readManifest(dir)
	ch, err := loadChain(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if manOK {
		m.epoch = man.epoch
		m.snapSeq = man.snapshotSeq
	}
	if ch.epoch > m.epoch {
		m.epoch = ch.epoch
	}
	m.seq = m.snapSeq
	if n := len(ch.recs); n > 0 && ch.recs[n-1].seq > m.seq {
		m.seq = ch.recs[n-1].seq
	}
	m.synced = m.seq
	if !manOK {
		if err := writeManifest(dir, manifest{epoch: m.epoch, snapshotSeq: m.snapSeq}, &m.ret); err != nil {
			return nil, err
		}
	}
	if ch.bytes > 0 && ch.end == m.seq {
		// Reuse the chained tail segment, truncating a torn record tail
		// and dropping any post-anomaly segments so appends land on a
		// provably contiguous chain. A chain ending below the prefix
		// (stale remnants of an interrupted snapshot install) is not
		// reusable — appending past the gap would break the continuity
		// the next recovery has to prove — and takes the fresh-segment
		// path below instead.
		if !ch.clean {
			var later []segEntry
			segs, err := listSegments(dir)
			if err != nil {
				return nil, fmt.Errorf("persist: %w", err)
			}
			for _, se := range segs {
				if se.index > ch.tailIndex {
					later = append(later, se)
				}
			}
			if err := removeSegments(later, &m.ret); err != nil {
				return nil, err
			}
		}
		var seg *os.File
		if err := m.ret.run("seg.create", func() error {
			var oerr error
			seg, oerr = os.OpenFile(filepath.Join(dir, segName(ch.tailIndex)), os.O_RDWR, 0o644)
			return oerr
		}); err != nil {
			return nil, err
		}
		if !ch.clean {
			// Cut the torn tail and preallocate afresh: the chain must read
			// as zeros past the next record appended here.
			if err := m.ret.run("seg.trim", func() error {
				if err := seg.Truncate(ch.tailSize); err != nil {
					return err
				}
				if err := preallocate(seg, opts.SegmentBytes+segSlack); err != nil {
					return err
				}
				return seg.Sync()
			}); err != nil {
				seg.Close()
				return nil, err
			}
		}
		m.seg = seg
		m.segIndex = ch.tailIndex
		m.segSize = ch.tailSize
	} else {
		next := uint32(0)
		if ch.nsegs > 0 {
			next = ch.lastIndex + 1
		}
		// No chained segment survives: anything on disk is noise from a
		// torn install, superseded by the fresh segment at a new index.
		if segs, err := listSegments(dir); err == nil {
			removeSegments(segs, &m.ret)
		}
		seg, err := createSegment(dir, segHeader{index: next, epoch: m.epoch, baseSeq: m.seq}, &m.ret)
		if err != nil {
			return nil, err
		}
		m.seg = seg
		m.segIndex = next
		m.segSize = segHeaderSize
	}
	return m, nil
}

// Dir returns the mirror's store directory.
func (m *Mirror) Dir() string { return m.dir }

// Seq returns the last sequence in the mirror's contiguous prefix.
func (m *Mirror) Seq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seq
}

// Epoch returns the replication epoch the mirror last accepted.
func (m *Mirror) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// SnapshotSeq returns the sequence of the last installed snapshot.
func (m *Mirror) SnapshotSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapSeq
}

// Append accepts one shipped record. seq must extend the prefix by
// exactly one (ErrSeqGap otherwise). The record is buffered; it counts
// toward quorum only after Fence. Append may run beside a Fence.
func (m *Mirror) Append(seq uint64, rec []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed != nil {
		return m.failed
	}
	if seq != m.seq+1 {
		return fmt.Errorf("%w: have %d, got %d", ErrSeqGap, m.seq, seq)
	}
	if err := m.ret.run("wal.append", func() error {
		_, err := m.seg.WriteAt(rec, m.segSize)
		return err
	}); err != nil {
		return err
	}
	m.segSize += int64(len(rec))
	m.seq = seq
	return nil
}

// Fence makes everything appended before the call durable, to be
// counted toward replication quorum. It syncs the active segment
// outside the mirror's lock, so appends go on meanwhile; Fence calls
// must not overlap one another, SetEpoch, InstallSnapshot or Close. A
// segment grown past SegmentBytes rotates here, once every record on it
// is synced: the next segment's header names the last record as its
// base, so a crash that lost that record would cut the chain before
// every record fenced after it. A failed sync is final: the mirror
// fails every later call, and only a snapshot install into a freshly
// opened mirror brings the directory back.
func (m *Mirror) Fence() error {
	m.mu.Lock()
	seg, seq, err := m.seg, m.seq, m.failed
	m.mu.Unlock()
	if err != nil {
		return err
	}
	err = m.ret.runSync("wal.fsync", func() error { return syncSegment(seg) })
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		m.failed = err
		return err
	}
	m.synced = seq
	if m.segSize < m.opts.SegmentBytes {
		return nil
	}
	if err := m.syncLocked(); err != nil {
		return err
	}
	return m.rotateLocked()
}

// syncLocked syncs the records appended since the last sync, if any.
func (m *Mirror) syncLocked() error {
	if m.synced == m.seq {
		return nil
	}
	if err := m.ret.runSync("wal.fsync", func() error { return syncSegment(m.seg) }); err != nil {
		m.failed = err
		return err
	}
	m.synced = m.seq
	return nil
}

// SetEpoch durably adopts a higher epoch: manifest first (the promotion
// witness — durable before any record of the new epoch), then a rotated
// segment stamped with it.
func (m *Mirror) SetEpoch(e uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed != nil {
		return m.failed
	}
	if e <= m.epoch {
		return fmt.Errorf("persist: epoch %d not above current %d", e, m.epoch)
	}
	if err := writeManifest(m.dir, manifest{epoch: e, snapshotSeq: m.snapSeq}, &m.ret); err != nil {
		return err
	}
	m.epoch = e
	if err := m.syncLocked(); err != nil {
		return err
	}
	return m.rotateLocked()
}

// InstallSnapshot replaces the mirror's state wholesale with a data
// image complete at seq (from File.Snapshot): the image lands by
// write-temp + fsync + rename (a torn install leaves the old state
// intact), the manifest then witnesses the new snapshot, and the log
// restarts empty at a fresh index. Used when the mirror is too far
// behind for record catch-up, or holds a conflicting stale-epoch tail.
func (m *Mirror) InstallSnapshot(img []byte, seq, epoch uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed != nil {
		return m.failed
	}
	if !validHeader(img) {
		return fmt.Errorf("persist: snapshot image has no valid header")
	}
	if epoch < m.epoch {
		return fmt.Errorf("persist: snapshot epoch %d below current %d", epoch, m.epoch)
	}
	tmp := filepath.Join(m.dir, dataName+".tmp")
	if err := m.ret.run("snap.install", func() error {
		if err := os.WriteFile(tmp, img, 0o644); err != nil {
			return err
		}
		f, err := os.OpenFile(tmp, os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return os.Rename(tmp, filepath.Join(m.dir, dataName))
	}); err != nil {
		return err
	}
	if err := writeManifest(m.dir, manifest{epoch: epoch, snapshotSeq: seq}, &m.ret); err != nil {
		return err
	}
	m.epoch = epoch
	m.snapSeq = seq
	m.seq = seq
	m.synced = seq
	// Old segments go before the fresh one is created: the stale chain
	// ends below the new snapshot sequence, so if a crash left both it
	// and a new segment behind, the next recovery would chain onto the
	// stale end and discard everything appended after the install.
	if m.seg != nil {
		m.seg.Close()
		m.seg = nil
	}
	old, err := listSegments(m.dir)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	next := m.segIndex + 1
	if len(old) > 0 && old[len(old)-1].index >= next {
		next = old[len(old)-1].index + 1
	}
	if err := removeSegments(old, &m.ret); err != nil {
		return err
	}
	seg, err := createSegment(m.dir, segHeader{index: next, epoch: epoch, baseSeq: seq}, &m.ret)
	if err != nil {
		return err
	}
	m.seg = seg
	m.segIndex = next
	m.segSize = segHeaderSize
	return nil
}

// Retries reports the lifetime I/O retry count (for telemetry).
func (m *Mirror) Retries() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ret.retries.Load()
}

// rotateLocked retires the active segment, which its caller has synced,
// and opens a fresh one at the next index.
func (m *Mirror) rotateLocked() error {
	next := m.segIndex + 1
	seg, err := createSegment(m.dir, segHeader{index: next, epoch: m.epoch, baseSeq: m.seq}, &m.ret)
	if err != nil {
		return err
	}
	if m.seg != nil {
		m.seg.Close()
	}
	m.seg = seg
	m.segIndex = next
	m.segSize = segHeaderSize
	return nil
}

// Close releases the active segment handle.
func (m *Mirror) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.seg == nil {
		return nil
	}
	err := m.seg.Close()
	m.seg = nil
	return err
}
