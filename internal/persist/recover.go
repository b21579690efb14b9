package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// makeHeader builds the 64-byte data-file header: magic, version, the
// geometry constants, and a CRC-32C like every page.
func makeHeader() []byte {
	h := make([]byte, headerSize)
	copy(h, headerMagic)
	binary.LittleEndian.PutUint32(h[8:], 1) // format version
	binary.LittleEndian.PutUint32(h[12:], PageSize)
	binary.LittleEndian.PutUint32(h[16:], PayloadWords)
	binary.LittleEndian.PutUint32(h[pageCRCOff:], crc32.Checksum(h[:pageCRCOff], castagnoli))
	return h
}

func validHeader(b []byte) bool {
	if len(b) < headerSize {
		return false
	}
	if string(b[:len(headerMagic)]) != headerMagic {
		return false
	}
	return binary.LittleEndian.Uint32(b[pageCRCOff:]) ==
		crc32.Checksum(b[:pageCRCOff], castagnoli)
}

// walRec is one committed WAL record, decoded.
type walRec struct {
	seq   uint64
	pages []walPage
}

type walPage struct {
	idx   uint32
	words [PayloadWords]uint64
}

// maxRecPages is a sanity cap on the page count of one record; a larger
// claim marks the record (and everything after it) invalid.
const maxRecPages = 1 << 16

// recover runs Open's scan-and-redo pass; see the package
// documentation. It returns *CorruptError for unrepairable damage and
// nil otherwise; I/O failures while re-initializing or checkpointing
// degrade the backend instead of failing Open.
func (f *File) recover() error {
	dataPath := filepath.Join(f.dir, dataName)
	dataBytes, err := os.ReadFile(dataPath)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	man, manOK := readManifest(f.dir)
	ch, err := loadChain(f.dir)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}

	f.report.WALSegments = ch.nsegs
	f.report.WALRecords = len(ch.recs)
	f.report.WALDiscarded = ch.discarded
	if manOK {
		f.epoch = man.epoch
		f.snapSeq = man.snapshotSeq
	}
	// A crash between a SetEpoch manifest write and its segment rotation
	// leaves the manifest ahead of the chain — the manifest rules. The
	// reverse (a chained segment above the manifest's epoch) means the
	// manifest write was lost to damage; honor the stamped history.
	if ch.epoch > f.epoch {
		f.epoch = ch.epoch
	}
	f.seq = f.snapSeq

	// Revive the flight recorder from the surviving bbox region first:
	// whatever the data scan below concludes — including unrepairable
	// corruption — the black box's story is already reconstructed, and
	// damage to the region itself can only shrink that story, never
	// fail recovery of the data (the region's records are individually
	// checksummed; torn ones are dropped as a partial report).
	if f.opts.BlackBox != nil {
		img, rerr := os.ReadFile(filepath.Join(f.dir, BlackBoxName))
		if rerr == nil {
			f.report.BlackBoxRecords, f.report.BlackBoxTorn = f.opts.BlackBox.Recover(img)
		}
	}

	// Header. A fresh store has none; a store that died before its
	// header fsync (it cannot have committed anything yet) is
	// re-created; a damaged header over committed state is corruption.
	// Committed evidence is a chained record, discarded (damaged) log
	// bytes, or a manifest witnessing an earlier checkpoint or epoch.
	committedEvidence := len(ch.recs) > 0 || ch.discarded > 0 ||
		(manOK && (man.epoch > 0 || man.snapshotSeq > 0))
	switch {
	case len(dataBytes) == 0 && f.snapSeq == 0 && ch.baseSeq == 0:
		// Fresh store — or a follower dir whose chain runs complete from
		// genesis (no checkpoint ever folded records away), where the
		// log alone reconstructs every committed page: the last touch of
		// any page is in some chained record. Materialize the header and
		// let the redo below do the rest.
		if err := f.initHeader(); err != nil {
			f.degradeLocked(err)
		}
	case validHeader(dataBytes):
		// Fine; scan below.
	default:
		if committedEvidence || anyValidPage(dataBytes) {
			return &CorruptError{Path: dataPath, Page: -1, Reason: "damaged header over committed state"}
		}
		f.report.Reinitialized = true
		if err := f.ret.run("data.pwrite", func() error { return f.data.Truncate(0) }); err != nil {
			f.degradeLocked(err)
		} else if err := f.initHeader(); err != nil {
			f.degradeLocked(err)
		}
		dataBytes = nil
	}

	// Page scan: decode every valid page into the image, collect torn
	// ones. A partial page at the tail (a grow cut short) is torn too.
	torn := map[uint32]bool{}
	pageSeqs := map[uint32]uint64{}
	if len(dataBytes) > headerSize {
		body := dataBytes[headerSize:]
		npages := (len(body) + PageSize - 1) / PageSize
		f.report.Pages = npages
		for i := 0; i < npages; i++ {
			lo := i * PageSize
			hi := lo + PageSize
			if hi > len(body) {
				hi = len(body)
			}
			idx := uint32(i)
			words, seq, zero, ok := parsePage(body[lo:hi], idx)
			switch {
			case !ok:
				torn[idx] = true
			case zero:
				// Unwritten page: nothing to recover.
			default:
				f.growLocked((i+1)*PayloadWords - 1)
				copy(f.img[i*PayloadWords:], words[:])
				f.covered[idx] = true
				pageSeqs[idx] = seq
				f.report.Valid++
				if seq > f.seq {
					f.seq = seq
				}
			}
		}
	}
	f.report.Torn = len(torn)

	// Redo: replay the committed records over the scanned image, in
	// order. A torn data page covered by a record is thereby repaired —
	// the record was durable before the page rewrite started. The
	// sequence guard makes the replay idempotent against a valid data
	// page that is already newer than a record (the record's rewrite
	// completed, later commits moved the page on): redo must only roll
	// forward, never back.
	walPages := map[uint32]bool{}
	for _, cr := range ch.recs {
		rec := cr.dec
		for _, pg := range rec.pages {
			walPages[pg.idx] = true
			if rec.seq <= pageSeqs[pg.idx] {
				continue
			}
			f.growLocked((int(pg.idx)+1)*PayloadWords - 1)
			copy(f.img[int(pg.idx)*PayloadWords:], pg.words[:])
			f.covered[pg.idx] = true
			pageSeqs[pg.idx] = rec.seq
		}
		if rec.seq > f.seq {
			f.seq = rec.seq
		}
	}
	for idx := range torn {
		if !walPages[idx] {
			return &CorruptError{Path: dataPath, Page: int(idx),
				Reason: "torn page not covered by any committed record"}
		}
		f.report.Repaired++
	}

	if f.degraded != nil {
		return nil
	}
	// Fold the replay back into the data file and start with an empty
	// log (fresh stores bootstrap their manifest and first segment the
	// same way). Failure degrades: the recovered image is intact in
	// memory, so reads stay correct — there is just nothing durable to
	// add. A clean, empty chain is reused as-is so reopening a quiet
	// store rewrites nothing.
	// A reusable tail must also end exactly at the recovered sequence: a
	// stale chain (its end below the manifest's snapshot — an interrupted
	// snapshot install or checkpoint cleanup) would accept appends whose
	// sequences don't extend its header lineage, breaking the next
	// recovery's continuity proof.
	if len(ch.recs) > 0 || !ch.clean || ch.nsegs == 0 || !manOK || ch.end != f.seq {
		for idx := range walPages {
			f.queuePage(idx)
		}
		if err := f.checkpointLocked(); err != nil {
			f.degradeLocked(err)
		}
		return nil
	}
	var seg *os.File
	if err := f.ret.run("seg.create", func() error {
		var oerr error
		seg, oerr = os.OpenFile(filepath.Join(f.dir, segName(ch.tailIndex)), os.O_RDWR, 0o644)
		return oerr
	}); err != nil {
		f.degradeLocked(err)
		return nil
	}
	f.seg = seg
	f.segIndex = ch.tailIndex
	f.segSize = ch.tailSize
	f.logBytes = ch.bytes
	return nil
}

func (f *File) initHeader() error {
	h := makeHeader()
	if err := f.ret.run("data.pwrite", func() error {
		_, err := f.data.WriteAt(h, 0)
		return err
	}); err != nil {
		return err
	}
	return f.ret.runSync("data.fsync", f.data.Sync)
}

// anyValidPage reports whether the body of a data image holds at least
// one valid non-zero page — evidence of committed state.
func anyValidPage(b []byte) bool {
	if len(b) <= headerSize {
		return false
	}
	body := b[headerSize:]
	for i := 0; i*PageSize < len(body); i++ {
		lo := i * PageSize
		hi := lo + PageSize
		if hi > len(body) {
			break
		}
		if _, _, zero, ok := parsePage(body[lo:hi], uint32(i)); ok && !zero {
			return true
		}
	}
	return false
}
