package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The WAL is a chain of rotated segment files, wal-000000, wal-000001,
// …, each opened with a fixed-size checksummed header naming its index,
// the epoch it was written under, and the commit sequence the chain had
// reached when the segment was created (baseSeq). Records inside a
// segment are the PR 3 format unchanged; across the chain their
// sequences must run in steps of exactly one from each header's baseSeq,
// so a reader can prove it holds a contiguous committed prefix and trim
// anything after the first anomaly as a torn tail. Segment indexes are
// never reused: rotation and checkpointing always create maxIndex+1.
//
// Segments are created preallocated (see preallocate), so past its last
// record a segment reads as zeros: an all-zero tail is the segment's
// clean end, and the chain continues into the next segment.
const (
	segPrefix = "wal-"
	segMagic  = "NRLSEG1\x00"

	// segSlack is preallocated beyond Options.SegmentBytes: the record
	// that crosses the rotation threshold still lands in allocated space.
	segSlack = 4 << 10

	// segHeaderSize is the fixed segment header: magic, version, index,
	// epoch, baseSeq, CRC-32C, padded to 40 bytes.
	segHeaderSize = 40

	segVersionOff = 8
	segIndexOff   = 12
	segEpochOff   = 16
	segBaseOff    = 24
	segCRCOff     = 32
)

// segHeader is a decoded segment header.
type segHeader struct {
	index uint32
	// epoch is the replication epoch the segment's records were written
	// under; recovery takes the chain's maximum against the manifest.
	epoch uint64
	// baseSeq is the last committed sequence before the segment's first
	// record: record n of the segment carries sequence baseSeq+n.
	baseSeq uint64
}

func encodeSegHeader(h segHeader) []byte {
	b := make([]byte, segHeaderSize)
	copy(b, segMagic)
	binary.LittleEndian.PutUint32(b[segVersionOff:], 1)
	binary.LittleEndian.PutUint32(b[segIndexOff:], h.index)
	binary.LittleEndian.PutUint64(b[segEpochOff:], h.epoch)
	binary.LittleEndian.PutUint64(b[segBaseOff:], h.baseSeq)
	binary.LittleEndian.PutUint32(b[segCRCOff:], crc32.Checksum(b[:segCRCOff], castagnoli))
	return b
}

func parseSegHeader(b []byte) (segHeader, bool) {
	if len(b) < segHeaderSize || string(b[:len(segMagic)]) != segMagic {
		return segHeader{}, false
	}
	if binary.LittleEndian.Uint32(b[segCRCOff:]) != crc32.Checksum(b[:segCRCOff], castagnoli) {
		return segHeader{}, false
	}
	return segHeader{
		index:   binary.LittleEndian.Uint32(b[segIndexOff:]),
		epoch:   binary.LittleEndian.Uint64(b[segEpochOff:]),
		baseSeq: binary.LittleEndian.Uint64(b[segBaseOff:]),
	}, true
}

// segName renders the file name of segment index (wal-000042).
func segName(index uint32) string { return fmt.Sprintf("%s%06d", segPrefix, index) }

func parseSegName(name string) (uint32, bool) {
	if !strings.HasPrefix(name, segPrefix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(segPrefix):], 10, 32)
	if err != nil {
		return 0, false
	}
	return uint32(n), true
}

// segEntry names one on-disk segment file.
type segEntry struct {
	index uint32
	path  string
}

// listSegments returns dir's segment files sorted ascending by index.
func listSegments(dir string) ([]segEntry, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segEntry
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if idx, ok := parseSegName(e.Name()); ok {
			segs = append(segs, segEntry{index: idx, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	return segs, nil
}

// chainRec is one committed record read back from the segment chain,
// both decoded (for redo) and raw (for shipping to a mirror).
type chainRec struct {
	seq uint64
	raw []byte
	dec walRec
}

// chain is the durable record prefix reconstructed from a directory's
// segment files.
type chain struct {
	recs      []chainRec
	discarded int64  // bytes trimmed as torn tail or post-anomaly segments
	epoch     uint64 // max header epoch among chained segments
	lastIndex uint32 // highest segment index present on disk (any state)
	nsegs     int    // segment files present on disk
	clean     bool   // no discarded bytes and every segment chained
	tailIndex uint32 // index of the last chained segment
	tailSize  int64  // its header and records: the append position when reusing it
	bytes     int64  // total chained bytes (headers + records)
	baseSeq   uint64 // baseSeq of the first chained segment
	end       uint64 // last chained sequence (tail baseSeq if tail empty)
}

// loadChain reads and validates dir's segment chain. The chain stops at
// the first anomaly — unreadable file, invalid header, index mismatch,
// baseSeq discontinuity, or a torn record tail (bytes after a segment's
// last valid record that are not all zero) — and everything from that
// point on counts as discarded: a record is only part of the durable
// prefix if every byte between it and the chain's start validates.
// Read-only; trimming is the writer's (or recovery's) job.
func loadChain(dir string) (chain, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return chain{}, err
	}
	c := chain{clean: true, nsegs: len(segs)}
	var prevSeq uint64
	havePrev := false
	broken := false
	for _, se := range segs {
		if se.index > c.lastIndex {
			c.lastIndex = se.index
		}
		if broken {
			if fi, err := os.Stat(se.path); err == nil {
				c.discarded += fi.Size()
			}
			c.clean = false
			continue
		}
		b, err := os.ReadFile(se.path)
		if err != nil {
			return chain{}, err
		}
		h, ok := parseSegHeader(b)
		if !ok || h.index != se.index || (havePrev && h.baseSeq != prevSeq) {
			broken = true
			c.discarded += int64(len(b))
			c.clean = false
			continue
		}
		if !havePrev {
			c.baseSeq = h.baseSeq
		}
		body := b[segHeaderSize:]
		recs, used := parseRecords(body, h.baseSeq)
		var disc int64
		if !allZero(body[used:]) {
			disc = int64(len(body) - used)
		}
		c.recs = append(c.recs, recs...)
		c.discarded += disc
		if h.epoch > c.epoch {
			c.epoch = h.epoch
		}
		c.tailIndex = se.index
		c.tailSize = segHeaderSize + int64(used)
		c.bytes += c.tailSize
		prevSeq = h.baseSeq + uint64(len(recs))
		c.end = prevSeq
		havePrev = true
		if disc > 0 {
			broken = true
			c.clean = false
		}
	}
	return c, nil
}

// parseRecords decodes the valid record prefix of one segment's body
// and returns it with its byte length. Sequences must run baseSeq+1,
// baseSeq+2, …: the prefix ends at the first short record, bad magic,
// bad CRC, sequence break, or invalid embedded page.
func parseRecords(b []byte, baseSeq uint64) (recs []chainRec, used int) {
	off := 0
	next := baseSeq + 1
	for {
		if len(b)-off < walRecHeaderSize+4 {
			break
		}
		if binary.LittleEndian.Uint32(b[off:]) != walMagic {
			break
		}
		seq := binary.LittleEndian.Uint64(b[off+4:])
		n := binary.LittleEndian.Uint32(b[off+12:])
		if seq != next || n == 0 || n > maxRecPages {
			break
		}
		total := walRecHeaderSize + int(n)*walEntrySize + 4
		if len(b)-off < total {
			break
		}
		body := b[off : off+total]
		if binary.LittleEndian.Uint32(body[total-4:]) !=
			crc32.Checksum(body[:total-4], castagnoli) {
			break
		}
		rec := walRec{seq: seq}
		valid := true
		for i := 0; i < int(n); i++ {
			e := body[walRecHeaderSize+i*walEntrySize:]
			idx := binary.LittleEndian.Uint32(e)
			words, _, zero, ok := parsePage(e[4:4+PageSize], idx)
			if !ok || zero {
				valid = false
				break
			}
			rec.pages = append(rec.pages, walPage{idx: idx, words: words})
		}
		if !valid {
			break
		}
		recs = append(recs, chainRec{seq: seq, raw: body, dec: rec})
		off += total
		next++
	}
	return recs, off
}

// zeroBlock is compared against in allZero; never written.
var zeroBlock [4096]byte

// allZero reports whether b holds only zero bytes. It compares whole
// blocks: a preallocated segment's tail is tens of KiB of zeros, and
// recovery and ScanDir check every segment's.
func allZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), len(zeroBlock))
		if !bytes.Equal(b[:n], zeroBlock[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// syncSegment makes a WAL segment's appended records durable. Package
// tests substitute a failing sync here.
var syncSegment = datasync

// createSegment creates the segment file for index in dir,
// preallocated to r's SegmentBytes plus segSlack, and writes its
// fsynced header under r's retry budget, returning the open handle
// positioned for record appends.
func createSegment(dir string, h segHeader, r *retrier) (*os.File, error) {
	path := filepath.Join(dir, segName(h.index))
	var f *os.File
	if err := r.run("seg.create", func() error {
		var err error
		f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		if err := preallocate(f, r.opts.SegmentBytes+segSlack); err != nil {
			f.Close()
			f = nil
			return err
		}
		if _, err := f.WriteAt(encodeSegHeader(h), 0); err != nil {
			f.Close()
			f = nil
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			f = nil
			return err
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return f, nil
}

// removeSegments deletes the given segment files in ascending index
// order, so an interrupted cleanup always leaves a contiguous suffix of
// the old chain (never a gap in the middle).
func removeSegments(segs []segEntry, r *retrier) error {
	for _, se := range segs {
		se := se
		if err := r.run("seg.remove", func() error { return os.Remove(se.path) }); err != nil {
			return err
		}
	}
	return nil
}
