package persist

import (
	"encoding/binary"
	"hash/crc32"
)

const (
	// PageSize is the size of one data page: a cache line.
	PageSize = 64
	// PayloadWords is how many 64-bit memory words one page holds; the
	// remaining 16 bytes are the commit sequence, the page index and
	// the checksum.
	PayloadWords = 6

	pageSeqOff = PayloadWords * 8 // 48
	pageIdxOff = pageSeqOff + 8   // 56
	pageCRCOff = pageIdxOff + 4   // 60
)

// castagnoli is the CRC-32C table; the same polynomial hardware CRC
// instructions implement.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodePage writes the 64-byte image of page idx into buf: words
// (padded with zeros to PayloadWords), the committing sequence number,
// the index, and the CRC-32C of the preceding 60 bytes.
func encodePage(buf []byte, words []uint64, seq uint64, idx uint32) {
	for i := 0; i < PayloadWords; i++ {
		var w uint64
		if i < len(words) {
			w = words[i]
		}
		binary.LittleEndian.PutUint64(buf[i*8:], w)
	}
	binary.LittleEndian.PutUint64(buf[pageSeqOff:], seq)
	binary.LittleEndian.PutUint32(buf[pageIdxOff:], idx)
	binary.LittleEndian.PutUint32(buf[pageCRCOff:], crc32.Checksum(buf[:pageCRCOff], castagnoli))
}

// parsePage validates a 64-byte image as page idx and decodes its
// payload. ok is false for a torn or misplaced page. An all-zero image
// is an unwritten page: valid, but reported separately via zero.
func parsePage(buf []byte, idx uint32) (words [PayloadWords]uint64, seq uint64, zero, ok bool) {
	if len(buf) != PageSize {
		return words, 0, false, false
	}
	if allZero(buf) {
		return words, 0, true, true
	}
	if binary.LittleEndian.Uint32(buf[pageCRCOff:]) != crc32.Checksum(buf[:pageCRCOff], castagnoli) {
		return words, 0, false, false
	}
	if binary.LittleEndian.Uint32(buf[pageIdxOff:]) != idx {
		return words, 0, false, false
	}
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return words, binary.LittleEndian.Uint64(buf[pageSeqOff:]), false, true
}
