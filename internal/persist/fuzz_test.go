package persist_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"nrl/internal/nvm"
	"nrl/internal/persist"
)

// buildStore creates a store with a known committed state and a
// populated WAL (no checkpoint has folded it away), returning the
// expected word values.
func buildStore(t *testing.T, dir string) map[nvm.Addr]uint64 {
	t.Helper()
	f, err := persist.Open(dir, fastOpts())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	batches := [][]nvm.WordUpdate{
		{{Addr: 0, Val: 11}, {Addr: 6, Val: 22}},
		{{Addr: 12, Val: 33}},
		{{Addr: 0, Val: 44}},
	}
	for _, b := range batches {
		for _, u := range b {
			f.Grow(u.Addr, 0)
		}
		if err := f.Commit(b); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	return map[nvm.Addr]uint64{0: 44, 6: 22, 12: 33}
}

// TestStaleWALRecordDoesNotRollBack pins the redo sequence guard: when
// the WAL's newest record is damaged but the data pages already carry
// its effects, replaying the surviving older records must not roll a
// newer valid page back to an older value.
func TestStaleWALRecordDoesNotRollBack(t *testing.T) {
	dir := t.TempDir()
	want := buildStore(t, dir)

	wal := activeSeg(t, dir)
	b, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the last record ({0: 44}).
	recs := recordStarts(b)
	b[recs[len(recs)-1]+20] ^= 0xff
	if err := os.WriteFile(wal, b, 0o644); err != nil {
		t.Fatal(err)
	}

	g, err := persist.Open(dir, fastOpts())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer g.Close()
	for a, w := range want {
		if got, ok := g.Recovered(a); !ok || got != w {
			t.Fatalf("Recovered(%d) = %d,%v, want %d (rolled back by stale record?)", a, got, ok, w)
		}
	}
}

// buildSegmentedStore commits enough single-word batches under tiny
// segments to spread the WAL over several rotated segment files (no
// checkpoint folds any of it), returning the expected word values.
func buildSegmentedStore(t *testing.T, dir string) map[nvm.Addr]uint64 {
	t.Helper()
	f, err := persist.Open(dir, tinySegOpts())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	want := map[nvm.Addr]uint64{}
	for i := 0; i < 10; i++ {
		a := nvm.Addr(i * 6)
		u := nvm.WordUpdate{Addr: a, Val: uint64(1000 + i)}
		f.Grow(a, 0)
		if err := f.Commit([]nvm.WordUpdate{u}); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		want[a] = u.Val
	}
	if n := len(walSegs(t, dir)); n < 3 {
		t.Fatalf("store has %d segments, want >= 3 (fuzz needs boundaries)", n)
	}
	return want
}

// FuzzSegmentedRecovery extends FuzzRecovery to multi-segment WALs: one
// round of damage lands inside a chosen segment, at or across a segment
// boundary (the tail of one file and the head of the next), or deletes
// a whole segment, punching a hole in the chain. The data pages are
// untouched and every record's effects were rewritten at commit, so any
// successful open must surface the complete committed state — chain
// trimming may discard log suffix, never durable words — and a failed
// open must carry the typed persist.ErrCorrupt. Panics and silent
// prefix loss are the bugs being fuzzed for.
func FuzzSegmentedRecovery(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint8(8), uint8(0xff), false, false, false)    // head of oldest segment
	f.Add(uint8(1), uint16(50), uint8(4), uint8(0xa5), false, false, false)   // mid middle segment
	f.Add(uint8(1), uint16(0), uint8(16), uint8(0x01), true, false, false)    // across a boundary
	f.Add(uint8(2), uint16(40), uint8(0), uint8(0), false, true, false)       // truncate newest mid-record
	f.Add(uint8(0), uint16(0), uint8(0), uint8(0), false, true, false)        // truncate oldest to zero
	f.Add(uint8(1), uint16(0), uint8(0), uint8(0), false, false, true)        // delete a middle segment
	f.Add(uint8(1), uint16(1000), uint8(4), uint8(0x5a), false, false, false) // inside a middle segment's preallocated zeros
	f.Fuzz(func(t *testing.T, segSel uint8, off uint16, n uint8, mask uint8, cross, truncate, remove bool) {
		dir := t.TempDir()
		want := buildSegmentedStore(t, dir)
		segs := walSegs(t, dir)
		seg := int(segSel) % len(segs)

		flip := func(path string, off int, n int, headOnly bool) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(b) == 0 {
				return
			}
			m := mask
			if m == 0 {
				m = 0xff
			}
			for i := 0; i <= n; i++ {
				p := off + i
				if headOnly {
					p = i
				}
				if p >= len(b) {
					break
				}
				b[p] ^= m
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		switch {
		case remove:
			if err := os.Remove(segs[seg]); err != nil {
				t.Fatal(err)
			}
		case truncate:
			b, err := os.ReadFile(segs[seg])
			if err != nil {
				t.Fatal(err)
			}
			if int(off) < len(b) {
				b = b[:off]
			}
			if err := os.WriteFile(segs[seg], b, 0o644); err != nil {
				t.Fatal(err)
			}
		case cross:
			// Tail of segs[seg] and head of the following segment: the
			// damage straddles a rotation boundary.
			b, err := os.ReadFile(segs[seg])
			if err != nil {
				t.Fatal(err)
			}
			tail := len(b) - 1 - int(n)
			if tail < 0 {
				tail = 0
			}
			flip(segs[seg], tail, int(n), false)
			if seg+1 < len(segs) {
				flip(segs[seg+1], 0, int(n), true)
			}
		default:
			flip(segs[seg], int(off), int(n), false)
		}

		g, err := persist.Open(dir, tinySegOpts())
		if err != nil {
			if !errors.Is(err, persist.ErrCorrupt) {
				t.Fatalf("Open rejected with untyped error: %v", err)
			}
			return
		}
		defer g.Close()
		for a, w := range want {
			if got, ok := g.Recovered(a); !ok || got != w {
				t.Fatalf("silent prefix loss: Recovered(%d) = %d,%v, want %d,true (seg=%d off=%d n=%d mask=%#x cross=%v trunc=%v rm=%v)",
					a, got, ok, w, seg, off, n, mask, cross, truncate, remove)
			}
		}
		if err := g.Commit([]nvm.WordUpdate{{Addr: 0, Val: 99}}); err != nil {
			t.Fatalf("post-recovery Commit: %v", err)
		}
	})
}

// FuzzRecovery is the corruption fuzzer the issue asks for: it applies
// one contiguous bit-flip or truncation to a persisted store's data or
// WAL file and requires recovery to either repair (the store opens with
// exactly the committed values — no silent corruption) or reject with
// the typed ErrCorrupt — and never panic.
//
// With a single-region mutation this dichotomy is exact: damaging the
// data file leaves the full WAL to replay, damaging the WAL leaves the
// fully rewritten data pages, so any successful open must surface the
// complete committed state.
func FuzzRecovery(f *testing.F) {
	f.Add(false, uint16(64), uint8(8), uint8(0xff), false)  // tear first data page
	f.Add(false, uint16(0), uint8(4), uint8(0x58), false)   // damage header
	f.Add(true, uint16(0), uint8(16), uint8(0xa5), false)   // damage first WAL record
	f.Add(true, uint16(100), uint8(60), uint8(0x01), false) // damage a later record
	f.Add(true, uint16(90), uint8(0), uint8(0), true)       // truncate WAL mid-record
	f.Add(false, uint16(130), uint8(0), uint8(0), true)     // truncate data mid-page
	f.Fuzz(func(t *testing.T, inWAL bool, off uint16, n uint8, mask uint8, truncate bool) {
		dir := t.TempDir()
		want := buildStore(t, dir)

		path := filepath.Join(dir, "data")
		if inWAL {
			path = activeSeg(t, dir)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if truncate {
			if int(off) < len(b) {
				b = b[:off]
			}
		} else {
			if mask == 0 {
				mask = 0xff
			}
			for i := 0; i <= int(n); i++ {
				p := int(off) + i
				if p >= len(b) {
					break
				}
				b[p] ^= mask
			}
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}

		g, err := persist.Open(dir, fastOpts())
		if err != nil {
			// Rejection must carry the typed sentinel.
			if !errors.Is(err, persist.ErrCorrupt) {
				t.Fatalf("Open rejected with untyped error: %v", err)
			}
			return
		}
		defer g.Close()
		// Repair must be exact: every committed word, no silent drift.
		for a, w := range want {
			if got, ok := g.Recovered(a); !ok || got != w {
				t.Fatalf("silent corruption: Recovered(%d) = %d,%v, want %d,true (mutation: wal=%v off=%d n=%d mask=%#x trunc=%v)",
					a, got, ok, w, inWAL, off, n, mask, truncate)
			}
		}
		// And the store must be writable again (unless degraded, which
		// a pure file mutation cannot cause).
		if err := g.Commit([]nvm.WordUpdate{{Addr: 0, Val: 99}}); err != nil {
			t.Fatalf("post-recovery Commit: %v", err)
		}
	})
}
