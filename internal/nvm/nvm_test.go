package nvm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAllocAndName(t *testing.T) {
	m := New()
	a := m.Alloc("x", 7)
	b := m.Alloc("y", 0)
	if a == b {
		t.Fatalf("Alloc returned duplicate addresses: %v", a)
	}
	if got := m.Read(a); got != 7 {
		t.Errorf("Read(a) = %d, want 7", got)
	}
	if got := m.Read(b); got != 0 {
		t.Errorf("Read(b) = %d, want 0", got)
	}
	if got := m.Name(a); got != "x" {
		t.Errorf("Name(a) = %q, want %q", got, "x")
	}
	if got := m.Size(); got != 2 {
		t.Errorf("Size() = %d, want 2", got)
	}
}

// TestAllocArray checks addresses, initial values and names. The large
// case spans one- to four-digit indices, several chunks of every shard
// and a second array behind a first, so each word's name must be the
// right slice of the array's one name buffer.
func TestAllocArray(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
	}{{"r", 4}, {"q.R", 1000}, {"big", 2*ShardCount*chunkWords + 37}} {
		m := New()
		m.Alloc("head", 0)
		addrs := m.AllocArray(tc.name, tc.n, 9)
		if len(addrs) != tc.n {
			t.Fatalf("AllocArray returned %d addrs, want %d", len(addrs), tc.n)
		}
		seen := make(map[Addr]bool)
		for i, a := range addrs {
			if seen[a] {
				t.Fatalf("duplicate address %v", a)
			}
			seen[a] = true
			if got := m.Read(a); got != 9 {
				t.Errorf("Read(%s addrs[%d]) = %d, want 9", tc.name, i, got)
			}
			want := fmt.Sprintf("%s[%d]", tc.name, i)
			if got := m.Name(a); got != want {
				t.Fatalf("Name(addrs[%d]) = %q, want %q", i, got, want)
			}
		}
		if got := m.Size(); got != tc.n+1 {
			t.Errorf("Size() = %d, want %d", got, tc.n+1)
		}
	}
}

// TestStatStripeLayout pins the counter stripes to whole 128-byte
// blocks, so a field added to Stats can never put two processes'
// counters on one cache line, checks that no two stripes' counters
// share a line in an allocated memory, and pins which stripe a pid
// counts into.
func TestStatStripeLayout(t *testing.T) {
	if size := unsafe.Sizeof(statStripe{}); size%128 != 0 {
		t.Errorf("statStripe is %d bytes, want a multiple of 128", size)
	}
	m := New()
	for i := 1; i < statStripes; i++ {
		prevEnd := uintptr(unsafe.Pointer(&m.stripes[i-1].Stats)) + unsafe.Sizeof(Stats{}) - 1
		start := uintptr(unsafe.Pointer(&m.stripes[i].Stats))
		if prevEnd/64 >= start/64 {
			t.Errorf("stripes %d and %d share cache line %#x", i-1, i, start/64*64)
		}
	}
	a := m.Alloc("a", 0)
	m.Write(a, 1)
	for _, p := range []int{1, 2, 17} {
		m.WriteAt(a, 1, p)
	}
	for i, want := range map[int]uint64{0: 1, 1: 2, 2: 1} {
		if got := m.stripes[i].writes.Load(); got != want {
			t.Errorf("stripe %d counted %d writes, want %d", i, got, want)
		}
	}
	if got := m.Stats().Writes; got != 4 {
		t.Errorf("Stats().Writes = %d, want 4", got)
	}
}

func TestWriteRead(t *testing.T) {
	for _, mode := range []Mode{ADR, Buffered} {
		t.Run(mode.String(), func(t *testing.T) {
			m := New(WithMode(mode))
			a := m.Alloc("a", 0)
			m.Write(a, 42)
			if got := m.Read(a); got != 42 {
				t.Errorf("Read = %d, want 42", got)
			}
		})
	}
}

func TestCAS(t *testing.T) {
	for _, mode := range []Mode{ADR, Buffered} {
		t.Run(mode.String(), func(t *testing.T) {
			m := New(WithMode(mode))
			a := m.Alloc("a", 5)
			if m.CAS(a, 4, 9) {
				t.Error("CAS(4,9) on value 5 succeeded, want failure")
			}
			if got := m.Read(a); got != 5 {
				t.Errorf("value after failed CAS = %d, want 5", got)
			}
			if !m.CAS(a, 5, 9) {
				t.Error("CAS(5,9) on value 5 failed, want success")
			}
			if got := m.Read(a); got != 9 {
				t.Errorf("value after successful CAS = %d, want 9", got)
			}
		})
	}
}

func TestTAS(t *testing.T) {
	for _, mode := range []Mode{ADR, Buffered} {
		t.Run(mode.String(), func(t *testing.T) {
			m := New(WithMode(mode))
			a := m.Alloc("t", 0)
			if got := m.TAS(a); got != 0 {
				t.Errorf("first TAS = %d, want 0", got)
			}
			if got := m.TAS(a); got != 1 {
				t.Errorf("second TAS = %d, want 1", got)
			}
			if got := m.Read(a); got != 1 {
				t.Errorf("value after TAS = %d, want 1", got)
			}
		})
	}
}

func TestFAA(t *testing.T) {
	for _, mode := range []Mode{ADR, Buffered} {
		t.Run(mode.String(), func(t *testing.T) {
			m := New(WithMode(mode))
			a := m.Alloc("c", 10)
			if got := m.FAA(a, 5); got != 10 {
				t.Errorf("FAA returned %d, want previous value 10", got)
			}
			if got := m.Read(a); got != 15 {
				t.Errorf("value after FAA = %d, want 15", got)
			}
		})
	}
}

func TestModeString(t *testing.T) {
	tests := []struct {
		give Mode
		want string
	}{
		{ADR, "ADR"},
		{Buffered, "Buffered"},
		{Mode(0), "Mode(0)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(tt.give), got, tt.want)
		}
	}
}

func TestBufferedPersistence(t *testing.T) {
	m := New(WithMode(Buffered))
	a := m.Alloc("a", 1)

	// A store without flush+fence is lost by a system crash.
	m.Write(a, 2)
	if got := m.Durable(a); got != 1 {
		t.Errorf("Durable before flush = %d, want 1", got)
	}
	m.CrashAll()
	if got := m.Read(a); got != 1 {
		t.Errorf("Read after crash of unflushed store = %d, want 1", got)
	}

	// Flush without fence is still not durable.
	m.Write(a, 3)
	m.Flush(a)
	m.CrashAll()
	if got := m.Read(a); got != 1 {
		t.Errorf("Read after crash of fenceless flush = %d, want 1", got)
	}

	// Flush + fence makes the value durable.
	m.Write(a, 4)
	m.Flush(a)
	m.Fence()
	if got := m.Durable(a); got != 4 {
		t.Errorf("Durable after flush+fence = %d, want 4", got)
	}
	m.CrashAll()
	if got := m.Read(a); got != 4 {
		t.Errorf("Read after crash of persisted store = %d, want 4", got)
	}
}

func TestBufferedFlushCapturesValueAtFlushTime(t *testing.T) {
	m := New(WithMode(Buffered))
	a := m.Alloc("a", 0)
	m.Write(a, 5)
	m.Flush(a)
	m.Write(a, 6) // after the flush; not captured by it
	m.Fence()
	if got := m.Durable(a); got != 5 {
		t.Errorf("Durable = %d, want the flush-time value 5", got)
	}
	m.CrashAll()
	if got := m.Read(a); got != 5 {
		t.Errorf("Read after crash = %d, want 5", got)
	}
}

func TestPersistHelper(t *testing.T) {
	m := New(WithMode(Buffered))
	a := m.Alloc("a", 0)
	m.Write(a, 11)
	m.Persist(a)
	m.CrashAll()
	if got := m.Read(a); got != 11 {
		t.Errorf("Read after Persist+crash = %d, want 11", got)
	}
}

func TestADRCrashAllIsNoOp(t *testing.T) {
	m := New() // ADR
	a := m.Alloc("a", 0)
	m.Write(a, 9)
	m.CrashAll()
	if got := m.Read(a); got != 9 {
		t.Errorf("ADR Read after CrashAll = %d, want 9", got)
	}
	if got := m.Durable(a); got != 9 {
		t.Errorf("ADR Durable = %d, want 9", got)
	}
}

func TestBufferedRMWAreVisibleButVolatile(t *testing.T) {
	m := New(WithMode(Buffered))
	a := m.Alloc("a", 0)
	c := m.Alloc("c", 0)
	tt := m.Alloc("t", 0)

	if !m.CAS(a, 0, 7) {
		t.Fatal("CAS failed")
	}
	m.FAA(c, 3)
	m.TAS(tt)
	m.CrashAll()
	for _, tc := range []struct {
		name string
		addr Addr
	}{{"cas", a}, {"faa", c}, {"tas", tt}} {
		if got := m.Read(tc.addr); got != 0 {
			t.Errorf("%s target after crash = %d, want 0 (RMW was not persisted)", tc.name, got)
		}
	}
}

func TestStats(t *testing.T) {
	m := New()
	a := m.Alloc("a", 0)
	m.Read(a)
	m.Read(a)
	m.Write(a, 1)
	m.CAS(a, 1, 2)
	m.TAS(a)
	m.FAA(a, 1)
	m.Flush(a)
	m.Fence()
	s := m.Stats()
	if s.Reads != 2 || s.Writes != 1 || s.CASes != 1 || s.TASes != 1 || s.FAAs != 1 {
		t.Errorf("unexpected op counts: %+v", s)
	}
	if s.Flushes != 1 || s.Fences != 1 {
		t.Errorf("unexpected persistence counts: %+v", s)
	}
	if got := s.Total(); got != 6 {
		t.Errorf("Total() = %d, want 6", got)
	}
	m.ResetStats()
	if got := m.Stats().Total(); got != 0 {
		t.Errorf("Total() after reset = %d, want 0", got)
	}
}

// TestConcurrentFAA checks atomicity of FAA under real goroutine contention.
func TestConcurrentFAA(t *testing.T) {
	for _, mode := range []Mode{ADR, Buffered} {
		t.Run(mode.String(), func(t *testing.T) {
			m := New(WithMode(mode))
			a := m.Alloc("c", 0)
			const (
				workers = 8
				perW    = 1000
			)
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < perW; j++ {
						m.FAA(a, 1)
					}
				}()
			}
			wg.Wait()
			if got := m.Read(a); got != workers*perW {
				t.Errorf("counter = %d, want %d", got, workers*perW)
			}
		})
	}
}

// TestConcurrentTASUniqueWinner checks that exactly one goroutine wins TAS.
func TestConcurrentTASUniqueWinner(t *testing.T) {
	m := New()
	a := m.Alloc("t", 0)
	const workers = 16
	wins := make(chan int, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if m.TAS(a) == 0 {
				wins <- id
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	n := 0
	for range wins {
		n++
	}
	if n != 1 {
		t.Errorf("got %d TAS winners, want exactly 1", n)
	}
}

// TestQuickMemoryMatchesModel applies a random sequence of operations to a
// Memory and to a plain map model, checking they agree at every step.
func TestQuickMemoryMatchesModel(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New()
		const cells = 4
		addrs := m.AllocArray("w", cells, 0)
		model := make([]uint64, cells)
		for _, b := range opsRaw {
			i := int(b) % cells
			v := uint64(rng.Intn(8))
			switch int(b/8) % 5 {
			case 0:
				if got := m.Read(addrs[i]); got != model[i] {
					return false
				}
			case 1:
				m.Write(addrs[i], v)
				model[i] = v
			case 2:
				ok := m.CAS(addrs[i], model[i], v)
				if !ok {
					return false // CAS with the model's value must succeed
				}
				model[i] = v
			case 3:
				if got := m.TAS(addrs[i]); got != model[i] {
					return false
				}
				model[i] = 1
			case 4:
				if got := m.FAA(addrs[i], v); got != model[i] {
					return false
				}
				model[i] += v
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickBufferedDurability checks, for random write/flush/fence/crash
// sequences, that Read never observes a value other than the last written
// or last durable one, and that after a crash Read equals the durable value
// predicted by a reference model.
func TestQuickBufferedDurability(t *testing.T) {
	f := func(opsRaw []byte) bool {
		m := New(WithMode(Buffered))
		a := m.Alloc("a", 0)
		var cur, durable, flushCapture uint64
		flushPending := false
		next := uint64(1)
		for _, b := range opsRaw {
			switch int(b) % 4 {
			case 0: // write
				cur = next
				next++
				m.Write(a, cur)
			case 1: // flush
				m.Flush(a)
				flushCapture = cur
				flushPending = true
			case 2: // fence
				m.Fence()
				if flushPending {
					durable = flushCapture
					flushPending = false
				}
			case 3: // system crash
				m.CrashAll()
				cur = durable
				flushPending = false
			}
			if got := m.Read(a); got != cur {
				return false
			}
			if got := m.Durable(a); got != durable {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
