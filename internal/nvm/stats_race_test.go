package nvm

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestStatsConcurrentSampling hammers Stats and ResetStats while memory
// operations are in flight. It asserts nothing beyond "no data race and
// no torn counter" — the snapshot consistency contract (see the Stats
// type documentation) deliberately leaves cross-counter atomicity and
// reset-interval attribution unspecified. Run under -race.
func TestStatsConcurrentSampling(t *testing.T) {
	mem := New()
	addrs := mem.AllocArray("x", 8, 0)
	const iters = 2000
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			a := addrs[g%len(addrs)]
			for i := 0; i < iters; i++ {
				mem.Write(a, uint64(i))
				mem.Read(a)
				mem.CAS(a, uint64(i), uint64(i)+1)
				mem.TAS(a)
				mem.FAA(a, 1)
				mem.Persist(a)
			}
		}(g)
	}
	var stop atomic.Bool
	var samplers sync.WaitGroup
	samplers.Add(2)
	go func() {
		defer samplers.Done()
		for !stop.Load() {
			s := mem.Stats()
			// Counters only ever grow between resets; an impossible value
			// here would mean a torn or corrupted load.
			if s.Reads > 1<<40 {
				t.Error("impossible read count")
				return
			}
			mem.ResetStats()
		}
	}()
	go func() {
		defer samplers.Done()
		for !stop.Load() {
			_ = mem.Stats()
		}
	}()
	writers.Wait()
	stop.Store(true)
	samplers.Wait()
}

// TestDrainStatsExactness: every increment must be attributed to exactly
// one drained interval, even with drains racing the operations. This is
// the property DrainStats adds over a Stats+ResetStats pair. Raw writers
// count into stripe 0 and attributed ones into their own process's
// stripe (pid 17 wraps onto pid 1's), and the attributed writers flush
// and fence too, so the fence-word counter is covered as well.
func TestDrainStatsExactness(t *testing.T) {
	mem := New(WithMode(Buffered))
	addrs := mem.AllocArray("x", 4, 0)
	pids := []int{0, 1, 2, 17}
	own := mem.AllocArray("p", len(pids), 0)
	const (
		writers         = 4
		writesPerWriter = 5000
		attributedIters = 2000
	)
	var writersDone atomic.Bool
	var total StatsSnapshot
	add := func(s StatsSnapshot) {
		total.Writes += s.Writes
		total.CASes += s.CASes
		total.Flushes += s.Flushes
		total.Fences += s.Fences
		total.FenceWords += s.FenceWords
	}
	var drainer sync.WaitGroup
	drainer.Add(1)
	go func() {
		defer drainer.Done()
		for !writersDone.Load() {
			add(mem.DrainStats())
		}
	}()
	var ww sync.WaitGroup
	for g := 0; g < writers; g++ {
		ww.Add(1)
		go func(g int) {
			defer ww.Done()
			a := addrs[g%len(addrs)]
			for i := 0; i < writesPerWriter; i++ {
				mem.Write(a, uint64(i))
			}
		}(g)
	}
	for k, p := range pids {
		ww.Add(1)
		go func(a Addr, p int) {
			defer ww.Done()
			for i := 0; i < attributedIters; i++ {
				mem.WriteAt(a, uint64(i), p)
				if !mem.CASAt(a, uint64(i), uint64(i)+1, p) {
					t.Errorf("p%d: CAS on its own word failed", p)
					return
				}
				mem.FlushAt(a, p)
				mem.FenceAt(p)
			}
		}(own[k], p)
	}
	ww.Wait()
	writersDone.Store(true)
	drainer.Wait()
	add(mem.DrainStats()) // whatever the racing drains left behind
	attributed := uint64(len(pids) * attributedIters)
	want := StatsSnapshot{
		Writes:     uint64(writers*writesPerWriter) + attributed,
		CASes:      attributed,
		Flushes:    attributed,
		Fences:     attributed,
		FenceWords: attributed,
	}
	if total != want {
		t.Errorf("drained %+v in total, want %+v (lost or double-counted increments)", total, want)
	}
}
