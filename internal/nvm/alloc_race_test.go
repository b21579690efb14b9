package nvm

import (
	"fmt"
	"sync"
	"testing"
)

// TestAllocGrowthUnderLoad is the -race regression test for allocation
// concurrent with hot-path traffic: allocators grow the memory (forcing
// copy-on-write chunk-table publications in every shard) while readers,
// writers and persisting processes hammer words that were allocated
// before the test started. The old implementation served every access
// through one global mutex, which hid any growth/access race by
// construction; the sharded memory's lock-free wordAt must stay safe
// while chunk tables are being republished under it.
func TestAllocGrowthUnderLoad(t *testing.T) {
	m := New(WithMode(Buffered))
	stable := m.AllocArray("stable", 128, 0)

	const (
		allocators = 2
		perAlloc   = 600 // spans several chunk-table growths per shard
		accessors  = 4
		accessOps  = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < allocators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perAlloc; i++ {
				if i%16 == 0 {
					m.AllocArray(fmt.Sprintf("arr%d-%d", g, i), 8, uint64(i))
				} else {
					a := m.Alloc(fmt.Sprintf("g%d-%d", g, i), uint64(i))
					if got := m.Read(a); got != uint64(i) {
						t.Errorf("fresh word %d reads %d, want %d", a, got, i)
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < accessors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := g + 1
			a := stable[g*len(stable)/accessors]
			for i := 0; i < accessOps; i++ {
				m.WriteAt(a, uint64(i), p)
				m.FlushAt(a, p)
				m.FenceAt(p)
				if got := m.Durable(a); got != uint64(i) {
					t.Errorf("accessor %d: Durable = %d, want %d", g, got, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Growth must never have moved or re-initialised a settled word.
	for g := 0; g < accessors; g++ {
		a := stable[g*len(stable)/accessors]
		if got := m.Durable(a); got != accessOps-1 {
			t.Errorf("accessor %d word: Durable = %d, want %d", g, got, accessOps-1)
		}
	}
	if m.Size() < 128+allocators*perAlloc {
		t.Errorf("Size = %d, want at least %d", m.Size(), 128+allocators*perAlloc)
	}
}
