package nvm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// refMemory is the reference model for the differential test: the
// sharded memory's intended semantics — per-process flush sets included
// — implemented the way the pre-shard memory was built, with one global
// mutex around a flat slice and zero clever machinery. If the striped
// banks, copy-on-write chunk tables, crash epochs or lock-free fast
// paths ever diverge observably from this model, the replay below
// catches it.
//
// (The legacy code's *locking* is kept; its *fence* semantics are not:
// the old fence scanned every word anyone had flushed, while the
// specification since the shard rewrite is that a fence drains exactly
// the issuing process's captures. The model encodes the specification.)
type refMemory struct {
	mu    sync.Mutex
	words []struct{ val, persisted uint64 }
	flush map[int][]struct {
		a Addr
		v uint64
	}
}

func newRefMemory() *refMemory {
	return &refMemory{flush: map[int][]struct {
		a Addr
		v uint64
	}{}}
}

func (r *refMemory) alloc(init uint64) Addr {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.words = append(r.words, struct{ val, persisted uint64 }{init, init})
	return Addr(len(r.words) - 1)
}

func (r *refMemory) write(a Addr, v uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.words[a].val = v
}

func (r *refMemory) cas(a Addr, old, new uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.words[a].val != old {
		return false
	}
	r.words[a].val = new
	return true
}

func (r *refMemory) tas(a Addr) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev := r.words[a].val
	r.words[a].val = 1
	return prev
}

func (r *refMemory) faa(a Addr, d uint64) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev := r.words[a].val
	r.words[a].val = prev + d
	return prev
}

func (r *refMemory) read(a Addr) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.words[a].val
}

func (r *refMemory) durable(a Addr) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.words[a].persisted
}

func (r *refMemory) flushAt(p int, a Addr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flush[p] = append(r.flush[p], struct {
		a Addr
		v uint64
	}{a, r.words[a].val})
}

func (r *refMemory) fence(p int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Applying captures in flush order makes the last capture of a
	// re-flushed word win, which is exactly the dedup rule the sharded
	// drain implements.
	for _, e := range r.flush[p] {
		r.words[e.a].persisted = e.v
	}
	r.flush[p] = r.flush[p][:0]
}

func (r *refMemory) crashAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.words {
		r.words[i].val = r.words[i].persisted
	}
	for p := range r.flush {
		r.flush[p] = r.flush[p][:0]
	}
}

// TestShardEquivalence replays seeded crash-campaign-style op scripts —
// allocations (growing the memory mid-script, across chunk boundaries),
// every primitive, per-process flush/fence traffic from several
// processes, re-flushes, fences of empty sets, and full-system crashes
// — against both the sharded memory and the single-lock reference
// model, requiring identical return values throughout and identical
// volatile and durable states at every crash, every fence, and the end.
func TestShardEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := New(WithMode(Buffered))
			ref := newRefMemory()

			const procs = 4
			var addrs []Addr
			addAddr := func(init uint64) {
				a := m.Alloc(fmt.Sprintf("w%d", len(addrs)), init)
				if b := ref.alloc(init); b != a {
					t.Fatalf("alloc address diverged: sharded %d, ref %d", a, b)
				}
				addrs = append(addrs, a)
			}
			// Seed enough words to span several shards and one chunk
			// boundary for the low shards.
			for i := 0; i < 40; i++ {
				addAddr(uint64(rng.Intn(5)))
			}

			checkState := func(step int, what string) {
				t.Helper()
				for _, a := range addrs {
					if got, want := m.Read(a), ref.read(a); got != want {
						t.Fatalf("step %d (%s): Read(%d) = %d, ref %d", step, what, a, got, want)
					}
					if got, want := m.Durable(a), ref.durable(a); got != want {
						t.Fatalf("step %d (%s): Durable(%d) = %d, ref %d", step, what, a, got, want)
					}
				}
			}

			const steps = 4000
			for i := 0; i < steps; i++ {
				p := 1 + rng.Intn(procs)
				a := addrs[rng.Intn(len(addrs))]
				switch op := rng.Intn(100); {
				case op < 25: // write
					v := uint64(rng.Intn(8))
					m.WriteAt(a, v, p)
					ref.write(a, v)
				case op < 40: // cas (old drawn from current value half the time)
					old := uint64(rng.Intn(8))
					if rng.Intn(2) == 0 {
						old = ref.read(a)
					}
					new := uint64(rng.Intn(8))
					if got, want := m.CASAt(a, old, new, p), ref.cas(a, old, new); got != want {
						t.Fatalf("step %d: CAS(%d,%d,%d) = %v, ref %v", i, a, old, new, got, want)
					}
				case op < 45: // tas
					if got, want := m.TASAt(a, p), ref.tas(a); got != want {
						t.Fatalf("step %d: TAS(%d) = %d, ref %d", i, a, got, want)
					}
				case op < 55: // faa
					d := uint64(1 + rng.Intn(4))
					if got, want := m.FAAAt(a, d, p), ref.faa(a, d); got != want {
						t.Fatalf("step %d: FAA(%d,%d) = %d, ref %d", i, a, d, got, want)
					}
				case op < 75: // flush (sometimes several before any fence)
					m.FlushAt(a, p)
					ref.flushAt(p, a)
				case op < 88: // fence (often of an empty or re-flushed set)
					m.FenceAt(p)
					ref.fence(p)
					checkState(i, "fence")
				case op < 92: // raw, unattributed flush+fence (bucket 0)
					m.Flush(a)
					ref.flushAt(0, a)
					m.Fence()
					ref.fence(0)
					checkState(i, "raw fence")
				case op < 96: // grow mid-script
					addAddr(uint64(rng.Intn(5)))
				default: // full-system crash
					m.CrashAll()
					ref.crashAll()
					checkState(i, "crash")
				}
			}
			checkState(steps, "final")

			// Every durable word must survive one last crash intact.
			m.CrashAll()
			ref.crashAll()
			checkState(steps+1, "final crash")
		})
	}
}
