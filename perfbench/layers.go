package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nrl/internal/nvm"
	"nrl/internal/proc"
)

// This file holds the traced run's wrappers. Each wraps one layer's entry
// point from outside — the crash injector every step is offered to, the
// nvm.Backend every fence commits through, the store's I/O failpoint
// hook — and counts or times what passes through. Untraced rounds install
// none of them.

// stepCounts is one process's view of the step stream, padded to a cache
// line. Only that process's goroutine writes it.
type stepCounts struct {
	steps, nested, recovery, await, core, crashes uint64
	_                                             [16]byte
}

func (s *stepCounts) addTo(t *stepCounts) {
	t.steps += s.steps
	t.nested += s.nested
	t.recovery += s.recovery
	t.await += s.await
	t.core += s.core
	t.crashes += s.crashes
}

// countingInjector offers every step to the workload's own injector and
// counts the steps by kind: nested (depth >= 2), recovery code, inside an
// await loop, and on a base object of package core.
type countingInjector struct {
	inner  proc.Injector
	counts []stepCounts // by process id
}

func newCountingInjector(inner proc.Injector, procs int) *countingInjector {
	return &countingInjector{inner: inner, counts: make([]stepCounts, procs+1)}
}

// ShouldCrash implements proc.Injector.
func (ci *countingInjector) ShouldCrash(pt proc.CrashPoint) bool {
	c := &ci.counts[pt.Proc]
	c.steps++
	if pt.Depth >= 2 {
		c.nested++
	}
	if pt.Recovery {
		c.recovery++
	}
	if pt.Awaiting {
		c.await++
	}
	if isCoreObject(pt.Obj) {
		c.core++
	}
	if ci.inner.ShouldCrash(pt) {
		c.crashes++
		return true
	}
	return false
}

// total sums the processes' counts. Call it only while the processes are
// quiescent.
func (ci *countingInjector) total() stepCounts {
	var t stepCounts
	for i := range ci.counts {
		ci.counts[i].addTo(&t)
	}
	return t
}

// isCoreObject reports whether a step's object is one of the recoverable
// base objects nested inside the composite objects, by the naming
// convention linearize.ConventionModels also relies on.
func isCoreObject(obj string) bool {
	for _, suf := range [...]string{".head", ".tail", ".cas", ".top", ".alloc"} {
		if strings.HasSuffix(obj, suf) {
			return true
		}
	}
	return strings.Contains(obj, ".R[")
}

// commitStats is what a timedBackend measured.
type commitStats struct {
	commits, words uint64
	busy           time.Duration
	lat            []uint32 // per commit, ns
}

// timedBackend times every Commit of the backend it wraps (including the
// wait for the backend's own lock) and counts the words committed.
// Backend.Commit carries no process id, so its spans are attributed to
// the ops in aggregate.
type timedBackend struct {
	inner nvm.Backend
	name  string
	spans *spanLog

	mu sync.Mutex
	st commitStats
}

func (b *timedBackend) Recovered(a nvm.Addr) (uint64, bool) { return b.inner.Recovered(a) }
func (b *timedBackend) Grow(a nvm.Addr, init uint64)        { b.inner.Grow(a, init) }
func (b *timedBackend) Close() error                        { return b.inner.Close() }

// Commit implements nvm.Backend.
func (b *timedBackend) Commit(batch []nvm.WordUpdate) error {
	t0 := time.Now()
	err := b.inner.Commit(batch)
	t1 := time.Now()
	d := t1.Sub(t0)
	b.mu.Lock()
	b.st.commits++
	b.st.words += uint64(len(batch))
	b.st.busy += d
	b.st.lat = append(b.st.lat, uint32(d))
	b.mu.Unlock()
	b.spans.add(span{Name: b.name + ".Commit", Start: b.spans.since(t0), End: b.spans.since(t1), Parent: aggregateParent})
	return err
}

// take returns what was measured since the last take and starts afresh.
func (b *timedBackend) take() commitStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.st
	b.st = commitStats{}
	return st
}

// ioCounts counts a store's physical I/O through its failpoint hook; the
// hook always lets the I/O proceed.
type ioCounts struct {
	walFsync, dataFsync, pwrite atomic.Uint64
}

func (c *ioCounts) hook(op string) error {
	switch op {
	case "wal.fsync":
		c.walFsync.Add(1)
	case "data.fsync":
		c.dataFsync.Add(1)
	case "wal.append", "data.pwrite", "bbox.pwrite":
		c.pwrite.Add(1)
	}
	return nil
}

// ioSnapshot is a plain copy of ioCounts.
type ioSnapshot struct{ walFsync, dataFsync, pwrite uint64 }

func (c *ioCounts) take() ioSnapshot {
	return ioSnapshot{c.walFsync.Swap(0), c.dataFsync.Swap(0), c.pwrite.Swap(0)}
}

func (s *ioSnapshot) add(t ioSnapshot) {
	s.walFsync += t.walFsync
	s.dataFsync += t.dataFsync
	s.pwrite += t.pwrite
}

// span is one traced interval. Op spans are roots (Parent 0) carrying the
// op's id; commit spans name aggregateParent, since a commit cannot be
// tied to the op that fenced it from outside the program.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op,omitempty"`
}

const aggregateParent = -1

// maxSpans bounds the spans kept in memory; the rest are counted only.
const maxSpans = 200_000

// maxOpSpansPerRound bounds the op spans one process keeps per round, so
// that rounds late in the run still leave spans behind.
const maxOpSpansPerRound = 2_000

// spanLog keeps spans in memory until the run ends. A nil log drops
// everything.
type spanLog struct {
	origin  time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func (l *spanLog) since(t time.Time) int64 {
	if l == nil {
		return 0
	}
	return int64(t.Sub(l.origin))
}

func (l *spanLog) add(ss ...span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	for _, s := range ss {
		if len(l.spans) < maxSpans {
			l.spans = append(l.spans, s)
		} else {
			l.dropped++
		}
	}
	l.mu.Unlock()
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
