// Package trace is the structured observability layer of the repository:
// a low-overhead event stream threaded through the execution model (package
// proc), the simulated NVRAM (package nvm) and the experiment harness.
//
// The history recorder (package history) captures the *linearizability*
// view of a run — invocations and responses to be checked against the NRL
// condition. This package captures the *performance and recovery* view:
// every operation lifecycle transition (invoke, response, crash, recover,
// recover-done) and every memory primitive (read, write, cas, tas, faa,
// flush, fence), each attributed to the issuing process, object and
// nesting depth. Profiles built from the stream (see profile.go) answer
// questions the history cannot: where recovery work concentrates, how many
// flushes and fences a completed operation costs, how deep crashes nest.
//
// Sinks implement the Tracer interface. Three are provided:
//
//   - Nop: discards events. A nil Tracer in proc.Config disables event
//     construction entirely, and Nop normalizes to nil at install (see
//     Active), so tracing to Nop costs what tracing off does.
//   - Ring: a bounded in-memory ring buffer, for building profiles.
//   - JSONL: a buffered writer emitting one JSON object per line.
//
// Multi fans one stream out to several sinks (e.g. Ring + JSONL).
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Kind discriminates trace events.
type Kind uint8

const (
	// Invoke marks the start of a (possibly nested) recoverable operation.
	Invoke Kind = iota + 1
	// Response marks an operation completing on its normal path.
	Response
	// Crash marks a process crash, attributed to the inner-most pending
	// operation; Line carries the frame's LI_p at the moment of the crash.
	Crash
	// Recover marks the system invoking a frame's recovery function;
	// Attempt counts how many times this frame's recovery has been entered.
	Recover
	// RecoverDone marks an operation completing through its recovery
	// function (the recovery-path analogue of Response).
	RecoverDone
	// MemRead .. MemFence are NVRAM primitives, attributed to the issuing
	// process/object when known (see Attr).
	MemRead
	MemWrite // store to an NVRAM word
	MemCAS   // compare-and-swap on an NVRAM word
	MemTAS   // test-and-set on an NVRAM word
	MemFAA   // fetch-and-add on an NVRAM word
	MemFlush // CLWB analogue: capture a word for the next fence
	MemFence // SFENCE analogue: drain the issuing process's captures
	// MemCommit marks a durable backend making a fence's flushed words
	// durable for real (pwrite+fsync): Ret is the number of words in the
	// batch, Attempt the I/O retries the commit needed, DurUS its
	// wall-clock latency in microseconds.
	MemCommit
	// MemDegraded marks the memory degrading to read-only after
	// exhausting its I/O retry budget; Name carries the cause.
	MemDegraded
)

var kindNames = map[Kind]string{
	Invoke:      "invoke",
	Response:    "response",
	Crash:       "crash",
	Recover:     "recover",
	RecoverDone: "recover-done",
	MemRead:     "mem-read",
	MemWrite:    "mem-write",
	MemCAS:      "mem-cas",
	MemTAS:      "mem-tas",
	MemFAA:      "mem-faa",
	MemFlush:    "mem-flush",
	MemFence:    "mem-fence",
	MemCommit:   "mem-commit",
	MemDegraded: "mem-degraded",
}

// String returns the kind's wire name (e.g. "recover-done").
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalJSON encodes the kind as its wire name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a wire name back into a Kind.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for kk, name := range kindNames {
		if name == s {
			*k = kk
			return nil
		}
	}
	return fmt.Errorf("trace: unknown event kind %q", s)
}

// Mem reports whether k is a memory-primitive kind. The backend
// lifecycle kinds MemCommit and MemDegraded are not primitives: they
// describe what the storage layer did with already-counted primitives.
func (k Kind) Mem() bool { return k >= MemRead && k <= MemFence }

// Event is one trace event. Which fields are meaningful depends on Kind;
// unused fields are zero and omitted from the JSON encoding where
// possible. Events are plain values with one caveat: Args, the only
// reference field, may alias the emitting process's frame arena, whose
// storage is reused by later invocations. It is valid for the duration
// of Emit; a sink that retains events past the call must copy it (Ring
// does, JSONL serializes inline).
type Event struct {
	Kind Kind `json:"kind"`
	// P is the issuing process id (1-based); 0 means unattributed (a raw
	// memory access outside any process context).
	P int `json:"p,omitempty"`
	// Obj and Op name the operation the event belongs to. For memory
	// events issued outside an operation, Obj is the root of the word's
	// allocation name (see Root) and Op is empty.
	Obj string `json:"obj,omitempty"`
	Op  string `json:"op,omitempty"`
	// Depth is the nesting depth of the operation (1 = top level).
	Depth int `json:"depth,omitempty"`
	// Line is the frame's LI_p: for Crash/Recover, the line of the last
	// body instruction begun before the crash.
	Line int `json:"line,omitempty"`
	// Attempt counts recovery attempts of the frame: on Crash, attempts
	// completed so far; on Recover, the attempt now beginning; on
	// Response/RecoverDone, total recovery attempts the operation needed
	// (0 = never crashed).
	Attempt int `json:"attempt,omitempty"`
	// PStep and GStep are the per-process and system-wide step counters at
	// emission time (operation lifecycle events only).
	PStep uint64 `json:"pstep,omitempty"`
	GStep uint64 `json:"gstep,omitempty"`
	// Addr is the NVRAM address of a memory event; -1 for non-memory
	// events and for Fence (which has no single target).
	Addr int32 `json:"addr"`
	// Name is the allocation name of the word a MemFlush targets, or the
	// cause of a MemDegraded event.
	Name string `json:"name,omitempty"`
	// Args are the operation arguments (Invoke only).
	Args []uint64 `json:"args,omitempty"`
	// Ret is the operation response (Response/RecoverDone) or the value
	// read/written/returned by a memory primitive. For MemCommit it is
	// the number of words the backend committed.
	Ret uint64 `json:"ret,omitempty"`
	// DurUS is the wall-clock duration of a backend commit in
	// microseconds (MemCommit only).
	DurUS uint64 `json:"dur_us,omitempty"`
}

// Attr carries the issuing-operation attribution a memory primitive is
// tagged with. The zero Attr means "unattributed": the memory falls back
// to attributing by the target word's allocation name.
type Attr struct {
	P     int
	Obj   string
	Op    string
	Depth int
}

// Tracer receives events. Implementations must be safe for concurrent
// use: under the free scheduler, processes emit in parallel.
type Tracer interface {
	Emit(e Event)
}

// Root returns the root object of a dotted/indexed name: everything before
// the first '.' or '[' ("ctr.R[1]" -> "ctr", "log.rec[3]" -> "log"). It is
// how profiles fold the per-component names of nested base objects into
// their top-level composite object.
func Root(name string) string {
	if i := strings.IndexAny(name, ".["); i >= 0 {
		return name[:i]
	}
	return name
}

// Nop discards all events. Installation points (proc.Config.Tracer,
// nvm.Memory.SetTracer) normalize it to nil via Active, so a Nop-traced
// system takes the same no-event fast path as an untraced one — "tracing
// off" and "tracing to Nop" cost exactly the same.
type Nop struct{}

// Emit implements Tracer.
func (Nop) Emit(Event) {}

// Active returns the tracer a component should actually dispatch to: nil
// for nil or Nop (both mean "don't construct events"), t unchanged
// otherwise. Emission sites guard with a plain nil check; this keeps the
// Nop sink at literal zero cost rather than event-construction cost.
func Active(t Tracer) Tracer {
	if t == nil {
		return nil
	}
	if _, ok := t.(Nop); ok {
		return nil
	}
	return t
}

// Multi fans events out to every member tracer, in order.
type Multi []Tracer

// Emit implements Tracer.
func (m Multi) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}

// Ring is a bounded in-memory sink. When full it overwrites the oldest
// events, so it always holds the most recent window of the run; Dropped
// reports how many events were overwritten.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	total uint64
}

// DefaultRingCapacity is the capacity NewRing applies when given n <= 0.
const DefaultRingCapacity = 1 << 16

// NewRing returns a ring buffer holding the last n events (n <= 0 selects
// DefaultRingCapacity).
func NewRing(n int) *Ring {
	if n <= 0 {
		n = DefaultRingCapacity
	}
	return &Ring{buf: make([]Event, 0, n)}
}

// Emit implements Tracer. The ring retains events past the call, so it
// copies Args — the only reference field, and one whose backing storage
// the emitting process's frame arena reuses across invocations.
func (r *Ring) Emit(e Event) {
	if len(e.Args) > 0 {
		e.Args = append([]uint64(nil), e.Args...)
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.total%uint64(cap(r.buf))] = e
	}
	r.total++
	r.mu.Unlock()
}

// Total reports how many events have been emitted into the ring.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped reports how many events were overwritten by newer ones.
func (r *Ring) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total <= uint64(cap(r.buf)) {
		return 0
	}
	return r.total - uint64(cap(r.buf))
}

// Events returns the buffered events in emission order (oldest first).
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total <= uint64(cap(r.buf)) {
		out := make([]Event, len(r.buf))
		copy(out, r.buf)
		return out
	}
	head := int(r.total % uint64(cap(r.buf)))
	out := make([]Event, 0, cap(r.buf))
	out = append(out, r.buf[head:]...)
	out = append(out, r.buf[:head]...)
	return out
}

// Reset discards all buffered events and zeroes the counters.
func (r *Ring) Reset() {
	r.mu.Lock()
	r.buf = r.buf[:0]
	r.total = 0
	r.mu.Unlock()
}

// JSONL writes one JSON object per event, one event per line, through a
// buffered writer. Write errors are sticky: the first one is retained
// (see Err) and subsequent events are dropped. Call Close (or Flush) to
// drain the buffer before reading the output.
type JSONL struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	c   io.Closer
	err error
}

// NewJSONL returns a JSONL sink writing to w. If w is an io.Closer,
// Close closes it after flushing.
func NewJSONL(w io.Writer) *JSONL {
	t := &JSONL{bw: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

// Emit implements Tracer.
func (t *JSONL) Emit(e Event) {
	b, err := json.Marshal(e)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.bw.Write(b); err != nil {
		t.err = err
		return
	}
	if err := t.bw.WriteByte('\n'); err != nil {
		t.err = err
	}
}

// Flush drains the buffer and returns the sticky error, if any.
func (t *JSONL) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.bw.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// Close flushes and, if the underlying writer is a Closer, closes it.
func (t *JSONL) Close() error {
	err := t.Flush()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.c != nil {
		if cerr := t.c.Close(); cerr != nil && t.err == nil {
			t.err = cerr
		}
		t.c = nil
	}
	if t.err != nil {
		return t.err
	}
	return err
}

// Err returns the sticky write/encode error, if any.
func (t *JSONL) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
