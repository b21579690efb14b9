package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestKindStrings(t *testing.T) {
	kinds := []Kind{
		Invoke, Response, Crash, Recover, RecoverDone,
		MemRead, MemWrite, MemCAS, MemTAS, MemFAA, MemFlush, MemFence,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind String() = %q", got)
	}
}

func TestKindJSONRoundTrip(t *testing.T) {
	for k := Invoke; k <= MemFence; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != k {
			t.Errorf("round trip %v -> %s -> %v", k, b, back)
		}
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"bogus"`), &k); err == nil {
		t.Error("unmarshal accepted an unknown kind name")
	}
}

func TestKindMem(t *testing.T) {
	for k := Invoke; k <= RecoverDone; k++ {
		if k.Mem() {
			t.Errorf("%v.Mem() = true", k)
		}
	}
	for k := MemRead; k <= MemFence; k++ {
		if !k.Mem() {
			t.Errorf("%v.Mem() = false", k)
		}
	}
}

func TestRoot(t *testing.T) {
	cases := map[string]string{
		"ctr":        "ctr",
		"ctr.R[1]":   "ctr",
		"log.rec[3]": "log",
		"x[0]":       "x",
		"":           "",
		"a.b.c":      "a",
	}
	for in, want := range cases {
		if got := Root(in); got != want {
			t.Errorf("Root(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRingBasic(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 3; i++ {
		r.Emit(Event{Kind: MemRead, Ret: uint64(i)})
	}
	if r.Total() != 3 || r.Dropped() != 0 {
		t.Fatalf("Total=%d Dropped=%d, want 3,0", r.Total(), r.Dropped())
	}
	ev := r.Events()
	if len(ev) != 3 {
		t.Fatalf("len(Events) = %d, want 3", len(ev))
	}
	for i, e := range ev {
		if e.Ret != uint64(i) {
			t.Errorf("event %d Ret = %d", i, e.Ret)
		}
	}
}

func TestRingWraps(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Ret: uint64(i)})
	}
	if r.Total() != 10 || r.Dropped() != 6 {
		t.Fatalf("Total=%d Dropped=%d, want 10,6", r.Total(), r.Dropped())
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("len(Events) = %d, want 4", len(ev))
	}
	for i, e := range ev {
		if want := uint64(6 + i); e.Ret != want {
			t.Errorf("event %d Ret = %d, want %d (oldest-first order)", i, e.Ret, want)
		}
	}
	r.Reset()
	if r.Total() != 0 || len(r.Events()) != 0 {
		t.Error("Reset did not clear the ring")
	}
}

func TestRingDefaultCapacity(t *testing.T) {
	r := NewRing(0)
	if cap(r.buf) != DefaultRingCapacity {
		t.Errorf("cap = %d, want %d", cap(r.buf), DefaultRingCapacity)
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Emit(Event{Kind: MemWrite})
			}
		}()
	}
	wg.Wait()
	if r.Total() != 8000 {
		t.Errorf("Total = %d, want 8000", r.Total())
	}
}

func TestJSONLWritesOneEventPerLine(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	tr.Emit(Event{Kind: Invoke, P: 1, Obj: "ctr", Op: "INC", Depth: 1, Addr: -1, Args: []uint64{7}})
	tr.Emit(Event{Kind: MemRead, P: 1, Obj: "ctr", Addr: 3, Ret: 42})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("line 0 not valid JSON: %v", err)
	}
	if e.Kind != Invoke || e.P != 1 || e.Obj != "ctr" || len(e.Args) != 1 || e.Args[0] != 7 {
		t.Errorf("round-tripped event = %+v", e)
	}
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatalf("line 1 not valid JSON: %v", err)
	}
	if e.Kind != MemRead || e.Addr != 3 || e.Ret != 42 {
		t.Errorf("round-tripped event = %+v", e)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

func TestJSONLStickyError(t *testing.T) {
	tr := NewJSONL(&failWriter{n: 0})
	for i := 0; i < 100000; i++ { // enough to overflow the 64k buffer
		tr.Emit(Event{Kind: MemRead})
	}
	if tr.Err() == nil {
		t.Fatal("expected a sticky write error")
	}
	if err := tr.Close(); err == nil {
		t.Fatal("Close should report the sticky error")
	}
}

type closeRecorder struct {
	bytes.Buffer
	closed bool
}

func (c *closeRecorder) Close() error { c.closed = true; return nil }

func TestJSONLCloseClosesWriter(t *testing.T) {
	w := &closeRecorder{}
	tr := NewJSONL(w)
	tr.Emit(Event{Kind: MemFence, Addr: -1})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !w.closed {
		t.Error("Close did not close the underlying writer")
	}
	if !strings.Contains(w.String(), "mem-fence") {
		t.Errorf("output missing event: %q", w.String())
	}
}

func TestMultiFansOut(t *testing.T) {
	a, b := NewRing(8), NewRing(8)
	m := Multi{a, b}
	m.Emit(Event{Kind: Crash})
	if a.Total() != 1 || b.Total() != 1 {
		t.Errorf("Multi did not fan out: %d, %d", a.Total(), b.Total())
	}
}

func TestEventJSONOmitsEmptyFields(t *testing.T) {
	b, err := json.Marshal(Event{Kind: MemFence, Addr: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, field := range []string{"obj", "op", "args", "ret", "pstep", "gstep", "line", "attempt", "name", `"p"`} {
		if strings.Contains(s, field) {
			t.Errorf("empty field %s serialized: %s", field, s)
		}
	}
	if !strings.Contains(s, `"addr":-1`) {
		t.Errorf("addr should always be present: %s", s)
	}
}

func ExampleRing() {
	r := NewRing(16)
	r.Emit(Event{Kind: Invoke, P: 1, Obj: "ctr", Op: "INC", Depth: 1, Addr: -1})
	r.Emit(Event{Kind: Response, P: 1, Obj: "ctr", Op: "INC", Depth: 1, Addr: -1, Ret: 3})
	for _, e := range r.Events() {
		fmt.Printf("%s p%d %s.%s\n", e.Kind, e.P, e.Obj, e.Op)
	}
	// Output:
	// invoke p1 ctr.INC
	// response p1 ctr.INC
}
