package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"nrl/internal/trace"
)

// TestReadJSONLRoundTrip: a cleanly closed stream reads back exactly.
func TestReadJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	want := []trace.Event{
		{Kind: trace.Invoke, P: 1, Obj: "ctr", Op: "Inc", Depth: 1, Addr: -1, Args: []uint64{7}},
		{Kind: trace.MemWrite, P: 1, Obj: "ctr", Op: "Inc", Depth: 1, Addr: 3, Ret: 7},
		{Kind: trace.Response, P: 1, Obj: "ctr", Op: "Inc", Depth: 1, Addr: -1, Ret: 8},
	}
	for _, e := range want {
		sink.Emit(e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	got, note, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if note != "" {
		t.Errorf("unexpected truncation note %q", note)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].Ret != want[i].Ret || got[i].Obj != want[i].Obj {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestReadJSONLTruncatedTail: a SIGKILL mid-write leaves half a line;
// the events before it must survive, with a note, without error.
func TestReadJSONLTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	for i := 0; i < 3; i++ {
		sink.Emit(trace.Event{Kind: trace.MemFence, P: 1, Addr: -1})
	}
	sink.Flush()
	full := buf.String()
	// Cut mid-way through the final line, as a torn write would.
	cut := full[:len(full)-10]
	events, note, err := trace.ReadJSONL(strings.NewReader(cut))
	if err != nil {
		t.Fatalf("truncated tail errored: %v", err)
	}
	if len(events) != 2 {
		t.Errorf("survived events = %d, want 2", len(events))
	}
	if !strings.Contains(note, "truncated") {
		t.Errorf("note = %q, want truncation note", note)
	}

	// The same damage mid-stream IS corruption.
	lines := strings.SplitAfter(full, "\n")
	corrupt := lines[0][:len(lines[0])-10] + "\n" + lines[1] + lines[2]
	if _, _, err := trace.ReadJSONL(strings.NewReader(corrupt)); err == nil {
		t.Error("mid-stream damage did not error")
	}
}

// TestReadJSONLEmpty: an empty stream is clean, not truncated.
func TestReadJSONLEmpty(t *testing.T) {
	events, note, err := trace.ReadJSONL(strings.NewReader(""))
	if err != nil || note != "" || len(events) != 0 {
		t.Fatalf("empty stream = %d events, note %q, err %v", len(events), note, err)
	}
}
