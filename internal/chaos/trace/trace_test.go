package trace_test

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	schedtrace "nrl/internal/chaos/trace"
)

func sample() *schedtrace.Trace {
	return &schedtrace.Trace{
		Header: schedtrace.Header{
			Kind: schedtrace.KindCampaign, Workload: "counter",
			Procs: 2, Ops: 2, Runs: 3, Seed: 42,
		},
		Rounds: []schedtrace.Round{
			{Round: 0, Seed: 111, Sites: "p1@3", Crashes: 1, VTimeUS: 10},
			{Round: 1, Seed: 222, Crashes: 0},
			{Round: 2, Seed: 333, Sites: "p1@5,p2@9", Crashes: 2, Violation: "NRL violation: ..."},
		},
	}
}

// TestRoundTrip: Encode → Decode is the identity, and encoding is
// byte-stable across calls.
func TestRoundTrip(t *testing.T) {
	tr := sample()
	b1, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := tr.Encode()
	if string(b1) != string(b2) {
		t.Fatalf("encoding not deterministic")
	}
	got, err := schedtrace.Decode(b1)
	if err != nil {
		t.Fatal(err)
	}
	if d := schedtrace.Diff(tr, got); d != nil {
		t.Fatalf("roundtrip diverged: %v", d)
	}
	if got.Header.Version != schedtrace.Version {
		t.Fatalf("decoded version %q", got.Header.Version)
	}
}

// TestFileRoundTrip: WriteFile/ReadFile carry the trace intact.
func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	tr := sample()
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := schedtrace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := schedtrace.Diff(tr, got); d != nil {
		t.Fatalf("file roundtrip diverged: %v", d)
	}
}

// TestChecksumRejectsFlips: flipping any payload byte must surface as
// ErrCorrupt, not as silently different rounds.
func TestChecksumRejectsFlips(t *testing.T) {
	b, _ := sample().Encode()
	for _, off := range []int{0, len(b) / 3, len(b) / 2} {
		mut := append([]byte(nil), b...)
		mut[off] ^= 0x20 // case-flip inside JSON keeps it parseable more often than bit soup
		if _, err := schedtrace.Decode(mut); !errors.Is(err, schedtrace.ErrCorrupt) {
			t.Fatalf("flip at %d: err = %v, want ErrCorrupt", off, err)
		}
	}
}

// TestTruncationRejected: losing a round line breaks the footer count
// or the checksum, never decodes short.
func TestTruncationRejected(t *testing.T) {
	b, _ := sample().Encode()
	lines := strings.SplitAfter(string(b), "\n")
	// Drop one round line, keep header + remaining rounds + footer.
	trunc := strings.Join(append(append([]string{}, lines[0]), lines[2:]...), "")
	if _, err := schedtrace.Decode([]byte(trunc)); !errors.Is(err, schedtrace.ErrCorrupt) {
		t.Fatalf("truncated trace decoded: err = %v", err)
	}
}

// TestDiffFindsFirstDivergentRound: a drifted field is named with its
// round, field, and both values — the replay drift verdict.
func TestDiffFindsFirstDivergentRound(t *testing.T) {
	want, got := sample(), sample()
	got.Rounds[1].Crashes = 7
	got.Rounds[2].Violation = "" // later drift must not mask round 1
	d := schedtrace.Diff(want, got)
	if d == nil {
		t.Fatal("no divergence found")
	}
	if d.Round != 1 || d.Field != "crashes" || d.Want != "0" || d.Got != "7" {
		t.Fatalf("divergence = %+v, want round 1 crashes 0→7", d)
	}
	if msg := d.Error(); !strings.Contains(msg, "round 1") || !strings.Contains(msg, "crashes") {
		t.Fatalf("divergence message %q lacks round/field", msg)
	}
}

// TestDiffHeaderGate: a replay against a different configuration is a
// header divergence at round -1, not a round-by-round mess.
func TestDiffHeaderGate(t *testing.T) {
	want, got := sample(), sample()
	got.Header.Seed = 43
	d := schedtrace.Diff(want, got)
	if d == nil || d.Round != -1 || d.Field != "seed" {
		t.Fatalf("divergence = %+v, want header seed", d)
	}
}

// TestDiffRoundCount: a replay that lost rounds diverges on the count
// once the shared prefix matches.
func TestDiffRoundCount(t *testing.T) {
	want, got := sample(), sample()
	got.Rounds = got.Rounds[:2]
	got.Header.Runs = want.Header.Runs // isolate the round-count check
	d := schedtrace.Diff(want, got)
	if d == nil || d.Field != "round_count" || d.Want != "3" || d.Got != "2" {
		t.Fatalf("divergence = %+v, want round_count 3→2", d)
	}
}

// TestKillKindIgnoresObserved: for a SIGKILL trace the observed fields
// (phase, recovered length) may drift — only the schedule gates.
func TestKillKindIgnoresObserved(t *testing.T) {
	want := &schedtrace.Trace{
		Header: schedtrace.Header{Kind: schedtrace.KindKill, Seed: 1, Rounds: 2},
		Rounds: []schedtrace.Round{
			{Round: 0, DelayUS: 17000, Killed: true, Phase: "dirty", Recovered: 9},
			{Round: 1, DelayUS: 4000, Killed: false, Phase: "", Recovered: 40},
		},
	}
	got := &schedtrace.Trace{Header: want.Header}
	got.Rounds = append(got.Rounds, want.Rounds...)
	got.Rounds[0].Phase = "fenced" // observed drift: fine
	got.Rounds[0].Recovered = 11
	if d := schedtrace.Diff(want, got); d != nil {
		t.Fatalf("observed drift gated a kill trace: %v", d)
	}
	got.Rounds[1].DelayUS = 5000 // schedule drift: not fine
	d := schedtrace.Diff(want, got)
	if d == nil || d.Round != 1 || d.Field != "delay_us" {
		t.Fatalf("divergence = %+v, want round 1 delay_us", d)
	}
	got.Rounds[1].KillAfter = 3 // the kill point is schedule too
	d = schedtrace.Diff(want, got)
	if d == nil || d.Round != 1 || d.Field != "kill_after" {
		t.Fatalf("divergence = %+v, want round 1 kill_after", d)
	}
}
