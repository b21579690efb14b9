package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nrl/internal/harness"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestMain doubles as the worker re-exec shim: -real re-runs
// os.Executable() — in tests, this binary — with -realworker first, so
// the test binary then behaves exactly like nrlchaos.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-realworker" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// golden runs the CLI and compares stdout (and the exit code) against a
// golden file. Campaigns are deterministic — controlled scheduler, seeded
// picker and injector streams, no wall-clock in the output — so the exact
// summaries are reproducible.
func golden(t *testing.T, name string, wantCode int, args ...string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	if code != wantCode {
		t.Fatalf("run(%v) = exit %d, want %d\nstdout:\n%s\nstderr:\n%s",
			args, code, wantCode, out.String(), errOut.String())
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, out.Bytes(), want)
	}
}

// TestCampaignBrokenGolden: the negative control exits 1 and prints the
// failure block with a replayable flag line.
func TestCampaignBrokenGolden(t *testing.T) {
	golden(t, "broken", harness.ExitViolation,
		"-workload", "broken", "-procs", "1", "-ops", "2", "-runs", "30", "-seed", "42")
}

// TestCampaignCleanGolden: a real algorithm exits 0 with its coverage
// summary (and full table).
func TestCampaignCleanGolden(t *testing.T) {
	golden(t, "counter", harness.ExitClean,
		"-workload", "counter", "-runs", "25", "-seed", "7", "-coverage")
}

// TestCampaignStuckGolden: the stuck strawman exits 2 and prints the
// structured watchdog report instead of panicking.
func TestCampaignStuckGolden(t *testing.T) {
	golden(t, "stuck", harness.ExitStuck,
		"-workload", "stuck", "-procs", "1", "-ops", "1", "-runs", "3", "-seed", "3")
}

// TestReplayGolden replays the reproducer printed by the broken campaign
// (seed and site taken from testdata/broken.golden) and exits 1 with the
// violating history.
func TestReplayGolden(t *testing.T) {
	golden(t, "replay", harness.ExitViolation,
		"-workload", "broken", "-procs", "1", "-ops", "2",
		"-seed", "6349198060258255764", "-replay", "p1@8")
}

// TestReplayTrace: -trace writes one valid JSON event per line alongside
// the replay verdict.
func TestReplayTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	var out, errOut bytes.Buffer
	code := run([]string{
		"-workload", "broken", "-procs", "1", "-ops", "2",
		"-seed", "6349198060258255764", "-replay", "p1@8", "-trace", path,
	}, &out, &errOut)
	if code != harness.ExitViolation {
		t.Fatalf("exit %d, want %d\n%s%s", code, harness.ExitViolation, out.String(), errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) < 10 {
		t.Fatalf("suspiciously small trace: %d lines", len(lines))
	}
	for i, line := range lines {
		var e map[string]any
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i+1, err)
		}
	}
	if !bytes.Contains(data, []byte(`"crash"`)) {
		t.Error("trace has no crash event despite an injected crash")
	}
}

// TestTargetedCampaign: -target restricts the injector; the recovery
// campaign still completes cleanly on a correct object.
func TestTargetedCampaign(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{
		"-workload", "cas", "-runs", "10", "-seed", "5", "-target", "recovery",
	}, &out, &errOut)
	if code != harness.ExitClean {
		t.Fatalf("exit %d, want 0\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "cas") {
		t.Errorf("summary missing workload name:\n%s", out.String())
	}
}

// TestChaosCampaign runs a short replicated SIGKILL campaign through
// the CLI, recording its schedule, then replays the recording over a
// fresh root: the schedule must match.
func TestChaosCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess campaign skipped in -short mode")
	}
	dir := t.TempDir()
	rec := filepath.Join(dir, "x.jsonl")
	var out, errOut bytes.Buffer
	code := run([]string{"-real", "-replicas", "3", "-appends", "20", "-capacity", "16384",
		"-maxdelay", "60ms", "-dir", filepath.Join(dir, "set"), "-rounds", "6", "-seed", "3",
		"-record", rec}, &out, &errOut)
	if code != harness.ExitClean {
		t.Fatalf("campaign exit %d:\n%s\n%s", code, out.String(), errOut.String())
	}
	var rounds, kills, clean int
	summary := out.String()[strings.Index(out.String(), "real-crash"):]
	if _, err := fmt.Sscanf(summary, "real-crash    %d rounds over 3 replicas, %d kills, %d clean exits",
		&rounds, &kills, &clean); err != nil {
		t.Fatalf("unparseable summary (%v):\n%s", err, out.String())
	}
	if rounds != 6 || kills+clean != 6 {
		t.Errorf("rounds accounted = %d+%d of %d, want 6", kills, clean, rounds)
	}
	if !strings.Contains(summary, "member faults:") {
		t.Errorf("no member faults reported:\n%s", summary)
	}

	out.Reset()
	code = run([]string{"-real", "-dir", filepath.Join(dir, "replay"), "-replaytrace", rec}, &out, &errOut)
	if code != harness.ExitClean || !strings.Contains(out.String(), "schedule matched") {
		t.Fatalf("replay exit %d:\n%s\n%s", code, out.String(), errOut.String())
	}
}

// TestUsageErrors: unknown workload, bad sites, bad target, bad flag all
// exit 3 without touching stdout.
func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-workload", "nope"},
		{"-workload", "counter", "-replay", "zzz"},
		{"-replay", "p1@3"}, // -workload all cannot be replayed
		{"-workload", "counter", "-target", "bogus"},
		{"-bogus"},
		{"-workload", "counter", "-runs", "0"},
		{"-real", "-replicas", "0"},
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != harness.ExitUsage {
			t.Errorf("run(%v) = exit %d, want %d", args, code, harness.ExitUsage)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) wrote to stdout on a usage error:\n%s", args, out.String())
		}
	}
}
