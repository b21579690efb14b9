package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nrl/internal/harness"
)

var update = flag.Bool("update", false, "rewrite the golden files")

func golden(t *testing.T, name string, wantCode int, args ...string) string {
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
	return out.String()
}

// TestCounterGolden: a clean run exits 0 with a deterministic summary
// (controlled scheduler, seeded picker and injector, no wall-clock).
func TestCounterGolden(t *testing.T) {
	golden(t, "counter", harness.ExitClean, "-obj", "counter", "-seeds", "5", "-ops", "3")
}

// TestBrokenGolden: the broken strawman exits 1 and prints the violating
// history (the negative control for the checker wiring).
func TestBrokenGolden(t *testing.T) {
	o := golden(t, "broken", harness.ExitViolation, "-obj", "broken", "-seeds", "5", "-ops", "2")
	if !strings.Contains(o, "VIOLATION") || !strings.Contains(o, "history:") {
		t.Errorf("violation output missing history:\n%s", o)
	}
}

// TestStuckGolden: a livelocking workload exits 2 with the watchdog's
// structured report instead of a raw panic.
func TestStuckGolden(t *testing.T) {
	o := golden(t, "stuck", harness.ExitStuck, "-obj", "stuck", "-procs", "1", "-seeds", "5", "-ops", "1", "-rate", "0.2", "-awaitbudget", "500")
	for _, want := range []string{"STUCK", "stuck report", "verdict:"} {
		if !strings.Contains(o, want) {
			t.Errorf("stuck output missing %q:\n%s", want, o)
		}
	}
}

func TestRunAllObjectsSmall(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-seeds", "3", "-ops", "3"}, &out, &errOut); code != harness.ExitClean {
		t.Errorf("run = exit %d\n%s%s", code, out.String(), errOut.String())
	}
}

func TestRunSingleObjectVerbose(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-obj", "counter", "-seeds", "2", "-v"}, &out, &errOut); code != harness.ExitClean {
		t.Errorf("run = exit %d", code)
	}
	if !strings.Contains(out.String(), "seed 0: ok") {
		t.Errorf("verbose output missing per-run lines:\n%s", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-obj", "nope"}, {"-bogus"}} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != harness.ExitUsage {
			t.Errorf("run(%v) = exit %d, want %d", args, code, harness.ExitUsage)
		}
	}
}
