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

// TestCounterGolden locks down the deep-recovery sweep summary for the
// counter: point and recovery-site counts are deterministic under the
// seeded controlled scheduler.
func TestCounterGolden(t *testing.T) {
	golden(t, "counter", harness.ExitClean, "-obj", "counter", "-ops", "2", "-deep")
}

// TestStuckGolden: a placement that livelocks recovery exits 2 with the
// watchdog's structured report, never a raw panic.
func TestStuckGolden(t *testing.T) {
	o := golden(t, "stuck", harness.ExitStuck, "-obj", "stuck", "-ops", "1", "-awaitbudget", "500")
	for _, want := range []string{"STUCK", "stuck report", "verdict:"} {
		if !strings.Contains(o, want) {
			t.Errorf("stuck output missing %q:\n%s", want, o)
		}
	}
}

func TestRunAllSmall(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-ops", "1", "-double=false"}, &out, &errOut); code != harness.ExitClean {
		t.Errorf("run = exit %d\n%s%s", code, out.String(), errOut.String())
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
