package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestAttributionIdentity checks that the per-layer numbers of a traced
// durable-queue run add up: every word handed to Backend.Commit is a word
// a fence made durable, the outcome records of the op types sum to the
// completed ops, and the time spent in Commit fits inside the time spent
// in ops.
func TestAttributionIdentity(t *testing.T) {
	res, err := run(config{
		workload: workloads["durable-queue"], seed: 3, rounds: 2, procs: 2,
		scriptLen: 150, trace: true, root: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct {
		t.Fatalf("audit failed: %v", res.findings.first)
	}
	id := res.identity
	if id.commitWords == 0 || id.commitWords != id.fenceWords {
		t.Errorf("words committed %d, fence words %d: want equal and non-zero", id.commitWords, id.fenceWords)
	}
	if id.ops == 0 || id.records != id.ops {
		t.Errorf("outcome records of all op types sum to %d, ops %d", id.records, id.ops)
	}
	if id.commitBusy > id.opTime {
		t.Errorf("time in Commit %v exceeds time in ops %v", id.commitBusy, id.opTime)
	}
}

// TestStoreRootRemoved runs the command end to end and checks that the
// run leaves no store directory behind.
func TestStoreRootRemoved(t *testing.T) {
	tmp := t.TempDir()
	var out, errs bytes.Buffer
	code := realMain([]string{"--workload", "durable-queue", "--seed", "1", "--seconds", "0.3", "--trace", "0", "--tmp", tmp}, &out, &errs)
	if code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, errs.String(), out.String())
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("run left %d entries in its temp dir", len(left))
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"correct":true,`) {
		t.Fatalf("last line is not a correct result: %s", last)
	}
}

// TestLayerSplit runs every workload briefly with two processes: every
// audit passes, and the commit share lands where the workload says it
// should. A share above one half is the largest one whatever the other
// layers take.
func TestLayerSplit(t *testing.T) {
	want := map[string]string{"durable-queue": "persist.commit_share", "replicated-queue": "replica.commit_share"}
	for _, name := range workloadNames() {
		res, err := run(config{
			workload: workloads[name], seed: 4, rounds: 2, procs: 2,
			scriptLen: map[string]int{"mem-mix": 4000}[name] + 100, trace: true, root: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct {
			t.Fatalf("%s: audit failed: %d of %d ops: %v", name, res.failed, res.attempted, res.findings.first)
		}
		for _, share := range []string{"persist.commit_share", "replica.commit_share"} {
			m, _ := res.lookup(share)
			switch {
			case share == want[name] && m.Value <= 0.5:
				t.Errorf("%s: %s = %.3f, want the largest share (> 0.5)", name, share, m.Value)
			case share != want[name] && m.Value != 0:
				t.Errorf("%s: %s = %.3f, want 0", name, share, m.Value)
			}
		}
	}
}
