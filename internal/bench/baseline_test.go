package bench

import (
	"strings"
	"testing"
)

// TestShardSpeedupVsPreshardBaseline pins the headline acceptance
// criterion of the sharded memory: the committed BENCH_experiments.json
// must beat the committed pre-shard measurement (see
// testdata/preshard/README.md for its provenance) by at least 2x on the
// 8-process Buffered-mode CAS+persist row, E11's acceptance row. The gap
// is ~90x in practice — the pre-shard fence scanned every allocated
// word, the sharded fence visits only the issuing process's flushed
// words — so this only fires if either file is replaced with something
// that no longer supports the claim. No pre-shard row may be more than
// DefaultThreshold slower now either. The two reports are different
// suites, so each row is checked here rather than through Compare; the
// pre-shard UntracedWrite/mode=X rows are E8's NVM/Write/mode=X.
func TestShardSpeedupVsPreshardBaseline(t *testing.T) {
	pre, err := ReadFile("testdata/preshard/BENCH_nvm.json")
	if err != nil {
		t.Fatalf("pre-shard baseline: %v", err)
	}
	cur, err := ReadFile("../../BENCH_experiments.json")
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}

	const row = "BufferedCASPersist/procs=8"
	old, okOld := pre.Result(row)
	new, okNew := cur.Result(row)
	if !okOld || !okNew {
		t.Fatalf("acceptance row %q missing: preshard=%v current=%v", row, okOld, okNew)
	}
	if speedup := old.NsPerOp / new.NsPerOp; speedup < 2 {
		t.Errorf("%s: %.0f -> %.0f ns/op is only %.2fx, want >= 2x",
			row, old.NsPerOp, new.NsPerOp, speedup)
	}

	for _, o := range pre.Results {
		name := strings.Replace(o.Name, "UntracedWrite/", "NVM/Write/", 1)
		n, ok := cur.Result(name)
		if !ok {
			t.Errorf("pre-shard row %s has no current row %s", o.Name, name)
			continue
		}
		if n.NsPerOp > o.NsPerOp*(1+DefaultThreshold) {
			t.Errorf("%s: %.1f ns/op now, %.1f before the sharded memory (over %.0f%% slower)",
				name, n.NsPerOp, o.NsPerOp, DefaultThreshold*100)
		}
	}
}
