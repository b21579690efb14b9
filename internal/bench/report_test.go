package bench

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden report fixture")

// goldenReport is a fully populated, hand-written report: the fixture
// pins the on-disk schema (field names, ordering, framing) so that any
// accidental change to the Report/Result shape fails loudly instead of
// silently orphaning committed BENCH_*.json baselines.
func goldenReport() *Report {
	return &Report{
		Schema: Schema,
		Suite:  "experiments",
		Go:     "go1.22.0",
		GOOS:   "linux",
		GOARCH: "amd64",
		CPUs:   8,
		Results: []Result{
			{
				Name:            "BufferedCASPersist/procs=8",
				Ops:             200000,
				NsPerOp:         56.25,
				P50Ns:           51,
				P99Ns:           78,
				AllocsPerOp:     0.0001,
				BytesPerOp:      8.5,
				MemOpsPerOp:     2,
				FlushesPerOp:    1,
				FencesPerOp:     1,
				FenceWordsPerOp: 1,
				ShardContention: 3,
			},
			{
				Name:    "Alloc",
				Ops:     200000,
				NsPerOp: 100.5,
			},
		},
	}
}

func TestReportGoldenSchema(t *testing.T) {
	got, err := goldenReport().Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	golden := filepath.Join("testdata", "golden_report.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run `go test ./internal/bench -update` to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("report schema drifted from golden fixture.\ngot:\n%s\nwant:\n%s\n"+
			"If the change is intentional, bump bench.Schema and regenerate with -update.",
			got, want)
	}
}

func TestReportGoldenRequiredKeys(t *testing.T) {
	// Independent of Go struct tags: decode the golden file as raw JSON
	// and check the keys external consumers rely on are really there.
	b, err := os.ReadFile(filepath.Join("testdata", "golden_report.json"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var raw struct {
		Schema  string                   `json:"schema"`
		Results []map[string]interface{} `json:"results"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatalf("golden is not valid JSON: %v", err)
	}
	if raw.Schema != Schema {
		t.Fatalf("golden schema = %q, want %q", raw.Schema, Schema)
	}
	if len(raw.Results) == 0 {
		t.Fatal("golden has no results")
	}
	for _, key := range []string{
		"name", "ops", "ns_per_op", "p50_ns", "p99_ns",
		"allocs_per_op", "bytes_per_op", "mem_ops_per_op",
		"flushes_per_op", "fences_per_op", "fence_words_per_op",
		"shard_contention",
	} {
		if _, ok := raw.Results[0][key]; !ok {
			t.Errorf("result is missing required key %q", key)
		}
	}
}

func TestReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_experiments.json")
	r := goldenReport()
	if err := r.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.Suite != r.Suite || len(got.Results) != len(r.Results) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if res, ok := got.Result("BufferedCASPersist/procs=8"); !ok || res.NsPerOp != 56.25 {
		t.Fatalf("round trip result = %+v, ok=%v", res, ok)
	}
}

func TestReadFileRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"nrl-bench/999","suite":"experiments","results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("ReadFile accepted a report with an unknown schema")
	}
}

func TestValidateRejectsDuplicates(t *testing.T) {
	r := goldenReport()
	r.Results = append(r.Results, Result{Name: "Alloc"})
	if err := r.Validate(); err == nil {
		t.Fatal("Validate accepted duplicate result names")
	}
}
