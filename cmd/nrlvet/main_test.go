package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestSeededGolden: the seeded-violation fixture produces one stable
// finding per represented analyzer and exits 1.
func TestSeededGolden(t *testing.T) {
	o := golden(t, "seeded", exitFindings, "-dir", "testdata/src/seeded")
	for _, rule := range []string{"missed-flush", "flush-no-fence", "untyped-record", "order-violation", "empty-reason"} {
		if !strings.Contains(o, rule) {
			t.Errorf("text output missing rule %q:\n%s", rule, o)
		}
	}
}

// TestSeededJSONGolden: -json emits the same findings as a stable JSON
// array that round-trips.
func TestSeededJSONGolden(t *testing.T) {
	o := golden(t, "seeded_json", exitFindings, "-json", "-dir", "testdata/src/seeded")
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Rule     string `json:"rule"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(o), &findings); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, o)
	}
	if len(findings) == 0 {
		t.Fatal("JSON output has no findings")
	}
	for _, f := range findings {
		if f.File == "" || f.Line == 0 || f.Analyzer == "" || f.Rule == "" || f.Message == "" {
			t.Errorf("finding with empty field: %+v", f)
		}
	}
}

// TestCleanGolden: a conforming package produces no output and exits 0.
func TestCleanGolden(t *testing.T) {
	golden(t, "clean", exitClean, "-dir", "testdata/src/clean")
}

// TestListGolden: -list names every analyzer in the suite.
func TestListGolden(t *testing.T) {
	o := golden(t, "list", exitClean, "-list")
	for _, name := range []string{"persistorder", "recoverypure", "witnessorder", "nestsafe", "allocfree", "traceattr", "checkconv", "ignore"} {
		if !strings.Contains(o, name) {
			t.Errorf("-list output missing %q:\n%s", name, o)
		}
	}
}

// TestSARIFGolden: -sarif renders the seeded findings as a SARIF 2.1.0
// log with one rule per analyzer/rule id and one result per finding.
func TestSARIFGolden(t *testing.T) {
	o := golden(t, "sarif", exitFindings, "-sarif", "-dir", "testdata/src/seeded")
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(o), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, o)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("not a single-run SARIF 2.1.0 log: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "nrlvet" || len(run.Tool.Driver.Rules) == 0 || len(run.Results) == 0 {
		t.Fatalf("driver/rules/results malformed:\n%s", o)
	}
	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, r := range run.Results {
		if !ruleIDs[r.RuleID] {
			t.Errorf("result rule %q missing from driver rules", r.RuleID)
		}
		if len(r.Locations) != 1 || r.Locations[0].PhysicalLocation.ArtifactLocation.URI == "" {
			t.Errorf("result %q lacks a physical location", r.RuleID)
		}
	}
}

// TestSummaryGolden: -summary dumps the persist-effect summaries of the
// fixture's helper chain — propagated flushes, fences, hidden stores,
// volatile chains, and allocation counts.
func TestSummaryGolden(t *testing.T) {
	o := golden(t, "summary", exitClean, "-summary", "-dir", "testdata/src/summary")
	for _, want := range []string{"flushes", "fences", "writes", "time.Now", "allocs"} {
		if !strings.Contains(o, want) {
			t.Errorf("-summary output missing %q:\n%s", want, o)
		}
	}
}

// TestIgnoresGolden: -ignores inventories every suppression with its
// reason, including the reason-less one the ignore analyzer flags.
func TestIgnoresGolden(t *testing.T) {
	o := golden(t, "ignores", exitClean, "-ignores", "-dir", "testdata/src/seeded")
	if !strings.Contains(o, "(no reason)") {
		t.Errorf("-ignores output missing the reason-less entry:\n%s", o)
	}
}

// TestJSONAndSARIFConflict: asking for both wire formats is a usage
// error.
func TestJSONAndSARIFConflict(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-json", "-sarif", "-dir", "testdata/src/seeded"}, &out, &errOut); code != exitUsage {
		t.Errorf("exit %d, want %d", code, exitUsage)
	}
}

// TestAnalyzerSubset: -a restricts the suite; only persistorder findings
// surface from the seeded fixture.
func TestAnalyzerSubset(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-a", "persistorder", "-dir", "testdata/src/seeded"}, &out, &errOut); code != exitFindings {
		t.Fatalf("exit %d, want %d\n%s", code, exitFindings, errOut.String())
	}
	o := out.String()
	if !strings.Contains(o, "persistorder") {
		t.Errorf("subset output missing persistorder findings:\n%s", o)
	}
	for _, absent := range []string{"traceattr", "witnessorder", "ignore/"} {
		if strings.Contains(o, absent) {
			t.Errorf("subset output leaked %q findings:\n%s", absent, o)
		}
	}
}

// TestUnknownAnalyzer: a bad -a name is a usage error.
func TestUnknownAnalyzer(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-a", "nope"}, &out, &errOut); code != exitUsage {
		t.Errorf("exit %d, want %d", code, exitUsage)
	}
	if !strings.Contains(errOut.String(), "unknown analyzer") {
		t.Errorf("stderr missing explanation:\n%s", errOut.String())
	}
}

// TestDirAndPatternsConflict: -dir with patterns is a usage error.
func TestDirAndPatternsConflict(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-dir", "testdata/src/clean", "./..."}, &out, &errOut); code != exitUsage {
		t.Errorf("exit %d, want %d", code, exitUsage)
	}
}

// TestSelfPatterns: the driver over its own package is clean — the
// repo-wide gate lives in internal/analysis's TestRepositoryClean.
func TestSelfPatterns(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"./..."}, &out, &errOut); code != exitClean {
		t.Errorf("exit %d, want %d\n%s%s", code, exitClean, out.String(), errOut.String())
	}
}
