package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nrl/internal/flightrec"
	"nrl/internal/harness"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestSummaryGoldens locks down the profile summary of each scenario at
// the default flags: runs are deterministic (controlled scheduler, seeded
// picker and injector, no wall-clock in the output), so the exact tables
// are reproducible.
func TestSummaryGoldens(t *testing.T) {
	for _, s := range []string{"counter", "durable-log"} {
		t.Run(s, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-scenario", s, "-seed", "1"}, &out); err != nil {
				t.Fatalf("run(%s) = %v", s, err)
			}
			golden := filepath.Join("testdata", s+".golden")
			if *update {
				if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, out.Bytes(), want)
			}
		})
	}
}

// TestAllScenariosRun exercises every scenario — each non-broken
// registry workload, and durable-log — small, to keep the NRL-check
// search cheap, and sanity-checks the summary shape.
func TestAllScenariosRun(t *testing.T) {
	var scenarios []string
	for _, w := range harness.RealWorkloads() {
		scenarios = append(scenarios, w.Name)
	}
	for _, s := range append(scenarios, "durable-log") {
		t.Run(s, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-scenario", s, "-ops", "30", "-procs", "2"}, &out); err != nil {
				t.Fatalf("run(%s) = %v", s, err)
			}
			o := out.String()
			for _, want := range []string{"Per-object profile", "Recovery depth", "check: ok", "flush/op", "fence/op"} {
				if !strings.Contains(o, want) {
					t.Errorf("summary missing %q:\n%s", want, o)
				}
			}
		})
	}
}

// TestTraceFlag: the acceptance path — -trace must emit one valid JSON
// object per line while the summary still prints.
func TestTraceFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	var out bytes.Buffer
	if err := run([]string{"-scenario", "counter", "-seed", "1", "-trace", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) < 100 {
		t.Fatalf("suspiciously small trace: %d lines", len(lines))
	}
	for i, line := range lines {
		var e map[string]any
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i+1, err)
		}
		if _, ok := e["kind"]; !ok {
			t.Fatalf("line %d has no kind: %s", i+1, line)
		}
	}
	if !strings.Contains(out.String(), "NRL check: ok") {
		t.Error("summary missing NRL check")
	}
}

func TestUnknownScenario(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", "nope"}, &out); err == nil {
		t.Error("run accepted an unknown scenario")
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-bogus"}, {"-ops", "0"}, {"-procs", "-1"}} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) accepted bad flags", args)
		}
	}
}

// TestReplayFrom: -from rebuilds the profile from a captured stream,
// and tolerates (and reports) a final line torn by a crash.
func TestReplayFrom(t *testing.T) {
	dir := t.TempDir()
	stream := filepath.Join(dir, "run.jsonl")
	var out bytes.Buffer
	if err := run([]string{"-procs", "2", "-ops", "20", "-trace", stream}, &out); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if err := run([]string{"-from", stream}, &out); err != nil {
		t.Fatal(err)
	}
	o := out.String()
	if !strings.Contains(o, "replay ") || !strings.Contains(o, "Per-object profile") {
		t.Errorf("replay output missing profile:\n%s", o)
	}
	if strings.Contains(o, "warning:") {
		t.Errorf("clean stream reported truncation:\n%s", o)
	}

	// Tear the tail, as a kill mid-write would.
	b, err := os.ReadFile(stream)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.jsonl")
	if err := os.WriteFile(torn, b[:len(b)-15], 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-from", torn}, &out); err != nil {
		t.Fatalf("torn stream errored: %v", err)
	}
	if !strings.Contains(out.String(), "warning: final line") {
		t.Errorf("torn stream missing truncation warning:\n%s", out.String())
	}
}

// forensicsFixture builds the deterministic flight-recorder image behind
// testdata/forensics.bbox: a two-process story — p1 completes an
// increment (with checkpoint, fence and commit markers), p2 crashes
// mid-append and is caught re-entering recovery — plus one slot torn by
// hand, so the golden report locks down the partial-report path too.
func forensicsFixture(t *testing.T) []byte {
	t.Helper()
	rec := flightrec.NewRecorder(flightrec.Options{Slots: 32, Deep: true})
	rec.Record(flightrec.Rec{Kind: flightrec.KindBegin, P: 1, Depth: 1, Obj: "ctr", Op: "Inc", Val: 1})
	rec.Record(flightrec.Rec{Kind: flightrec.KindCheckpoint, P: 1, Depth: 1, Obj: "ctr", Op: "Inc", LI: 2})
	rec.Record(flightrec.Rec{Kind: flightrec.KindBegin, P: 2, Depth: 1, Obj: "log", Op: "Append", Val: 9})
	rec.RecordFence(1, 2)
	rec.RecordCommit(1, 2)
	rec.Record(flightrec.Rec{Kind: flightrec.KindEnd, P: 1, Depth: 1, Obj: "ctr", Op: "Inc", Val: 2})
	rec.Record(flightrec.Rec{Kind: flightrec.KindCrash, P: 2, Depth: 1, Obj: "log", Op: "Append", LI: 3})
	rec.Record(flightrec.Rec{Kind: flightrec.KindRecoverEnter, P: 2, Depth: 1, Obj: "log", Op: "Append", LI: 3, Attempt: 1})
	img := make([]byte, rec.SizeBytes())
	if err := rec.Sync(func(b []byte, off int64) error {
		copy(img[off:], b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Tear the checkpoint's slot (record seq 2 -> slot 1, payload byte).
	img[32+32+12] ^= 0xff
	return img
}

// TestForensicsGolden locks down the forensics subcommand's recovery
// report against the committed flight-recorder image.
func TestForensicsGolden(t *testing.T) {
	bbox := filepath.Join("testdata", "forensics.bbox")
	golden := filepath.Join("testdata", "forensics.golden")
	if *update {
		if err := os.WriteFile(bbox, forensicsFixture(t), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want, err := os.ReadFile(bbox); err != nil {
		t.Fatalf("missing committed image (run with -update): %v", err)
	} else if got := forensicsFixture(t); !bytes.Equal(got, want) {
		t.Fatalf("fixture drifted from committed image: regenerate with -update and review the golden diff")
	}

	var out bytes.Buffer
	if err := run([]string{"forensics", bbox}, &out); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("forensics report differs from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, out.Bytes(), want)
	}
}

// TestServeOnce: the serve subcommand brings the telemetry plane up and
// its metrics document is well-formed JSON reflecting the workload.
func TestServeOnce(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"serve", "-once", "-procs", "2", "-ops", "10"}, &out); err != nil {
		t.Fatal(err)
	}
	o := out.String()
	i := strings.Index(o, "{")
	if i < 0 {
		t.Fatalf("no JSON document in output:\n%s", o)
	}
	var flat map[string]any
	if err := json.Unmarshal([]byte(o[i:]), &flat); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, o)
	}
	for _, k := range []string{"nvm.ops_total", "flightrec.seq", "flightrec.ended"} {
		if _, ok := flat[k]; !ok {
			t.Errorf("metrics missing %q", k)
		}
	}
}
