package main

import (
	"strings"
	"testing"

	"nrl/internal/bench"
)

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-benchops", "400", "-exp", "E1"}); err != nil {
		t.Errorf("run = %v", err)
	}
}

func TestRunSelection(t *testing.T) {
	if err := run([]string{"-benchops", "400", "-exp", "e5,E8"}); err != nil {
		t.Errorf("run = %v", err)
	}
}

// TestRunRendersCommittedReport renders every table from the committed
// report without measuring: each row EXPERIMENTS.md shows must be there.
func TestRunRendersCommittedReport(t *testing.T) {
	if err := run([]string{"../../BENCH_experiments.json"}); err != nil {
		t.Errorf("run = %v", err)
	}
	if err := run([]string{"-exp", "E1", "../../BENCH_persist.json"}); err == nil {
		t.Error("rendered E1 from a report without its rows")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "E99"}); err == nil {
		t.Error("run accepted an unknown experiment")
	}
}

func TestRunBadFlag(t *testing.T) {
	// -ops and -trace belonged to the retired experiment timers.
	for _, flag := range []string{"-definitely-not-a-flag", "-ops", "-trace"} {
		if err := run([]string{flag, "1"}); err == nil {
			t.Errorf("run accepted %s", flag)
		}
	}
}

// TestRunUnknownSuiteNamesRegistry: the error lists the registry, so
// it cannot drift from bench.Suites().
func TestRunUnknownSuiteNamesRegistry(t *testing.T) {
	err := run([]string{"-json", t.TempDir(), "-suite", "nope"})
	if err == nil {
		t.Fatal("run accepted an unknown suite")
	}
	for _, name := range append(bench.SuiteNames(), "experiments") {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name suite %q", err, name)
		}
	}
}
