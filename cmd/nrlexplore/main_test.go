package main

import "testing"

func TestRunRegisterBounded(t *testing.T) {
	if err := run([]string{"-obj", "register", "-crashes", "0"}); err != nil {
		t.Errorf("run = %v", err)
	}
}

func TestRunStrawmanFindsViolation(t *testing.T) {
	if err := run([]string{"-obj", "strawman"}); err != nil {
		t.Errorf("run = %v", err)
	}
}

func TestRunCounterBounded(t *testing.T) {
	if err := run([]string{"-obj", "counter", "-maxruns", "2000"}); err != nil {
		t.Errorf("run = %v", err)
	}
}

// TestConfigResolution: every workload resolves through the registry to
// two processes (one for a workload that pins it) and one default run
// cap, which lets register and cas complete and stops counter in
// seconds; -crashes and -maxruns override.
func TestConfigResolution(t *testing.T) {
	for _, c := range []struct {
		args                    []string
		procs, crashes, maxRuns int
	}{
		{[]string{"-obj", "counter"}, 2, 1, 150_000},
		{[]string{"-obj", "cas"}, 2, 1, 150_000},
		{[]string{"-obj", "broken"}, 1, 1, 150_000},
		{[]string{"-obj", "counter", "-crashes", "2", "-maxruns", "2000"}, 2, 2, 2000},
	} {
		w, cfg, err := config(c.args)
		if err != nil {
			t.Fatalf("config(%v) = %v", c.args, err)
		}
		if cfg.Procs != c.procs || cfg.MaxCrashes != c.crashes || cfg.MaxRuns != c.maxRuns {
			t.Errorf("config(%v): procs %d, crashes %d, maxruns %d; want %d, %d, %d",
				c.args, cfg.Procs, cfg.MaxCrashes, cfg.MaxRuns, c.procs, c.crashes, c.maxRuns)
		}
		if cfg.Build == nil || cfg.Models == nil || w.Name != c.args[1] {
			t.Errorf("config(%v) resolved %q without its build or models", c.args, w.Name)
		}
	}
}

func TestRunUnknownObject(t *testing.T) {
	if err := run([]string{"-obj", "nope"}); err == nil {
		t.Error("run accepted an unknown configuration")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("run accepted a bad flag")
	}
}
