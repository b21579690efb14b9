// Command nrlbench prints the experiment tables of EXPERIMENTS.md
// (E1–E13) from rows of the experiments suite (internal/bench): -exp
// measures the rows its tables read, or renders them from a report file
// given as the argument, such as the committed BENCH_experiments.json.
//
// It is also the front end of the machine-comparable benchmark pipeline
// (internal/bench): -json runs the registered suites (experiments and
// persist) and writes schema-versioned BENCH_<suite>.json reports, and
// -compare diffs two such reports — the CI gate. It fails (exit 1) on a
// ns/op or allocs/op regression beyond -threshold, a vanished row, or a
// breached or missing row of the suite's absolute gates, which read the
// new report alone, so no baseline can grandfather a breach in: the
// allocs-per-op caps (bench.AllocCaps) and the flight-recorder overhead
// budget (bench.OverheadPairs).
//
// Usage:
//
//	nrlbench [-exp E1,E3,...] [-benchops N] [BENCH_experiments.json]
//	nrlbench -json DIR [-suite NAME,...|all] [-benchops N]
//	nrlbench -compare old.json new.json [-threshold 0.15]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"nrl/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nrlbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("nrlbench", flag.ContinueOnError)
	expFlag := fs.String("exp", "all", "comma-separated experiment tables to print (E1..E13) or 'all'")
	jsonDir := fs.String("json", "", "run the benchmark suites and write BENCH_<suite>.json reports into this directory")
	suite := fs.String("suite", "all", fmt.Sprintf("with -json: which suites to run (%s, all)", strings.Join(bench.SuiteNames(), ", ")))
	benchOps := fs.Int("benchops", 0, "total operations per benchmark (0 = the suite's default)")
	compare := fs.Bool("compare", false, "compare two BENCH_*.json reports (old new) and fail on regressions or a breached cap or overhead budget")
	threshold := fs.Float64("threshold", bench.DefaultThreshold, "with -compare: relative ns/op growth tolerated before failing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		return runCompare(fs.Args(), *threshold)
	}
	if *jsonDir != "" {
		return runSuites(*jsonDir, *suite, *benchOps)
	}
	return runExperiments(*expFlag, *benchOps, fs.Args())
}

// runExperiments prints the selected E-tables, from the report file in
// args when one is given and from a fresh run of the rows they read
// otherwise.
func runExperiments(sel string, benchOps int, args []string) error {
	exps := bench.Experiments()
	if sel != "all" {
		var picked []bench.Experiment
		for _, id := range strings.Split(sel, ",") {
			i := slices.IndexFunc(exps, func(e bench.Experiment) bool { return strings.EqualFold(e.ID, strings.TrimSpace(id)) })
			if i < 0 {
				return fmt.Errorf("unknown experiment %q (have E1..E%d)", id, len(exps))
			}
			picked = append(picked, exps[i])
		}
		exps = picked
	}
	if len(args) > 1 {
		return fmt.Errorf("at most one report to render, got %d", len(args))
	}
	var report *bench.Report
	if len(args) == 1 {
		r, err := bench.ReadFile(args[0])
		if err != nil {
			return err
		}
		report = r
	} else {
		opts := bench.SuiteOptions("experiments", bench.Options{Ops: benchOps})
		report = bench.RunSuite("experiments", bench.ExperimentSpecs(exps), opts)
	}
	fmt.Printf("%s suite: %s %s/%s, %d CPUs\n\n", report.Suite, report.Go, report.GOOS, report.GOARCH, report.CPUs)
	for _, e := range exps {
		t, err := e.Table(report)
		if err != nil {
			return err
		}
		t.Fprint(os.Stdout)
	}
	return nil
}

// runSuites executes the selected internal/bench suites and writes one
// BENCH_<suite>.json per suite into dir.
func runSuites(dir, suite string, benchOps int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	suites := bench.Suites()
	names := bench.SuiteNames()
	if suite != "all" {
		names = nil
		for _, name := range strings.Split(suite, ",") {
			name = strings.TrimSpace(name)
			if _, ok := suites[name]; !ok {
				return fmt.Errorf("unknown suite %q (have: %s)", name, strings.Join(bench.SuiteNames(), ", "))
			}
			names = append(names, name)
		}
	}
	defer bench.CleanupDirs()
	for _, name := range names {
		// Per-suite defaults: the file-backed persist suite fsyncs on
		// every op and cannot run at the in-memory suites' counts.
		opts := bench.SuiteOptions(name, bench.Options{Ops: benchOps})
		report := bench.RunSuite(name, suites[name], opts)
		path := filepath.Join(dir, "BENCH_"+name+".json")
		if err := report.WriteFile(path); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", path, len(report.Results))
	}
	return nil
}

// runCompare diffs a baseline report against a fresh one and returns a
// non-nil error (exit 1) when any of the suite's gates trips.
func runCompare(paths []string, threshold float64) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare needs exactly two report paths (old new), got %d", len(paths))
	}
	base, err := bench.ReadFile(paths[0])
	if err != nil {
		return err
	}
	head, err := bench.ReadFile(paths[1])
	if err != nil {
		return err
	}
	c, err := bench.Compare(base, head, threshold)
	if err != nil {
		return err
	}
	c.Fprint(os.Stdout)
	return c.Gate()
}
