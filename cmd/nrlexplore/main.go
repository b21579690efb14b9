// Command nrlexplore runs the bounded exhaustive model checker on a
// registry workload (internal/harness): two processes (or the count the
// workload pins), one operation each, it enumerates EVERY controlled
// schedule interleaved with EVERY crash placement (up to a crash budget)
// and checks each execution for nesting-safe recoverable linearizability.
// A broken workload — the Theorem 4 strawman among them — must fail.
//
// Usage:
//
//	nrlexplore [-obj NAME] [-crashes N] [-maxruns N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nrl/internal/explore"
	"nrl/internal/harness"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nrlexplore:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	w, cfg, err := config(args)
	if err != nil {
		return err
	}
	stats, runErr := explore.Run(cfg)
	fmt.Printf("%s: %d executions enumerated, %d crashes injected, max decision depth %d, complete=%v\n",
		w.Name, stats.Runs, stats.Crashes, stats.MaxDepth, stats.Complete)
	if w.Broken {
		if runErr == nil {
			return fmt.Errorf("expected the broken workload %s to fail, but every execution passed", w.Name)
		}
		fmt.Printf("failure found, as expected of a broken workload:\n%v\n", runErr)
		return nil
	}
	if runErr != nil {
		return runErr
	}
	fmt.Println("every enumerated execution satisfies NRL")
	return nil
}

// config resolves the command line into the workload and its bounded
// exploration.
func config(args []string) (harness.Workload, explore.Config, error) {
	names := strings.Join(harness.WorkloadNames(), ", ")
	fs := flag.NewFlagSet("nrlexplore", flag.ContinueOnError)
	obj := fs.String("obj", "register", "workload: "+names)
	crashes := fs.Int("crashes", 1, "crash budget per execution")
	maxRuns := fs.Int("maxruns", 150_000, "bound the number of executions (0 = 5,000,000)")
	if err := fs.Parse(args); err != nil {
		return harness.Workload{}, explore.Config{}, err
	}
	w, ok := harness.WorkloadByName(*obj)
	if !ok {
		return harness.Workload{}, explore.Config{}, fmt.Errorf("unknown workload %q (want %s)", *obj, names)
	}
	cfg := explore.ForWorkload(w)
	cfg.MaxCrashes = *crashes
	cfg.MaxRuns = *maxRuns
	return w, cfg, nil
}
