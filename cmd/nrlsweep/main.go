// Command nrlsweep runs the crash-point sweeper: it discovers every
// (process, object, operation, line) crash site a workload visits, then
// re-runs the workload with a single crash at each site — and optionally
// a second crash at the first recovery step (-double) or at every line of
// the recovery path (-deep) — checking every history for nesting-safe
// recoverable linearizability.
//
// Usage:
//
//	nrlsweep [-obj NAME|all] [-procs N] [-ops N] [-double] [-deep] [-seed N]
//
// Exit codes: 0 all placements NRL, 1 a placement violated NRL (its
// history is printed), 2 a placement livelocked recovery (the watchdog's
// stuck report is printed), 3 usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"nrl/internal/harness"
	"nrl/internal/proc"
	"nrl/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("nrlsweep", flag.ContinueOnError)
	fs.SetOutput(errOut)
	obj := fs.String("obj", "all", "workload: "+harness.WorkloadUsage())
	procs := fs.Int("procs", 2, "number of processes (clamped by the workload)")
	ops := fs.Int("ops", 3, "operations per process")
	double := fs.Bool("double", true, "also inject a second crash at the first recovery step")
	deep := fs.Bool("deep", false, "inject the second crash at every line of the recovery path")
	seed := fs.Int64("seed", 1, "controlled-scheduler seed")
	awaitBudget := fs.Int("awaitbudget", 100_000, "await iterations before the watchdog declares a livelock")
	if err := fs.Parse(args); err != nil {
		return harness.ExitUsage
	}

	loads, err := harness.Select(*obj)
	if err != nil {
		fmt.Fprintln(errOut, "nrlsweep:", err)
		return harness.ExitUsage
	}
	for _, w := range loads {
		w := w
		np := w.Procs(*procs)
		stats, err := sweep.Run(sweep.Config{
			Procs: np,
			Build: func(sys *proc.System) map[int]func(*proc.Ctx) {
				return w.Build(sys, np, *ops)
			},
			Models:        w.Models,
			Seed:          *seed,
			DoubleCrash:   *double && !*deep,
			DeepRecovery:  *deep,
			AwaitBudget:   *awaitBudget,
			RecoverPanics: true,
		})
		var se *proc.StuckError
		if errors.As(err, &se) {
			fmt.Fprintf(out, "%s: STUCK\n%s\n", w.Name, se.Report.String())
			return harness.ExitStuck
		}
		if err != nil {
			fmt.Fprintf(out, "%s: VIOLATION\n%v\n", w.Name, err)
			fmt.Fprintln(errOut, "nrlsweep:", w.Name, "failed")
			return harness.ExitViolation
		}
		fmt.Fprintf(out, "%-12s ok: %d crash points, %d runs, %d crashes injected", w.Name, stats.Points, stats.Runs, stats.Crashes)
		if *deep {
			fmt.Fprintf(out, ", %d recovery sites", stats.RecoverySites)
		}
		fmt.Fprintln(out, ", all NRL")
	}
	return harness.ExitClean
}
