// Command nrlcheck stress-tests the recoverable objects: it runs seeded
// adversarial schedules with random crash injection against the chosen
// workload, records every history, and machine-checks each against
// nesting-safe recoverable linearizability (Definition 4).
//
// Usage:
//
//	nrlcheck [-obj NAME|all] [-procs N] [-ops N] [-seeds N] [-rate P] [-v]
//
// Exit codes: 0 all histories NRL, 1 a counterexample was found (its
// history is printed), 2 a run livelocked (the watchdog's stuck report is
// printed), 3 usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"nrl/internal/chaos"
	"nrl/internal/harness"
	"nrl/internal/history"
	"nrl/internal/proc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("nrlcheck", flag.ContinueOnError)
	fs.SetOutput(errOut)
	obj := fs.String("obj", "all", "workload: "+harness.WorkloadUsage())
	procs := fs.Int("procs", 3, "number of processes (clamped by the workload)")
	ops := fs.Int("ops", 6, "operations per process per run")
	seeds := fs.Int("seeds", 50, "number of seeded runs")
	rate := fs.Float64("rate", 0.02, "crash probability per step")
	verbose := fs.Bool("v", false, "print per-run statistics")
	awaitBudget := fs.Int("awaitbudget", 0, "await iterations before the watchdog declares a livelock (0 = default)")
	checkBudget := fs.Int("budget", chaos.DefaultCheckBudget, "WGL search budget per history (degrades to windowed prefixes when exceeded)")
	if err := fs.Parse(args); err != nil {
		return harness.ExitUsage
	}

	loads, err := harness.Select(*obj)
	if err != nil {
		fmt.Fprintln(errOut, "nrlcheck:", err)
		return harness.ExitUsage
	}
	for _, w := range loads {
		np := w.Procs(*procs)
		totalCrashes := 0
		for seed := 0; seed < *seeds; seed++ {
			h, crashes, err := runOnce(w, np, *ops, *rate, int64(seed), *awaitBudget, *checkBudget)
			totalCrashes += crashes
			var se *proc.StuckError
			if errors.As(err, &se) {
				fmt.Fprintf(out, "%s seed %d: STUCK\n%s\n", w.Name, seed, se.Report.String())
				return harness.ExitStuck
			}
			if err != nil {
				fmt.Fprintf(out, "%s seed %d: VIOLATION\n%v\n\nhistory:\n%s", w.Name, seed, err, h)
				fmt.Fprintln(errOut, "nrlcheck:", w.Name, "NRL violated at seed", seed)
				return harness.ExitViolation
			}
			if *verbose {
				fmt.Fprintf(out, "%s seed %d: ok (%d steps, %d crashes)\n", w.Name, seed, h.Len(), crashes)
			}
		}
		fmt.Fprintf(out, "%-12s ok: %d runs x %d procs x %d ops, %d crashes injected, all NRL\n",
			w.Name, *seeds, np, *ops, totalCrashes)
	}
	return harness.ExitClean
}

// runOnce performs one seeded run. It returns a *proc.StuckError (wrapped)
// when the run livelocked, or the NRL checker's verdict otherwise. The
// verdict is budgeted: histories the WGL search cannot settle within
// checkBudget nodes degrade to chaos.CheckWindowed's sound prefix check
// instead of hanging the CLI.
func runOnce(w harness.Workload, procs, ops int, rate float64, seed int64, awaitBudget, checkBudget int) (history.History, int, error) {
	rec := history.NewRecorder()
	inj := &proc.Random{Rate: rate, Seed: seed, MaxCrashes: procs * 2}
	sys := proc.NewSystem(proc.Config{
		Procs:         procs,
		Recorder:      rec,
		Injector:      inj,
		Scheduler:     proc.NewControlled(proc.RandomPicker(seed)),
		AwaitBudget:   awaitBudget,
		RecoverPanics: true,
	})
	sys.Run(w.Build(sys, procs, ops))
	h := rec.History()
	for _, f := range sys.Failures() {
		return h, inj.Crashes(), f
	}
	violation, _ := chaos.CheckWindowed(w.Models, h, checkBudget)
	return h, inj.Crashes(), violation
}
