// Command nrlchaos runs coverage-guided crash campaigns against the
// harness workloads: N seeded runs per workload, crashes biased toward
// never-crashed coordinates (object, operation, line, depth,
// crashes-so-far), every history NRL-checked, livelocks diagnosed by the
// watchdog as structured stuck reports, and failures shrunk to a minimal
// deterministic reproducer printed as replayable flags.
//
// Usage:
//
//	nrlchaos [-workload NAME|all] [-runs N] [-seed S] [-procs N] [-ops N]
//	         [-rate R] [-boost B] [-maxcrashes N] [-target EXPR]
//	         [-shrink] [-coverage] [-record trace.jsonl]
//	nrlchaos -workload NAME -replay SITES -seed RUNSEED [-procs N] [-ops N]
//	         [-trace out.jsonl]
//	nrlchaos -replaytrace trace.jsonl
//	nrlchaos -real [-rounds N] [-seed S] [-replicas N] [-appends N]
//	         [-capacity N] [-dir DIR] [-keep] [-maxdelay D]
//	         [-record trace.jsonl] [-replaytrace trace.jsonl]
//
// -record writes the campaign's schedule trace — the checksummed JSONL
// of every seeded choice and verdict — and, when shrinking finds a
// violation, the minimized reproducer next to it (.min.jsonl), ready to
// commit under internal/chaos/testdata/regressions. -replaytrace
// re-executes a recorded trace and exits 0 only if the fresh run
// matches the recording round for round; the first divergence is
// printed as a structured round/field/recorded/replay diff.
//
// -real switches from simulated crashes to real ones: worker processes
// (this binary re-executed with -realworker) run a durable counter/log
// workload over a replica set of -replicas file-backed stores under
// -dir (one store, at DIR/r0, by default) and are SIGKILLed at seeded
// kill points; every restart must recover to an NRL-consistent state,
// and the summary reports which persistence phases the kills landed
// in. With -replicas 3 or more, each round also wipes, corrupts or
// disk-faults one member, and failovers must promote rather than end
// read-only.
//
// In campaign mode -seed is the master seed (each run derives its own);
// in replay mode -seed is the failing run's seed as printed in the
// reproducer line. -target restricts crashes to a region, e.g.
// "recovery&depth>=2" (during nested recovery), "await" (inside a
// waiting loop), "attempt>=1" (second crash of the same frame).
//
// Exit codes: 0 clean, 1 NRL violation found (or reproduced), 2 stuck
// runs (livelock) without a violation, 3 usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"nrl/internal/chaos"
	schedtrace "nrl/internal/chaos/trace"
	"nrl/internal/harness"
	"nrl/internal/proc"
	"nrl/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	// The real-crash modes have their own flag sets: dispatch before
	// parsing the campaign flags.
	if len(args) > 0 {
		switch args[0] {
		case "-real", "--real":
			return runReal(args[1:], out, errOut)
		case "-realworker", "--realworker":
			return runRealWorker(args[1:], out, errOut)
		}
	}
	fs := flag.NewFlagSet("nrlchaos", flag.ContinueOnError)
	fs.SetOutput(errOut)
	workload := fs.String("workload", "all", "workload: "+harness.WorkloadUsage())
	runs := fs.Int("runs", 50, "seeded runs per workload")
	seed := fs.Int64("seed", 1, "master seed (campaign) or run seed (replay)")
	procs := fs.Int("procs", 2, "number of processes (clamped by the workload)")
	ops := fs.Int("ops", 2, "operations per process per run")
	rate := fs.Float64("rate", chaos.DefaultRate, "base crash probability for covered coordinates")
	boost := fs.Float64("boost", chaos.DefaultBoost, "rate multiplier for never-crashed coordinates")
	maxCrashes := fs.Int("maxcrashes", 0, "crash budget per run (0 = 2*procs+2)")
	target := fs.String("target", "", "restrict crashes to a region (e.g. recovery&depth>=2, await, attempt>=1)")
	shrink := fs.Bool("shrink", true, "shrink failures to a minimal reproducer")
	coverage := fs.Bool("coverage", false, "print the full coverage table per workload")
	replay := fs.String("replay", "", "replay crash sites (p1@12,p2@40) instead of campaigning")
	traceOut := fs.String("trace", "", "replay only: write the run's event stream to this JSONL file")
	record := fs.String("record", "", "write the campaign's schedule trace to this JSONL file (single workload)")
	replayTrace := fs.String("replaytrace", "", "re-execute a recorded schedule trace and diff against it")
	if err := fs.Parse(args); err != nil {
		return harness.ExitUsage
	}
	if *replayTrace != "" {
		return runReplayTrace(out, errOut, *replayTrace)
	}
	if *replay != "" {
		return runReplay(out, errOut, *workload, *replay, *seed, *procs, *ops, *traceOut)
	}

	loads, err := harness.Select(*workload)
	if err != nil {
		fmt.Fprintln(errOut, "nrlchaos:", err)
		return harness.ExitUsage
	}
	if *record != "" && len(loads) != 1 {
		fmt.Fprintf(errOut, "nrlchaos: -record needs a single -workload (got %d)\n", len(loads))
		return harness.ExitUsage
	}

	code := harness.ExitClean
	for _, w := range loads {
		res, err := chaos.Run(chaos.Config{
			Workload: w,
			Procs:    *procs, Ops: *ops,
			Runs: *runs, Seed: *seed,
			Rate: *rate, Boost: *boost, MaxCrashes: *maxCrashes,
			Target: *target, Shrink: *shrink,
		})
		if err != nil {
			fmt.Fprintf(errOut, "nrlchaos: %s: %v\n", w.Name, err)
			return harness.ExitUsage
		}
		printSummary(out, w, res, *procs, *ops)
		if *coverage {
			printCoverage(out, res.Coverage)
		}
		if *record != "" {
			if err := recordTraces(out, errOut, w, res, *procs, *ops, *record); err != nil {
				return harness.ExitUsage
			}
		}
		if res.Failure != nil {
			code = harness.ExitViolation
		} else if res.Stuck > 0 && code == harness.ExitClean {
			code = harness.ExitStuck
		}
	}
	return code
}

// recordTraces writes the campaign schedule trace and, when shrinking
// produced a reproducer, the minimized regression trace next to it.
func recordTraces(out, errOut io.Writer, w harness.Workload, res *chaos.Result, procs, ops int, path string) error {
	if err := res.Trace.WriteFile(path); err != nil {
		fmt.Fprintln(errOut, "nrlchaos:", err)
		return err
	}
	fmt.Fprintf(out, "  schedule trace: %s (%d rounds)\n", path, len(res.Trace.Rounds))
	if res.Failure == nil {
		return nil
	}
	minPath := strings.TrimSuffix(path, ".jsonl") + ".min.jsonl"
	tr := chaos.RegressionTrace(w, procs, ops, res.Failure,
		fmt.Sprintf("minimized from campaign seed %d run %d", res.Trace.Header.Seed, res.Failure.Run))
	if err := tr.WriteFile(minPath); err != nil {
		fmt.Fprintln(errOut, "nrlchaos:", err)
		return err
	}
	fmt.Fprintf(out, "  minimized regression trace: %s\n", minPath)
	return nil
}

// runReplayTrace re-executes a recorded simulated-campaign trace and
// reports the first divergence. Exit codes: 0 the replay matched the
// recording, 1 it diverged (the code's behavior has drifted), 3 the
// trace is unreadable or needs a live harness.
func runReplayTrace(out, errOut io.Writer, path string) int {
	rec, err := schedtrace.ReadFile(path)
	if err != nil {
		fmt.Fprintln(errOut, "nrlchaos:", err)
		return harness.ExitUsage
	}
	_, div, err := chaos.ReplayTrace(rec)
	if err != nil {
		fmt.Fprintln(errOut, "nrlchaos:", err)
		return harness.ExitUsage
	}
	fmt.Fprintf(out, "replaytrace %s: kind %s, workload %s, seed %d, %d rounds\n",
		path, rec.Header.Kind, rec.Header.Workload, rec.Header.Seed, len(rec.Rounds))
	if div != nil {
		fmt.Fprintf(out, "DIVERGED: %v\n", div)
		return harness.ExitViolation
	}
	fmt.Fprintln(out, "replay matched the recording")
	return harness.ExitClean
}

func printSummary(out io.Writer, w harness.Workload, res *chaos.Result, procs, ops int) {
	d, c := res.Coverage.Stats()
	fmt.Fprintf(out, "%-12s %d runs, %d crashes, coverage %d/%d coords (%.0f%%)",
		w.Name, res.Runs, res.Crashes, c, d, res.Coverage.Fraction()*100)
	if res.Stuck > 0 {
		fmt.Fprintf(out, ", %d stuck", res.Stuck)
	}
	if res.Partial > 0 {
		fmt.Fprintf(out, ", %d partial verdicts", res.Partial)
	}
	if res.Failure == nil {
		fmt.Fprintf(out, ": ok\n")
	} else {
		fmt.Fprintf(out, ": VIOLATION\n")
	}
	if res.Stuck > 0 && res.FirstStuck != nil {
		fmt.Fprintf(out, "  first stuck run:\n")
		printIndented(out, res.FirstStuck.String(), "    ")
	}
	if f := res.Failure; f != nil {
		fmt.Fprintf(out, "  run %d (seed %d): %v\n", f.Run, f.RunSeed, f.Err)
		fmt.Fprintf(out, "  crash sites: %s", chaos.FormatSites(f.Sites))
		if len(f.Shrunk) < len(f.Sites) {
			fmt.Fprintf(out, " -> shrunk to %s (%d replays)", chaos.FormatSites(f.Shrunk), f.ShrinkRuns)
		}
		fmt.Fprintln(out)
		fmt.Fprintf(out, "  replay: nrlchaos -workload %s -procs %d -ops %d -seed %d -replay %s\n",
			w.Name, procs, ops, f.RunSeed, chaos.FormatSites(f.Shrunk))
	}
}

func printCoverage(out io.Writer, cov *chaos.Coverage) {
	fmt.Fprintf(out, "  %-28s %8s %8s\n", "coordinate", "offered", "crashes")
	for _, row := range cov.Rows() {
		fmt.Fprintf(out, "  %-28s %8d %8d\n", row.Coord, row.Offered, row.Crashes)
	}
}

func printIndented(out io.Writer, s, prefix string) {
	for len(s) > 0 {
		line := s
		if i := indexByte(s, '\n'); i >= 0 {
			line, s = s[:i], s[i+1:]
		} else {
			s = ""
		}
		fmt.Fprintf(out, "%s%s\n", prefix, line)
	}
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func runReplay(out, errOut io.Writer, workload, sitesFlag string, seed int64, procs, ops int, traceOut string) int {
	w, ok := harness.WorkloadByName(workload)
	if !ok || workload == "all" {
		fmt.Fprintf(errOut, "nrlchaos: -replay needs a single workload (want %s)\n", harness.WorkloadUsage())
		return harness.ExitUsage
	}
	sites, err := chaos.ParseSites(sitesFlag)
	if err != nil {
		fmt.Fprintln(errOut, "nrlchaos:", err)
		return harness.ExitUsage
	}
	var tr trace.Tracer
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintln(errOut, "nrlchaos:", err)
			return harness.ExitUsage
		}
		defer f.Close()
		jl := trace.NewJSONL(f)
		defer jl.Flush()
		tr = jl
	}
	h, verdict := chaos.ReplayTraced(w, procs, ops, seed, sites, 0, 0, tr)
	fmt.Fprintf(out, "replay %s seed %d sites %s: %d history steps\n",
		w.Name, seed, chaos.FormatSites(sites), len(h.Steps))
	if verdict == nil {
		fmt.Fprintln(out, "verdict: ok (no NRL violation)")
		return harness.ExitClean
	}
	var se *proc.StuckError
	if errors.As(verdict, &se) {
		fmt.Fprintln(out, "verdict: STUCK")
		printIndented(out, se.Report.String(), "  ")
		return harness.ExitStuck
	}
	fmt.Fprintf(out, "verdict: VIOLATION: %v\nhistory:\n%s", verdict, h)
	return harness.ExitViolation
}
