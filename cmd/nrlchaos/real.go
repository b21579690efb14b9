package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"

	"nrl/internal/chaos"
	schedtrace "nrl/internal/chaos/trace"
	"nrl/internal/harness"
)

// runReal is the -real campaign: instead of simulated crashes inside
// one process, it SIGKILLs real worker processes (this binary re-run
// with -realworker) running a counter/log workload over a replica set
// of -replicas file-backed stores under -dir (one store by default, at
// DIR/r0), and checks every incarnation recovers to an NRL-consistent
// state. With three or more members each round also wipes, corrupts or
// disk-faults one member. Exit codes follow the campaign convention:
// 0 clean, 1 consistency violation.
func runReal(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("nrlchaos -real", flag.ContinueOnError)
	fs.SetOutput(errOut)
	rounds := fs.Int("rounds", 25, "worker incarnations to run (kills included)")
	seed := fs.Int64("seed", 1, "kill and fault schedule seed")
	replicas := fs.Int("replicas", 1, "replica-set size (>= 3 adds one member fault per round)")
	appends := fs.Int("appends", 40, "log appends per incarnation")
	capacity := fs.Int("capacity", 1<<16, "log capacity in records")
	dir := fs.String("dir", "", "replica-set root, members DIR/r0.. (default: a temp dir, removed on success)")
	keep := fs.Bool("keep", false, "keep the root directory even on success")
	// The default start-up kill window is long enough to get past
	// process start-up and the open-time checkpoint, so those rounds
	// sample recovery as well as start-up.
	maxDelay := fs.Duration("maxdelay", 120*time.Millisecond, "upper bound on the random kill delay from exec")
	record := fs.String("record", "", "write the campaign's schedule trace to this JSONL file")
	replayTrace := fs.String("replaytrace", "", "re-execute a recorded kill trace over a fresh root and diff its schedule")
	if err := fs.Parse(args); err != nil {
		return harness.ExitUsage
	}
	if *replicas < 1 {
		fmt.Fprintln(errOut, "nrlchaos: -replicas must be >= 1")
		return harness.ExitUsage
	}

	root := *dir
	if root == "" {
		d, err := os.MkdirTemp("", "nrlchaos-real-")
		if err != nil {
			fmt.Fprintln(errOut, "nrlchaos:", err)
			return harness.ExitUsage
		}
		root = d
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(errOut, "nrlchaos:", err)
		return harness.ExitUsage
	}
	worker := func(wc chaos.KillWorkerConfig) *exec.Cmd {
		wargs := []string{"-realworker",
			"-dir", wc.Root,
			"-replicas", strconv.Itoa(wc.Replicas),
			"-appends", strconv.Itoa(wc.Appends),
			"-capacity", strconv.Itoa(wc.Capacity),
			"-faultdir", strconv.Itoa(wc.FaultDir),
			"-faultafter", strconv.Itoa(wc.FaultAfter),
			"-faultfor", strconv.Itoa(wc.FaultFor),
			"-seed", strconv.FormatInt(wc.Seed, 10),
		}
		if wc.Verify {
			wargs = append(wargs, "-verify")
		}
		return exec.Command(exe, wargs...)
	}

	var res *chaos.KillResult
	var div *schedtrace.Divergence
	if *replayTrace != "" {
		// Replay: the recorded header carries the campaign's whole
		// shape (rounds, seed, kill window, members, appends,
		// capacity); only the root comes from the flags.
		rec, rerr := schedtrace.ReadFile(*replayTrace)
		if rerr != nil {
			fmt.Fprintln(errOut, "nrlchaos:", rerr)
			return harness.ExitUsage
		}
		res, div, err = chaos.ReplayKillTrace(rec, root, worker)
	} else {
		res, err = chaos.RunKillCampaign(chaos.KillConfig{
			Rounds:       *rounds,
			Seed:         *seed,
			MaxKillDelay: *maxDelay,
			Root:         root,
			Replicas:     *replicas,
			Appends:      *appends,
			Capacity:     *capacity,
			Worker:       worker,
		})
	}
	if err != nil {
		fmt.Fprintln(errOut, "nrlchaos:", err)
		return harness.ExitUsage
	}
	if *record != "" {
		if werr := res.Trace.WriteFile(*record); werr != nil {
			fmt.Fprintln(errOut, "nrlchaos:", werr)
			return harness.ExitUsage
		}
		fmt.Fprintf(out, "schedule trace: %s (%d rounds)\n", *record, len(res.Trace.Rounds))
	}

	hdr := res.Trace.Header // the campaign's shape, recorded or replayed
	fmt.Fprintf(out, "real-crash    %d rounds", hdr.Rounds)
	if hdr.Replicas > 1 {
		fmt.Fprintf(out, " over %d replicas", hdr.Replicas)
	}
	fmt.Fprintf(out, ", %d kills, %d clean exits, final log length %d", res.Kills, res.CleanExits, res.FinalLen)
	if res.TornWrites > 0 {
		fmt.Fprintf(out, ", %d torn pages (%d repaired)", res.TornWrites, res.RepairedWrites)
	}
	if hdr.Replicas == 1 {
		fmt.Fprintf(out, ", %d black-box checks", res.BlackBoxChecks)
		if res.BlackBoxTorn > 0 {
			fmt.Fprintf(out, " (%d torn recorder slots)", res.BlackBoxTorn)
		}
	}
	if len(res.Failures) == 0 {
		fmt.Fprintf(out, ": ok\n")
	} else {
		fmt.Fprintf(out, ": VIOLATION\n")
	}
	if len(res.Faults) > 0 {
		fmt.Fprintf(out, "member faults: %d wipe, %d corrupt, %d disk (%d on the leader); %d promotions, %d heals, final epoch %d\n",
			res.Faults["wipe"], res.Faults["corrupt"], res.Faults["disk"], res.LeaderFaults,
			res.Promotions, res.Heals, res.FinalEpoch)
	}
	fmt.Fprintf(out, "kill phase coverage (%d distinct):\n", res.Phases.Distinct())
	printIndented(out, res.Phases.String(), "  ")
	if len(res.Failures) > 0 {
		for _, f := range res.Failures {
			fmt.Fprintf(out, "  %s\n", f)
		}
		for _, tr := range res.Transcripts {
			printIndented(out, tr, "  ")
		}
		fmt.Fprintf(out, "root kept for inspection: %s\n", root)
		return harness.ExitViolation
	}
	if div != nil {
		fmt.Fprintf(out, "schedule DIVERGED from %s: %v\n", *replayTrace, div)
		return harness.ExitViolation
	}
	if *replayTrace != "" {
		fmt.Fprintf(out, "schedule matched the recording %s\n", *replayTrace)
	}
	if *keep || *dir != "" {
		fmt.Fprintf(out, "root: %s\n", root)
	} else {
		os.RemoveAll(root)
	}
	return harness.ExitClean
}

// runRealWorker is the -realworker mode: one incarnation of the
// kill-harness workload, spawned by runReal (or by hand for debugging).
// Its stdout is the worker line protocol; its exit code is one of the
// chaos.KillWorker codes.
func runRealWorker(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("nrlchaos -realworker", flag.ContinueOnError)
	fs.SetOutput(errOut)
	dir := fs.String("dir", "", "replica-set root (members DIR/r0..)")
	replicas := fs.Int("replicas", 1, "replica-set size")
	appends := fs.Int("appends", 40, "log appends to perform")
	capacity := fs.Int("capacity", 1<<16, "log capacity in records")
	faultDir := fs.Int("faultdir", -1, "member index whose I/O is dead (-1 none)")
	faultAfter := fs.Int("faultafter", 0, "append count after which the fault arms")
	faultFor := fs.Int("faultfor", 0, "appends the fault stays armed (0 = forever)")
	seed := fs.Int64("seed", 0, "replica-set jitter seed for this incarnation")
	verify := fs.Bool("verify", false, "recover and verify only, no appends")
	if err := fs.Parse(args); err != nil {
		return harness.ExitUsage
	}
	if *dir == "" || *replicas < 1 {
		fmt.Fprintln(errOut, "nrlchaos: -realworker needs -dir and -replicas >= 1")
		return harness.ExitUsage
	}
	return chaos.RunKillWorker(chaos.KillWorkerConfig{
		Root:       *dir,
		Replicas:   *replicas,
		Appends:    *appends,
		Capacity:   *capacity,
		FaultDir:   *faultDir,
		FaultAfter: *faultAfter,
		FaultFor:   *faultFor,
		Seed:       *seed,
		Verify:     *verify,
	}, out)
}
