// Command perfbench is the repository's benchmark. One invocation runs
// one closed-loop workload from a seed: one goroutine per nrl process,
// each running its own seeded op script against the objects under test
// and waiting for every call before making the next. It times the
// scripted ops from outside through the objects' public calls, audits
// every outcome exactly, and prints every metric by name and unit. The
// last line of its output is a JSON result; the exit code is non-zero
// when an audit fails.
//
// Build and run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload mem-mix --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	mem-mix           the paper's model: ADR memory with no backend, a
//	                  counter/queue/stack mix, and per-process crash
//	                  streams that crash about one op in 100
//	durable-queue     a queue on Buffered memory over one persist.File:
//	                  every fence is a WAL append and fsync
//	replicated-queue  the same queue over a 3-member replica.Set
//
// With --trace 1, odd rounds install counting and timing wrappers around
// each layer's entry points and the result carries the per-layer metrics;
// the untraced rounds between them give the tracing overhead. Spans of the
// traced rounds are written to --spans at exit.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultProcs is the number of nrl processes, never more than the CPUs.
const defaultProcs = 2

func realMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fl.Int64("seed", 1, "seed every op script and crash stream derives from")
	seconds := fl.Float64("seconds", 10, "length of the timed phase, summed over rounds")
	traceFlag := fl.Int("trace", 0, "1: report per-layer metrics from traced rounds")
	tmp := fl.String("tmp", filepath.Join(".bench_build", "tmp"), "directory the per-run store root is created in")
	spansPath := fl.String("spans", "", "where a traced run writes its spans (default .bench_build/spans-<workload>.jsonl)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	traced := *traceFlag == 1

	// Every store of the run lives under one temp root, removed on every
	// way out: return, panic (deferred), and SIGINT/SIGTERM.
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	root, err := os.MkdirTemp(*tmp, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(root)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sigs)
		close(sigs)
	}()
	go func() {
		if _, ok := <-sigs; ok {
			os.RemoveAll(root)
			os.Exit(1)
		}
	}()

	procs := min(defaultProcs, runtime.NumCPU())
	cfg := config{workload: w, seed: *seed, seconds: *seconds, procs: procs, trace: traced, root: root}
	if traced {
		cfg.spans = &spanLog{origin: time.Now()}
	}
	writeHeader(stdout, cfg, root)
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if traced {
		path := *spansPath
		if path == "" {
			path = filepath.Join(".bench_build", "spans-"+w.name+".jsonl")
		}
		if err := cfg.spans.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans: %d written to %s\n", len(cfg.spans.spans), path)
	}
	if err := res.write(stdout, traced); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// writeHeader prints the environment every result depends on.
func writeHeader(w io.Writer, cfg config, root string) {
	cpus := runtime.NumCPU()
	mode := "parallel: procs <= cpus"
	if cfg.procs > cpus {
		mode = "interleaving: procs > cpus"
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%t\n", cfg.workload.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "# go=%s GOMAXPROCS=%d nproc=%d procs=%d (%s) closed loop\n",
		runtime.Version(), runtime.GOMAXPROCS(0), cpus, cfg.procs, mode)
	fmt.Fprintf(w, "# temp dir filesystem: %s\n", fsType(root))
	fmt.Fprintf(w, "# flush policy: %s\n", flushPolicy(cfg.workload))
	fmt.Fprintf(w, "# gc: off within a round; a full collection before each set-up and after each timed phase\n")
}

func flushPolicy(w *workload) string {
	switch w.backend {
	case fileBackend:
		return "Buffered memory; each fence is one Backend.Commit = one WAL append + fsync; 64 KiB segments; checkpoint every 256 KiB of WAL"
	case replicaBackend:
		return "Buffered memory; each fence is one Backend.Commit on a 3-member replica set (quorum 2): leader WAL append + fsync, shipped and fsynced on followers; checkpoint every 256 KiB of WAL"
	}
	return fmt.Sprintf("ADR memory, no backend: every store durable at once, no flushes; crash probability %g per step", crashPerStep)
}
