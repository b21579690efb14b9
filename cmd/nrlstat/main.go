// Command nrlstat runs a workload with tracing enabled and prints its
// profile: per-object and per-process operation counts, NVRAM traffic
// (including flushes and fences per completed operation), step-latency
// quantiles and the recovery-depth distribution of the injected crashes.
// It is the observability companion to cmd/nrltrace (which prints the
// raw history): nrltrace shows what happened, nrlstat shows how much.
//
// Runs are deterministic: a controlled scheduler with a seeded picker
// and a seeded crash injector, and no wall-clock times in the output.
//
// Usage:
//
//	nrlstat [-scenario counter|cas|stack|mixed|durable-log]
//	        [-procs N] [-ops N] [-rate R] [-maxcrashes N] [-seed S]
//	        [-trace out.jsonl]
//	nrlstat -from run.jsonl
//	nrlstat forensics <store-dir | bbox-file>
//	nrlstat serve [-addr host:port] [-procs N] [-ops N]
//
// serve runs the counter workload once with full instrumentation and
// then keeps the live telemetry plane (/metrics, /healthz,
// /debug/pprof/) up on -addr until killed.
//
// -from replays a previously captured JSONL event stream through the
// same profile pipeline instead of running a workload; a final line
// torn by a crash is tolerated and reported. The forensics subcommand
// decodes a store's flight-recorder region and prints the reconstructed
// in-flight operation report (see internal/flightrec/forensics).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"nrl"
	"nrl/internal/core"
	"nrl/internal/durable"
	"nrl/internal/harness"
	"nrl/internal/nvm"
	"nrl/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "nrlstat:", err)
		os.Exit(1)
	}
}

type config struct {
	procs      int
	ops        int
	rate       float64
	maxCrashes int
	seed       int64
}

func run(args []string, w io.Writer) error {
	if len(args) > 0 && args[0] == "forensics" {
		return runForensics(args[1:], w)
	}
	if len(args) > 0 && args[0] == "serve" {
		return runServe(args[1:], w)
	}
	fs := flag.NewFlagSet("nrlstat", flag.ContinueOnError)
	scenario := fs.String("scenario", "counter", "workload: counter, cas, stack, mixed or durable-log")
	procs := fs.Int("procs", 3, "number of processes")
	ops := fs.Int("ops", 200, "operations per process")
	rate := fs.Float64("rate", 0.002, "crash probability per step")
	maxCrashes := fs.Int("maxcrashes", 10, "crash budget of the injector")
	seed := fs.Int64("seed", 1, "scheduler and injector seed")
	traceOut := fs.String("trace", "", "also write the full event stream to this JSONL file")
	from := fs.String("from", "", "replay a captured JSONL event stream instead of running a workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *from != "" {
		return runFrom(*from, w)
	}
	if *procs <= 0 || *ops <= 0 {
		return fmt.Errorf("-procs and -ops must be positive")
	}
	cfg := config{procs: *procs, ops: *ops, rate: *rate, maxCrashes: *maxCrashes, seed: *seed}

	// Every event goes into a ring (profiled below); -trace additionally
	// streams them to a file.
	ring := trace.NewRing(1 << 18)
	var tracer trace.Tracer = ring
	var sink *trace.JSONL
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		sink = trace.NewJSONL(f)
		tracer = trace.Multi{ring, sink}
	}

	var (
		check string
		raw   *nvm.StatsSnapshot // durable-log: counts of its untraced accesses
		err   error
	)
	switch *scenario {
	case "counter":
		check, err = counterScenario(cfg, tracer)
	case "cas":
		check, err = casScenario(cfg, tracer)
	case "stack":
		check, err = stackScenario(cfg, tracer)
	case "mixed":
		check, err = mixedScenario(cfg, tracer)
	case "durable-log":
		check, raw, err = durableLogScenario(cfg, tracer)
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
	if err != nil {
		return err
	}
	if sink != nil {
		if cerr := sink.Close(); cerr != nil {
			return fmt.Errorf("writing trace: %w", cerr)
		}
	}

	fmt.Fprintf(w, "scenario %s: procs=%d ops=%d rate=%g maxcrashes=%d seed=%d\n\n",
		*scenario, cfg.procs, cfg.ops, cfg.rate, cfg.maxCrashes, cfg.seed)
	p := trace.Build(ring.Events())
	if raw != nil {
		p.PerObject["log"].Mem = trace.MemCounts{
			Reads: raw.Reads, Writes: raw.Writes, CASes: raw.CASes, TASes: raw.TASes,
			FAAs: raw.FAAs, Flushes: raw.Flushes, Fences: raw.Fences,
		}
		p.Fences = raw.Fences
	}
	for _, tab := range harness.ProfileTables(p) {
		tab.Fprint(w)
	}
	fmt.Fprintf(w, "trace: %d events (%d dropped from the profile window)\n", ring.Total(), ring.Dropped())
	fmt.Fprintln(w, check)
	return nil
}

// newSys builds the deterministic traced system every proc-model scenario
// uses: controlled scheduler, seeded picker, seeded bounded crash
// injector, history recorder.
func newSys(cfg config, tracer trace.Tracer) (*nrl.System, *nrl.Recorder) {
	rec := nrl.NewRecorder()
	sys := nrl.NewSystem(nrl.Config{
		Procs:     cfg.procs,
		Recorder:  rec,
		Injector:  &nrl.RandomCrash{Rate: cfg.rate, Seed: cfg.seed, MaxCrashes: cfg.maxCrashes},
		Scheduler: nrl.NewControlled(nrl.RandomPicker(cfg.seed)),
		Tracer:    tracer,
	})
	return sys, rec
}

// checkNRL verifies the recorded history and returns the summary line.
// The verdict is budgeted so a pathological history cannot hang the
// stats pipeline; a windowed verdict is labelled as such.
func checkNRL(rec *nrl.Recorder, models nrl.ModelFor) (string, error) {
	violation, partial := nrl.CheckWindowed(models, rec.History(), nrl.DefaultCheckBudget)
	if violation != nil {
		return "", fmt.Errorf("NRL check failed: %w", violation)
	}
	if partial {
		return "NRL check: ok (windowed prefix verdict; search budget hit)", nil
	}
	return "NRL check: ok", nil
}

func counterScenario(cfg config, tracer trace.Tracer) (string, error) {
	sys, rec := newSys(cfg, tracer)
	ctr := nrl.NewCounter(sys, "ctr")
	bodies := map[int]func(*nrl.Ctx){}
	for p := 1; p <= cfg.procs; p++ {
		bodies[p] = func(c *nrl.Ctx) {
			for i := 0; i < cfg.ops; i++ {
				ctr.Inc(c)
			}
		}
	}
	if err := sys.Run(bodies); err != nil {
		return "", err
	}
	if got, want := ctr.Read(sys.Proc(1).Ctx()), uint64(cfg.procs*cfg.ops); got != want {
		return "", fmt.Errorf("final counter = %d, want %d", got, want)
	}
	return checkNRL(rec, nrl.Models(map[string]nrl.Model{"ctr": nrl.CounterModel{}}))
}

func casScenario(cfg config, tracer trace.Tracer) (string, error) {
	sys, rec := newSys(cfg, tracer)
	o := nrl.NewCASObject(sys, "cas")
	bodies := map[int]func(*nrl.Ctx){}
	for p := 1; p <= cfg.procs; p++ {
		bodies[p] = func(c *nrl.Ctx) {
			pid := c.P()
			for i := 0; i < cfg.ops; i++ {
				seq := uint32(i%core.MaxCASSeq) + 1
				next := nrl.DistinctCAS(pid, seq, uint32(i))
				for !o.CAS(c, o.Read(c), next) {
				}
			}
		}
	}
	if err := sys.Run(bodies); err != nil {
		return "", err
	}
	return checkNRL(rec, nrl.Models(map[string]nrl.Model{"cas": nrl.CASModel{}}))
}

func stackScenario(cfg config, tracer trace.Tracer) (string, error) {
	sys, rec := newSys(cfg, tracer)
	st := nrl.NewStack(sys, "st", cfg.procs*cfg.ops+16)
	bodies := map[int]func(*nrl.Ctx){}
	for p := 1; p <= cfg.procs; p++ {
		bodies[p] = func(c *nrl.Ctx) {
			pid := uint64(c.P())
			for i := 0; i < cfg.ops; i++ {
				st.Push(c, pid<<32|uint64(i)+1)
				st.Pop(c)
			}
		}
	}
	if err := sys.Run(bodies); err != nil {
		return "", err
	}
	return checkNRL(rec, nrl.Models(map[string]nrl.Model{"st": nrl.StackModel{}}))
}

func mixedScenario(cfg config, tracer trace.Tracer) (string, error) {
	sys, rec := newSys(cfg, tracer)
	ctr := nrl.NewCounter(sys, "ctr")
	st := nrl.NewStack(sys, "st", cfg.procs*cfg.ops+16)
	mx := nrl.NewMaxRegister(sys, "mx")
	bodies := map[int]func(*nrl.Ctx){}
	for p := 1; p <= cfg.procs; p++ {
		bodies[p] = func(c *nrl.Ctx) {
			pid := uint64(c.P())
			for i := 0; i < cfg.ops; i++ {
				switch i % 3 {
				case 0:
					ctr.Inc(c)
				case 1:
					st.Push(c, pid<<32|uint64(i)+1)
					st.Pop(c)
				case 2:
					mx.WriteMax(c, uint64(i)+1)
				}
			}
		}
	}
	if err := sys.Run(bodies); err != nil {
		return "", err
	}
	return checkNRL(rec, nrl.Models(map[string]nrl.Model{
		"ctr": nrl.CounterModel{},
		"st":  nrl.StackModel{},
		"mx":  nrl.MaxRegisterModel{},
	}))
}

// durableLogScenario exercises the full-system-crash extension instead of
// the per-process model: appends to a durably linearizable log on
// buffered NVRAM, with a power failure (nvm.Memory.CrashAll) halfway.
// The log bypasses the proc operation layer, so the scenario emits the
// lifecycle events itself — invoke/response around each append (as
// process 1), crash/recover at the power failure — and its raw memory
// accesses are not traced: it returns the memory's Stats, which the
// profile books under the log. That makes flush/op and fence/op in the
// profile real numbers: this is the one scenario where persistence is
// explicit (buffered mode) rather than elided by ADR. The NRL check is
// replaced by a durable-prefix check. -procs, -rate and -maxcrashes are
// ignored.
func durableLogScenario(cfg config, tracer trace.Tracer) (string, *nvm.StatsSnapshot, error) {
	mem := nvm.New(nvm.WithMode(nvm.Buffered))
	log := durable.NewLog(mem, "log", cfg.ops+1)
	appendOp := func(i int) {
		tracer.Emit(trace.Event{Kind: trace.Invoke, P: 1, Obj: "log", Op: "APPEND",
			Depth: 1, Addr: int32(nvm.InvalidAddr), Args: []uint64{uint64(i) + 1}})
		log.Append(uint64(i) + 1)
		tracer.Emit(trace.Event{Kind: trace.Response, P: 1, Obj: "log", Op: "APPEND",
			Depth: 1, Addr: int32(nvm.InvalidAddr)})
	}
	half := cfg.ops / 2
	for i := 0; i < half; i++ {
		appendOp(i)
	}
	mem.CrashAll()
	tracer.Emit(trace.Event{Kind: trace.Crash, P: 1, Obj: "log", Depth: 1,
		Addr: int32(nvm.InvalidAddr)})
	tracer.Emit(trace.Event{Kind: trace.Recover, P: 1, Obj: "log", Depth: 1,
		Addr: int32(nvm.InvalidAddr)})
	if got := log.Len(); got != uint64(half) {
		return "", nil, fmt.Errorf("after power failure: log length %d, want %d", got, half)
	}
	for i := half; i < cfg.ops; i++ {
		appendOp(i)
	}
	for i := 0; i < cfg.ops; i++ {
		if got := log.Get(uint64(i)); got != uint64(i)+1 {
			return "", nil, fmt.Errorf("record %d = %d, want %d", i, got, i+1)
		}
	}
	st := mem.Stats()
	return "durable-prefix check: ok", &st, nil
}
