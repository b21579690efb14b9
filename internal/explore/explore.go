// Package explore is a bounded exhaustive model checker for the
// crash-recovery model: it enumerates EVERY schedule of the controlled
// scheduler interleaved with EVERY crash placement (up to a crash budget)
// for a small configuration, runs each execution, and checks every
// resulting history for nesting-safe recoverable linearizability plus any
// user invariant.
//
// Executions under the controlled scheduler are deterministic functions
// of a decision sequence: each scheduler dispatch chooses among the
// runnable processes, and each step optionally crashes the running
// process. The explorer performs stateless depth-first search over that
// decision tree by replay: it re-runs the configuration with a recorded
// decision prefix, extends the frontier with first choices, and
// backtracks by bumping the deepest non-exhausted decision.
//
// This turns the paper's Lemmas 2 and 3 and Algorithm 4's correctness
// argument into machine-checked facts for bounded configurations: for
// example, every interleaving of two recoverable WRITEs with every
// single-crash placement satisfies NRL (see the package tests, which
// enumerate tens of thousands of executions per configuration).
package explore

import (
	"fmt"

	"nrl/internal/harness"
	"nrl/internal/history"
	"nrl/internal/linearize"
	"nrl/internal/proc"
)

// Config describes the bounded space to enumerate.
type Config struct {
	// Procs is the number of processes.
	Procs int
	// Build constructs the objects under test on a fresh system and
	// returns the per-process programs. It is called once per execution.
	Build func(sys *proc.System) map[int]func(*proc.Ctx)
	// Models wires the sequential specifications for the NRL check.
	Models linearize.ModelFor
	// MaxCrashes bounds the number of crashes per execution (0 = crash-free
	// exploration).
	MaxCrashes int
	// MaxDecisions aborts a single execution after this many decisions,
	// guarding against unbounded busy-wait subtrees (default 100000).
	MaxDecisions int
	// MaxRuns aborts the whole exploration after this many executions
	// (default 5,000,000), guarding against state-space blowups.
	MaxRuns int
	// Invariant, if non-nil, is checked after every execution.
	Invariant func(sys *proc.System, h history.History) error
}

// ForWorkload is the bounded configuration of a registry workload:
// two processes (or the count the workload pins), one operation each,
// checked against the workload's models. The crash budget and run cap
// are the caller's.
func ForWorkload(w harness.Workload) Config {
	procs := w.Procs(2)
	return Config{
		Procs: procs,
		Build: func(sys *proc.System) map[int]func(*proc.Ctx) {
			return w.Build(sys, procs, 1)
		},
		Models: w.Models,
	}
}

// Stats reports what an exploration covered.
type Stats struct {
	// Runs is the number of distinct executions enumerated.
	Runs int
	// Crashes is the total number of crashes injected across executions.
	Crashes int
	// MaxDepth is the longest decision sequence encountered.
	MaxDepth int
	// Complete reports whether the space was fully enumerated (false if
	// MaxRuns stopped the search early).
	Complete bool
}

type decision struct {
	options int
	chosen  int
}

// engine drives one exploration: it replays the recorded prefix and
// extends it with first choices.
type engine struct {
	script []decision
	pos    int
	limit  int
	over   bool
}

func (e *engine) choose(options int) int {
	if options <= 0 {
		panic("explore: choose with no options")
	}
	if e.pos >= e.limit {
		e.over = true
		// Fall back to the first option so the run terminates quickly;
		// the run will be reported as overflowing.
		if e.pos < len(e.script) {
			d := e.script[e.pos]
			e.pos++
			return d.chosen
		}
		return 0
	}
	if e.pos < len(e.script) {
		d := e.script[e.pos]
		e.pos++
		if d.chosen >= options {
			panic(fmt.Sprintf("explore: replay divergence: decision %d has %d options, recorded choice %d",
				e.pos-1, options, d.chosen))
		}
		return d.chosen
	}
	e.script = append(e.script, decision{options: options, chosen: 0})
	e.pos++
	return 0
}

// backtrack advances the script to the next leaf in DFS order, reporting
// false when the tree is exhausted.
func (e *engine) backtrack() bool {
	for i := len(e.script) - 1; i >= 0; i-- {
		if e.script[i].chosen+1 < e.script[i].options {
			e.script[i].chosen++
			e.script = e.script[:i+1]
			return true
		}
	}
	return false
}

// picker adapts the engine to the controlled scheduler.
func (e *engine) picker(candidates []int, step int) int {
	return candidates[e.choose(len(candidates))]
}

// injector adapts the engine to the crash-decision points.
type injector struct {
	eng     *engine
	budget  int
	crashes int
}

func (in *injector) ShouldCrash(pt proc.CrashPoint) bool {
	if in.crashes >= in.budget {
		return false
	}
	if in.eng.choose(2) == 1 {
		in.crashes++
		return true
	}
	return false
}

// Run exhaustively enumerates the configuration's executions. It returns
// the first violation found (with the offending history rendered into the
// error) or nil if every execution satisfies NRL and the invariant.
func Run(cfg Config) (Stats, error) {
	if cfg.Procs <= 0 || cfg.Build == nil || cfg.Models == nil {
		return Stats{}, fmt.Errorf("explore: Procs, Build and Models are required")
	}
	maxDecisions := cfg.MaxDecisions
	if maxDecisions == 0 {
		maxDecisions = 100000
	}
	maxRuns := cfg.MaxRuns
	if maxRuns == 0 {
		maxRuns = 5000000
	}
	eng := &engine{limit: maxDecisions}
	var stats Stats
	for {
		if stats.Runs >= maxRuns {
			return stats, nil // Complete stays false
		}
		eng.pos = 0
		eng.over = false
		inj := &injector{eng: eng, budget: cfg.MaxCrashes}
		rec := history.NewRecorder()
		sys := proc.NewSystem(proc.Config{
			Procs:     cfg.Procs,
			Recorder:  rec,
			Injector:  inj,
			Scheduler: proc.NewControlled(eng.picker),
			// Bound await loops by the decision budget so a livelocked
			// branch aborts with a recoverable panic instead of hanging.
			AwaitBudget:   maxDecisions,
			RecoverPanics: true,
		})
		bodies := cfg.Build(sys)
		runErr := sys.Run(bodies)
		stats.Runs++
		stats.Crashes += inj.crashes
		if eng.pos > stats.MaxDepth {
			stats.MaxDepth = eng.pos
		}
		if eng.over || runErr != nil {
			return stats, fmt.Errorf("explore: execution exceeded MaxDecisions=%d (unbounded loop in the configuration?): %v", maxDecisions, runErr)
		}
		h := rec.History()
		if err := linearize.CheckNRL(cfg.Models, h); err != nil {
			return stats, fmt.Errorf("run %d: NRL violated: %w\nhistory:\n%s", stats.Runs, err, h)
		}
		if cfg.Invariant != nil {
			if err := cfg.Invariant(sys, h); err != nil {
				return stats, fmt.Errorf("run %d: invariant violated: %w\nhistory:\n%s", stats.Runs, err, h)
			}
		}
		if !eng.backtrack() {
			stats.Complete = true
			return stats, nil
		}
	}
}
