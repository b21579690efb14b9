// Package nrl is a Go implementation of Nesting-Safe Recoverable
// Linearizability (Attiya, Ben-Baruch, Hendler, PODC 2018): an abstract
// individual-process crash-recovery model for non-volatile memory, the
// NRL correctness condition, nesting-safe recoverable base objects
// (read/write register, CAS, test-and-set), and modular constructions on
// top of them (counter, fetch-and-add, max-register, stack).
//
// The package is a facade: it re-exports the building blocks from the
// internal packages so that applications read naturally.
//
//	sys := nrl.NewSystem(nrl.Config{Procs: 4, Recorder: nrl.NewRecorder()})
//	ctr := nrl.NewCounter(sys, "ctr")
//	sys.Go(1, func(c *nrl.Ctx) { ctr.Inc(c) })
//	sys.Wait()
//
// See DESIGN.md for the model, the substitution decisions and the
// experiment index, and EXPERIMENTS.md for reproduction results.
package nrl

import (
	"nrl/internal/chaos"
	"nrl/internal/core"
	"nrl/internal/harness"
	"nrl/internal/history"
	"nrl/internal/linearize"
	"nrl/internal/nvm"
	"nrl/internal/objects"
	"nrl/internal/persist"
	"nrl/internal/proc"
	"nrl/internal/rme"
	"nrl/internal/spec"
	"nrl/internal/trace"
	"nrl/internal/universal"
)

// Core model types.
type (
	// System is the crash-recovery system: processes + NVRAM + scheduler
	// + crash injector + history recorder.
	System = proc.System
	// Config configures a System.
	Config = proc.Config
	// Ctx is the per-process execution context.
	Ctx = proc.Ctx
	// Operation is a recoverable operation (a resumable line machine).
	Operation = proc.Operation
	// OpInfo describes an Operation.
	OpInfo = proc.OpInfo
	// Injector decides where processes crash.
	Injector = proc.Injector
	// CrashPoint describes a potential crash site.
	CrashPoint = proc.CrashPoint
	// Scheduler controls interleaving.
	Scheduler = proc.Scheduler
	// Picker chooses the next process under the controlled scheduler.
	Picker = proc.Picker
	// Memory is the simulated NVRAM.
	Memory = nvm.Memory
	// Addr addresses one NVRAM word.
	Addr = nvm.Addr
	// History is a recorded operation history.
	History = history.History
	// Recorder collects history steps.
	Recorder = history.Recorder
	// Model is a sequential specification.
	Model = spec.Model
	// ModelFor resolves the model of an object by name.
	ModelFor = linearize.ModelFor
)

// Tracing and profiling (see internal/trace and DESIGN.md §Observability).
type (
	// Tracer receives structured trace events; install one via
	// Config.Tracer to record every operation lifecycle transition and
	// NVRAM primitive of a run.
	Tracer = trace.Tracer
	// TraceEvent is one structured trace event.
	TraceEvent = trace.Event
	// TraceKind discriminates trace events (invoke, crash, mem-cas, ...).
	TraceKind = trace.Kind
	// RingTracer keeps the last N events in memory (overwrite-oldest).
	RingTracer = trace.Ring
	// JSONLTracer streams events to an io.Writer, one JSON object per
	// line.
	JSONLTracer = trace.JSONL
	// NopTracer discards events. It is normalized to nil at install time,
	// so it costs exactly as much as no tracer at all.
	NopTracer = trace.Nop
	// MultiTracer fans events out to several sinks.
	MultiTracer = trace.Multi
	// TraceProfile aggregates a trace into per-object and per-process
	// latency, memory-traffic and recovery statistics.
	TraceProfile = trace.Profile
)

// Recoverable objects (the paper's algorithms and the extensions).
type (
	// Register is the recoverable read/write register (Algorithm 1).
	Register = core.Register
	// CASObject is the recoverable compare-and-swap object (Algorithm 2).
	CASObject = core.CASObject
	// TAS is the recoverable test-and-set object (Algorithm 3).
	TAS = core.TAS
	// Counter is the recoverable counter (Algorithm 4).
	Counter = objects.Counter
	// FAA is the recoverable fetch-and-add extension.
	FAA = objects.FAA
	// MaxRegister is the recoverable max-register extension.
	MaxRegister = objects.MaxRegister
	// Stack is the recoverable stack extension.
	Stack = objects.Stack
	// Queue is the recoverable FIFO queue extension.
	Queue = objects.Queue
	// Lock is the recoverable mutual-exclusion ticket lock extension.
	Lock = rme.Lock
	// Universal is the recoverable universal construction: any
	// deterministic sequential specification becomes an NRL object whose
	// responses are recovered by replaying a durable operation log.
	Universal = universal.Object
	// WFUniversal is the wait-free variant of the universal construction
	// (Herlihy-style turn-based helping).
	WFUniversal = universal.WFObject
)

// Constructors and helpers, re-exported.
var (
	// NewSystem creates a crash-recovery system.
	NewSystem = proc.NewSystem
	// NewRecorder creates a history recorder.
	NewRecorder = history.NewRecorder
	// NewMemory creates a simulated NVRAM (see nvm options).
	NewMemory = nvm.New
	// NewControlled creates the deterministic scheduler.
	NewControlled = proc.NewControlled
	// RandomPicker returns a seeded random scheduling picker.
	RandomPicker = proc.RandomPicker
	// RoundRobinPicker returns a round-robin picker.
	RoundRobinPicker = proc.RoundRobinPicker
	// ScriptPicker returns a scripted picker.
	ScriptPicker = proc.ScriptPicker

	// NewRingTracer creates an in-memory ring sink holding the last n
	// events (n <= 0 applies a default capacity).
	NewRingTracer = trace.NewRing
	// NewJSONLTracer creates a buffered JSONL sink over an io.Writer.
	NewJSONLTracer = trace.NewJSONL
	// BuildTraceProfile aggregates recorded events into a TraceProfile.
	BuildTraceProfile = trace.Build

	// NewRegister creates a recoverable register (Algorithm 1).
	NewRegister = core.NewRegister
	// NewCASObject creates a recoverable CAS object (Algorithm 2).
	NewCASObject = core.NewCASObject
	// NewTAS creates a recoverable test-and-set object (Algorithm 3).
	NewTAS = core.NewTAS
	// NewTASReadableBase creates the footnote-3 TAS variant (readable
	// base t&s instead of a doorway).
	NewTASReadableBase = core.NewTASReadableBase
	// NewCounter creates a recoverable counter (Algorithm 4).
	NewCounter = objects.NewCounter
	// NewFAA creates a recoverable fetch-and-add object.
	NewFAA = objects.NewFAA
	// NewMaxRegister creates a recoverable max-register.
	NewMaxRegister = objects.NewMaxRegister
	// NewStack creates a recoverable stack with the given capacity.
	NewStack = objects.NewStack
	// NewQueue creates a recoverable FIFO queue with the given capacity.
	NewQueue = objects.NewQueue
	// NewLock creates a recoverable mutual-exclusion ticket lock.
	NewLock = rme.NewLock
	// NewUniversal creates a recoverable object from any sequential
	// specification (the recoverable universal construction).
	NewUniversal = universal.New
	// NewWaitFreeUniversal creates the wait-free variant: every
	// invocation completes in a bounded number of its own steps, crashes
	// included, via turn-based helping.
	NewWaitFreeUniversal = universal.NewWaitFree

	// Distinct packs (pid, seq, payload) into a globally distinct
	// register value (Algorithm 1 requires distinct written values).
	Distinct = core.Distinct
	// DistinctCAS packs (pid, seq, payload) into a CAS-object value.
	DistinctCAS = core.DistinctCAS

	// CheckNRL verifies Definition 4 against a recorded history.
	CheckNRL = linearize.CheckNRL
	// CheckLinearizable verifies Definition 2 against a crash-free
	// history.
	CheckLinearizable = linearize.Check
)

// Crash injectors, re-exported.
type (
	// Never never crashes (the default).
	Never = proc.Never
	// AtLine crashes a process at a specific pseudo-code line, once.
	AtLine = proc.AtLine
	// AtStep crashes a process at a specific step count, once.
	AtStep = proc.AtStep
	// RandomCrash crashes each step with a fixed probability, bounded.
	RandomCrash = proc.Random
	// MultiInjector combines injectors.
	MultiInjector = proc.Multi
)

// Chaos campaigns and the livelock watchdog (see internal/chaos and
// DESIGN.md §Adversarial campaigns).
type (
	// ChaosConfig describes a coverage-guided crash campaign.
	ChaosConfig = chaos.Config
	// ChaosResult summarises a campaign.
	ChaosResult = chaos.Result
	// ChaosFailure is one shrunk, replayable NRL violation.
	ChaosFailure = chaos.Failure
	// ChaosCoverage is the campaign-wide crash-coordinate table.
	ChaosCoverage = chaos.Coverage
	// GuidedInjector biases crashes toward never-crashed coordinates.
	GuidedInjector = chaos.Guided
	// StagedInjector fires on the k-th point matching a target predicate.
	StagedInjector = chaos.Staged
	// TargetPredicate selects the crash region of a targeted campaign.
	TargetPredicate = chaos.Predicate
	// CrashSite is one replayable (process, per-process step) placement.
	CrashSite = chaos.CrashSite
	// Workload is a named registry entry shared by the check, sweep and
	// chaos CLIs.
	Workload = harness.Workload
	// StuckReport is the livelock watchdog's structured diagnosis: who is
	// parked in which Await, who they wait on, and whether progress is
	// still possible.
	StuckReport = proc.StuckReport
	// StuckError wraps a StuckReport as the panic/failure value replacing
	// the old raw await-budget panic; recover it with errors.As.
	StuckError = proc.StuckError
	// AwaitInfo is one parked process inside a StuckReport.
	AwaitInfo = proc.AwaitInfo
	// ArityError is the typed failure of an invocation exceeding the
	// frame arena's MaxOpArgs inline-argument bound (DESIGN.md §13);
	// recover it with errors.As, or take it directly from Ctx.TryInvoke.
	ArityError = proc.ArityError
	// DepthError is the typed failure of an invocation nesting past the
	// frame arena's MaxNestingDepth bound; recover it with errors.As, or
	// take it directly from Ctx.TryInvoke.
	DepthError = proc.DepthError
)

// Frame-arena bounds (DESIGN.md §13), re-exported: every process stores
// its pending recoverable operations in a fixed arena of MaxNestingDepth
// frames, each carrying at most MaxOpArgs inline argument words — the
// zero-allocation backing of the uncontended op hot path.
const (
	// MaxNestingDepth is the arena's depth bound k: the deepest chain of
	// nested recoverable operations a process may have pending.
	MaxNestingDepth = proc.MaxNestingDepth
	// MaxOpArgs is the arity bound: the number of argument words a frame
	// stores inline.
	MaxOpArgs = proc.MaxOpArgs
)

// Chaos constructors and helpers, re-exported.
var (
	// RunChaos executes a coverage-guided crash campaign.
	RunChaos = chaos.Run
	// ReplayChaos re-executes a (seed, sites) reproducer.
	ReplayChaos = chaos.Replay
	// NewGuidedInjector creates the coverage-guided injector.
	NewGuidedInjector = chaos.NewGuided
	// NewChaosCoverage creates an empty coverage table.
	NewChaosCoverage = chaos.NewCoverage
	// ParseTarget compiles a target expression ("recovery&depth>=2").
	ParseTarget = chaos.ParseTarget
	// ParseCrashSites parses the "p1@12,p2@40" reproducer syntax.
	ParseCrashSites = chaos.ParseSites
	// FormatCrashSites renders sites in the reproducer syntax.
	FormatCrashSites = chaos.FormatSites
	// WorkloadByName resolves a registry workload.
	WorkloadByName = harness.WorkloadByName
	// SplitSeed derives an independent seed stream (splitmix64).
	SplitSeed = proc.SplitSeed
	// NewRandomCrash creates a Random injector with an injected source,
	// for reproducible multi-stream campaigns.
	NewRandomCrash = proc.NewRandom

	// CheckNRLBudget is CheckNRL with a bounded WGL search; it returns an
	// error wrapping ErrSearchBudget when the bound is hit.
	CheckNRLBudget = linearize.CheckNRLBudget
)

// ErrSearchBudget is returned (wrapped) by the budgeted checkers when the
// WGL search exceeds its node budget.
var ErrSearchBudget = linearize.ErrSearchBudget

// DefaultCheckBudget is the WGL node budget the chaos campaigns settled
// on; commands pass it to CheckNRLBudget so a wide history degrades
// into an ErrSearchBudget verdict instead of hanging the tool.
const DefaultCheckBudget = chaos.DefaultCheckBudget

// CheckWindowed is CheckNRLBudget with the campaigns' sound degradation:
// on budget exhaustion it checks successively shorter prefixes and
// reports whether the verdict is partial.
var CheckWindowed = chaos.CheckWindowed

// Empty is the response of Stack.Pop on an empty stack.
const Empty = objects.Empty

// Durable storage: the file-backed persistence backend and the memory's
// degradation contract (see internal/persist and DESIGN.md §5b).
type (
	// Backend turns simulated persistence (Flush/Fence) into real
	// storage operations; install one with WithBackend.
	Backend = nvm.Backend
	// WordUpdate is one word of a backend commit batch.
	WordUpdate = nvm.WordUpdate
	// PersistPhase identifies a station of the persistence state
	// machine (dirty, flushing, fenced, mid-commit); observe the
	// transitions with WithPhaseHook.
	PersistPhase = nvm.Phase
	// DegradedError is the sticky typed error a memory or store carries
	// after exhausting its storage-failure retries; errors.Is matches
	// ErrDegraded, errors.As recovers the cause.
	DegradedError = nvm.DegradedError
	// PersistFile is the file-backed durable backend: checksummed
	// pages, a write-ahead commit log, torn-write repair on recovery.
	PersistFile = persist.File
	// PersistOptions configures opening a PersistFile.
	PersistOptions = persist.Options
	// RecoveryReport summarises a PersistFile's open-time recovery
	// scan.
	RecoveryReport = persist.RecoveryReport
	// CorruptError reports unrepairable storage damage; errors.Is
	// matches ErrCorrupt.
	CorruptError = persist.CorruptError
)

// Persistence phases, storage errors and constructors, re-exported.
var (
	// ErrDegraded is the sentinel matched by a degraded memory's or
	// store's errors.
	ErrDegraded = nvm.ErrDegraded
	// ErrCorrupt is the sentinel matched by unrepairable-corruption
	// errors from OpenPersistFile.
	ErrCorrupt = persist.ErrCorrupt

	// OpenPersistFile opens (creating or recovering) a file-backed
	// store directory.
	OpenPersistFile = persist.Open
	// WithBackend makes a Memory persist through a Backend: Fence
	// commits the flushed words to storage before the simulated durable
	// state advances.
	WithBackend = nvm.WithBackend
	// WithPhaseHook observes persistence-phase transitions (the kill
	// harness uses this to report where a crash landed).
	WithPhaseHook = nvm.WithPhaseHook
	// WithMode selects the persistence mode of a new Memory.
	WithMode = nvm.WithMode
)

// Persistence modes and phases, re-exported as constants.
const (
	// ADR models Asynchronous DRAM Refresh: every store is durable (the
	// paper's model).
	ADR = nvm.ADR
	// BufferedMode models write-back persistence: stores need explicit
	// Flush and Fence to become durable.
	BufferedMode = nvm.Buffered

	// PhaseIdle through PhaseMidCommit are the stations of the
	// persistence state machine (DESIGN.md §5b).
	PhaseIdle      = nvm.PhaseIdle
	PhaseDirty     = nvm.PhaseDirty
	PhaseFlushing  = nvm.PhaseFlushing
	PhaseFenced    = nvm.PhaseFenced
	PhaseMidCommit = nvm.PhaseMidCommit
)

// Real-crash kill harness (see internal/chaos and cmd/nrlchaos -real):
// one worker and one campaign, over a replica set of KillConfig.Replicas
// stores (one store by default).
type (
	// KillConfig configures a real process-kill campaign.
	KillConfig = chaos.KillConfig
	// KillResult summarises a kill campaign; its Trace carries every
	// round.
	KillResult = chaos.KillResult
	// KillWorkerConfig configures one kill-harness worker incarnation;
	// the campaign builds one per round for KillConfig.Worker.
	KillWorkerConfig = chaos.KillWorkerConfig
	// PhaseCoverage tabulates which persistence phases kills landed in.
	PhaseCoverage = chaos.PhaseCoverage
)

// Kill-harness entry points, re-exported.
var (
	// RunKillCampaign SIGKILLs worker processes at seeded kill points
	// (injuring one member per round when a quorum survives it) and
	// verifies every restart recovers an NRL-consistent state.
	RunKillCampaign = chaos.RunKillCampaign
	// RunKillWorker runs one worker incarnation (call from a subprocess
	// entry point; see cmd/nrlchaos -realworker).
	RunKillWorker = chaos.RunKillWorker
	// NewPhaseCoverage creates an empty phase-coverage table.
	NewPhaseCoverage = chaos.NewPhaseCoverage
)

// Models builds a ModelFor that resolves both the objects the caller
// names explicitly and, by naming convention, the recoverable base
// objects nested inside this package's composite objects:
//
//	<name>.R[i]                      — registers inside a Counter
//	<name>.cas, .top, .head, .tail   — CAS objects inside FAA,
//	                                   MaxRegister, Stack and Queue
//	<name>.alloc, <name>.next        — FAA objects inside Stack, Queue
//	                                   and Lock
func Models(explicit map[string]Model) ModelFor {
	return linearize.ConventionModels(explicit)
}

// Spec models, re-exported for use with Models.
type (
	// RegisterModel is the sequential specification of a register.
	RegisterModel = spec.Register
	// CASModel is the sequential specification of a CAS object.
	CASModel = spec.CAS
	// TASModel is the sequential specification of a TAS object.
	TASModel = spec.TAS
	// CounterModel is the sequential specification of a counter.
	CounterModel = spec.Counter
	// FAAModel is the sequential specification of a fetch-and-add object.
	FAAModel = spec.FAA
	// MaxRegisterModel is the sequential specification of a max-register.
	MaxRegisterModel = spec.MaxRegister
	// StackModel is the sequential specification of a stack.
	StackModel = spec.Stack
	// QueueModel is the sequential specification of a FIFO queue.
	QueueModel = spec.Queue
	// MutexModel is the sequential specification of a ticket lock.
	MutexModel = spec.Mutex
)
