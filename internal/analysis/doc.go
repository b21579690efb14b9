// Package analysis is nrlvet: a suite of static analyzers that enforce
// the repository's NRL persist-and-recovery discipline at build time.
//
// PRs 1–3 made discipline violations observable at runtime — traces,
// chaos campaigns, power-failure sweeps, real SIGKILL harnesses — but
// the rules they catch are structural conventions an author can silently
// break in any new object until a sweep happens to crash at the right
// event index. NVTraverse and "Tracking in Order to Recover" (PAPERS.md)
// observe that persistency-ordering rules are mechanical enough to check
// statically; this package encodes them as analyzers so the build
// rejects the bug instead of a lucky seed finding it.
//
// The suite (run by cmd/nrlvet, `make lint`, and the analysis tests):
//
//   - persistorder: flush-then-fence discipline. A flushed address must
//     be fenced on every path to return; an address the function
//     persists at all must be re-persisted after every store to it.
//   - recoverypure: recovery arms of an Exec state machine may not read
//     process-volatile locals captured before the crash, must use
//     RecStep (not Step), and may not call wall-clock/randomness
//     primitives whose re-execution diverges.
//   - witnessorder: `nrl:persist-before` field annotations declare a
//     store-ordering lattice (cell contents before link publication,
//     witness before ack, tag before install); stores must be persisted
//     before the declared publication ops on every path. Fields marked
//     `nrl:own-process` may share a fence (a co-fence satisfies a write
//     publication of one), and a persist deferred past a store to an
//     unmarked field or past any CAS is a shared-fold finding.
//   - traceattr: flight-recorder Rec literals must carry a Kind (plus
//     an Obj for lifecycle kinds), keeping the black box's forensics
//     trustworthy.
//   - checkconv: CLIs use the budgeted CheckNRLBudget conventions (and
//     never discard a budgeted verdict) rather than raw unbudgeted
//     checkers.
//
// False positives are suppressed with a trailing or preceding
// `//nrl:ignore <reason>` comment; the driver rejects ignores with an
// empty reason.
//
// The framework is self-contained (go/ast + go/types only): packages
// are typechecked from source with imports resolved through the build
// cache's export data (`go list -export`), so no external analysis
// dependency is required.
package analysis
