package analysis

import (
	"go/ast"
	"strings"
)

// PersistOrder enforces the flush-then-fence half of the buffered-mode
// persist discipline (DESIGN.md §5b, NVTraverse's flush/fence ordering):
//
//   - flush-no-fence: a flushed address whose flush can reach a return
//     without an intervening fence is not durable — the flush alone only
//     schedules write-back. Persist/PersistBuffered count as fenced, as
//     does a helper whose summary fences on all eventful paths.
//   - missed-flush: within a function that persists an address at all,
//     every store to that address must be followed by a flush of it on
//     every path to return. A function that persists A on one branch but
//     stores A and returns on another has a window where a power failure
//     un-linearizes a completed operation. Addresses are matched
//     semantically (resolved root object + field path, aliases
//     substituted — see addrKey); functions that never flush an address
//     make no claim about it (the paper's per-process crash model needs
//     no persistence instructions, and helping-matrix writes are
//     deliberately left to the reader's fence).
//
// Both rules are interprocedural: a helper whose persist-effect summary
// flushes its address parameter on all eventful paths counts as a flush
// of the argument at the call site, a summarized store through a helper
// creates the same obligation a direct store does, and a helper that
// fences discharges the fence obligation.
//
// RMW witnesses (CAS/TAS/FAA) are not treated as stores here: only a
// *successful* installation needs persisting, which is a branch-level
// property the witnessorder lattice covers.
var PersistOrder = &Analyzer{
	Name: "persistorder",
	Doc:  "nvm stores on paths to a return must be flushed and fenced",
	Run:  runPersistOrder,
}

func runPersistOrder(p *Pass) error {
	for _, fn := range funcDecls(p) {
		be := functionEvents(p, fn)
		events := be.all()
		if len(events) == 0 {
			continue
		}

		aliases := collectAliases(p.Info, fn)
		key := func(e ast.Expr) string { return p.addrKey(aliases, e) }

		// Addresses this function ever flushes, by semantic identity.
		flushed := map[string]bool{}
		for _, e := range events {
			if e.Flushes() {
				for _, a := range e.Addrs {
					flushed[key(a)] = true
				}
			}
		}

		for _, e := range events {
			switch {
			case e.Kind == EvWrite:
				addr := key(e.Addrs[0])
				if !flushed[addr] {
					continue
				}
				ok := be.followedOnAllPaths(e, func(f *Event) bool {
					if !f.Flushes() {
						return false
					}
					for _, a := range f.Addrs {
						if key(a) == addr {
							return true
						}
					}
					return false
				})
				if !ok {
					text := exprText(p.Fset, e.Addrs[0])
					p.Reportf(e.Pos, "missed-flush",
						"store to %s can reach a return without a flush of it, but this function persists %s elsewhere; flush+fence the store or it is lost on power failure", text, text)
				}
			case e.Kind == EvFlush:
				// Bare flush: needs a fence on every path to return.
				ok := be.followedOnAllPaths(e, func(f *Event) bool { return f.Fences() })
				if !ok {
					p.Reportf(e.Pos, "flush-no-fence",
						"flush of %s can reach a return without a fence; the flush alone does not make the store durable", exprText(p.Fset, e.Addrs[0]))
				}
			case e.Kind == EvHelper && e.helperFlush && !e.helperFence:
				// A helper that flushes but does not fence leaves the
				// fence obligation with this caller.
				ok := be.followedOnAllPaths(e, func(f *Event) bool { return f.Fences() })
				if !ok {
					var texts []string
					for _, a := range e.Addrs {
						texts = append(texts, exprText(p.Fset, a))
					}
					p.Reportf(e.Pos, "flush-no-fence",
						"helper flush of %s can reach a return without a fence; the flush alone does not make the store durable", strings.Join(texts, ", "))
				}
			}
		}
	}
	return nil
}
