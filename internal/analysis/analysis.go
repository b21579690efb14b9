package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"

	"nrl/internal/analysis/cfg"
)

// Diagnostic is one finding, positioned and attributed to an analyzer
// rule so drivers can render text or JSON and ignores can be applied.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Rule     string
	Message  string
}

// String renders the finding in the canonical pos: [analyzer/rule]
// message form used by the CLI's text output.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s/%s] %s", d.Pos, d.Analyzer, d.Rule, d.Message)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Prog is the interprocedural view shared by every pass of one
	// RunAnalyzers invocation: call graph, persist-effect summaries,
	// annotation registries, hot-path closure.
	Prog *Program

	analyzer string
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos under the given rule.
func (p *Pass) Reportf(pos token.Pos, rule, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Rule:     rule,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named pass over a package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Analyzers returns the full nrlvet suite, in reporting order. The
// ignore analyzer (empty-reason `//nrl:ignore`) is part of the suite:
// the escape hatch is only sound while every use of it is justified.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		PersistOrder,
		RecoveryPure,
		WitnessOrder,
		NestSafe,
		AllocFree,
		TraceAttr,
		CheckConv,
		DetClock,
		DocComment,
		Ignore,
	}
}

// AnalyzerByName returns the named analyzer from the suite, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAnalyzers applies the analyzers to every package, filters the
// results through `//nrl:ignore` comments, and returns the surviving
// diagnostics sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	prog := BuildProgram(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ig := collectIgnores(pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Pkg, Info: pkg.Info,
				Prog:     prog,
				analyzer: a.Name,
				report: func(d Diagnostic) {
					if a.Name != ignoreName && ig.suppressed(d.Pos) {
						return
					}
					diags = append(diags, d)
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", pkg.ImportPath, a.Name, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// ---- nvm/proc event model ----

// EventKind classifies a call's role in the persist discipline.
type EventKind int

const (
	EvNone            EventKind = iota // not discipline-relevant
	EvWrite                            // Memory.Write/WriteAt, Ctx.Write
	EvRMW                              // CAS/TAS/FAA and their *At forms
	EvFlush                            // Flush/FlushAt
	EvFence                            // Fence/FenceAt
	EvPersist                          // Persist (flush+fence of one word)
	EvPersistBuffered                  // Ctx.PersistBuffered(addrs...): flush each + fence
	EvHelper                           // summarized helper call: effects per flags
)

// Event is one discipline-relevant call.
type Event struct {
	Kind  EventKind
	Call  *ast.CallExpr
	Addrs []ast.Expr // the address operand(s); empty for fences
	Pos   token.Pos

	// EvHelper events carry the summarized callee's effects: whether
	// it flushes Addrs on all eventful paths and whether it fences.
	helperFlush bool
	helperFence bool
}

// Flushes reports whether the event initiates persistence of an address.
func (e *Event) Flushes() bool {
	switch e.Kind {
	case EvFlush, EvPersist, EvPersistBuffered:
		return true
	case EvHelper:
		return e.helperFlush
	}
	return false
}

// Fences reports whether the event orders outstanding flushes.
func (e *Event) Fences() bool {
	switch e.Kind {
	case EvFence, EvPersist, EvPersistBuffered:
		return true
	case EvHelper:
		return e.helperFence
	}
	return false
}

const (
	memoryType = "nrl/internal/nvm.Memory"
	ctxType    = "nrl/internal/proc.Ctx"
	recType    = "nrl/internal/flightrec.Rec"
)

// calleeFunc resolves a call to its *types.Func, nil for non-functions
// (conversions, builtins, func-typed variables).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.ObjectOf(fun)
	case *ast.SelectorExpr:
		obj = info.ObjectOf(fun.Sel)
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// recvNamed returns the full name of fn's pointer-receiver base type
// ("pkgpath.TypeName"), or "".
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// classify maps a call to its discipline event, or nil.
func classify(info *types.Info, call *ast.CallExpr) *Event {
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil
	}
	name := fn.Name()
	recv := recvNamed(fn)
	if recv != memoryType && recv != ctxType {
		return nil
	}
	ev := func(kind EventKind, addrs ...ast.Expr) *Event {
		return &Event{Kind: kind, Call: call, Addrs: addrs, Pos: call.Pos()}
	}
	arg0 := func() ast.Expr {
		if len(call.Args) > 0 {
			return call.Args[0]
		}
		return nil
	}
	switch name {
	case "Write", "WriteAt":
		if a := arg0(); a != nil {
			return ev(EvWrite, a)
		}
	case "CAS", "CASAt", "TAS", "TASAt", "FAA", "FAAAt":
		if a := arg0(); a != nil {
			return ev(EvRMW, a)
		}
	case "Flush", "FlushAt":
		if a := arg0(); a != nil {
			return ev(EvFlush, a)
		}
	case "Fence", "FenceAt":
		return ev(EvFence)
	case "Persist":
		if a := arg0(); a != nil {
			return ev(EvPersist, a)
		}
	case "PersistBuffered":
		return ev(EvPersistBuffered, call.Args...)
	}
	return nil
}

// exprText renders an expression as compact source text, the identity
// used to match a store's address against its flush.
func exprText(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, fset, e)
	return buf.String()
}

// collectAliases maps fn's single-assignment locals whose initializer
// is a pure path expression (idents, field selections, indexing,
// address-of) to that initializer, so addrKey can see through `r :=
// o.res; m.Flush(r[p])`. A local assigned more than once, or from a
// computed value, is opaque.
func collectAliases(info *types.Info, fn *ast.FuncDecl) map[types.Object]ast.Expr {
	counts := map[types.Object]int{}
	rhs := map[types.Object]ast.Expr{}
	bump := func(id *ast.Ident, n int, r ast.Expr) {
		obj := info.ObjectOf(id)
		if obj == nil {
			return
		}
		counts[obj] += n
		if r != nil {
			rhs[obj] = r
		}
	}
	ast.Inspect(fn, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, l := range s.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok {
					continue
				}
				if len(s.Lhs) == len(s.Rhs) {
					bump(id, 1, s.Rhs[i])
				} else {
					bump(id, 2, nil) // multi-value unpack: opaque
				}
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if len(s.Values) == len(s.Names) {
					bump(name, 1, s.Values[i])
				} else if len(s.Values) > 0 {
					bump(name, 2, nil)
				}
			}
		case *ast.IncDecStmt:
			if id, ok := s.X.(*ast.Ident); ok {
				bump(id, 2, nil)
			}
		case *ast.RangeStmt:
			for _, v := range []ast.Expr{s.Key, s.Value} {
				if id, ok := v.(*ast.Ident); ok {
					bump(id, 2, nil)
				}
			}
		}
		return true
	})
	out := map[types.Object]ast.Expr{}
	for obj, c := range counts {
		if c == 1 && isPathExpr(rhs[obj]) {
			out[obj] = rhs[obj]
		}
	}
	return out
}

// isPathExpr reports whether e is a pure address path: no calls, no
// arithmetic, just navigation.
func isPathExpr(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return isPathExpr(x.X)
	case *ast.IndexExpr:
		return isPathExpr(x.X)
	case *ast.UnaryExpr:
		return x.Op == token.AND && isPathExpr(x.X)
	}
	return false
}

// addrKey renders an address expression as a semantic identity:
// resolved root object plus field path, with single-assignment local
// aliases substituted (depth-capped), constants folded in index
// position, and source text only as the fallback for dynamic pieces.
// Two addrKey-equal expressions name the same address; the old
// source-text identity treated `o.res[p]` and `r[p]` (after `r :=
// o.res`) as different addresses.
func (p *Pass) addrKey(aliases map[types.Object]ast.Expr, e ast.Expr) string {
	return p.addrKeyDepth(aliases, e, 0)
}

func (p *Pass) addrKeyDepth(aliases map[types.Object]ast.Expr, e ast.Expr, depth int) string {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		obj := p.Info.ObjectOf(x)
		if obj == nil {
			return "t:" + exprText(p.Fset, e)
		}
		if r, ok := aliases[obj]; ok && depth < 4 {
			return p.addrKeyDepth(aliases, r, depth+1)
		}
		return fmt.Sprintf("o:%d", obj.Pos())
	case *ast.SelectorExpr:
		obj := p.Info.ObjectOf(x.Sel)
		if obj == nil {
			return "t:" + exprText(p.Fset, e)
		}
		return p.addrKeyDepth(aliases, x.X, depth) + fmt.Sprintf(".f:%d", obj.Pos())
	case *ast.IndexExpr:
		idx := "t:" + exprText(p.Fset, x.Index)
		if tv, ok := p.Info.Types[x.Index]; ok && tv.Value != nil {
			idx = "c:" + tv.Value.ExactString()
		} else if id, ok := ast.Unparen(x.Index).(*ast.Ident); ok {
			if obj := p.Info.ObjectOf(id); obj != nil {
				idx = fmt.Sprintf("o:%d", obj.Pos())
			}
		}
		return p.addrKeyDepth(aliases, x.X, depth) + "[" + idx + "]"
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return "&" + p.addrKeyDepth(aliases, x.X, depth)
		}
	}
	return "t:" + exprText(p.Fset, e)
}

// addrField resolves an address expression to the struct field it is
// rooted at: `o.obj.val[idx]` yields the `val` field. Index expressions
// are peeled so per-element addresses match field-level annotations.
func addrField(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				if v, ok := sel.Obj().(*types.Var); ok {
					return v
				}
			}
			if v, ok := info.ObjectOf(x.Sel).(*types.Var); ok && v.IsField() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// ---- CFG event placement and path queries ----

// blockEvents holds a function's events grouped by CFG block, in
// execution order within each block.
type blockEvents struct {
	graph  *cfg.Graph
	events map[*cfg.Block][]*Event
}

// functionEvents builds the CFG for fn and places its events,
// interprocedurally: helper calls with persist-effect summaries appear
// as synthesized write/flush/fence events at the call site.
func functionEvents(p *Pass, fn *ast.FuncDecl) *blockEvents {
	return buildEvents(p.Info, p.Prog, fn)
}

// buildEvents is functionEvents against an explicit Program (possibly
// mid-construction, for the summary fixed point). Closure bodies are
// skipped: their events run at call time, not where the literal sits.
func buildEvents(info *types.Info, prog *Program, fn *ast.FuncDecl) *blockEvents {
	g := cfg.Build(fn, info)
	be := &blockEvents{graph: g, events: map[*cfg.Block][]*Event{}}
	for _, blk := range g.Blocks {
		var evs []*Event
		for _, n := range blk.Nodes {
			ast.Inspect(n, func(n ast.Node) bool {
				if _, isLit := n.(*ast.FuncLit); isLit {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok {
					evs = append(evs, classifyCalls(info, prog, call)...)
				}
				return true
			})
		}
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Pos < evs[j].Pos })
		if len(evs) > 0 {
			be.events[blk] = evs
		}
	}
	return be
}

// all returns every event of the function in an arbitrary block order.
func (be *blockEvents) all() []*Event {
	var out []*Event
	for _, evs := range be.events {
		out = append(out, evs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// locate finds the block and in-block index of ev.
func (be *blockEvents) locate(ev *Event) (*cfg.Block, int) {
	for blk, evs := range be.events {
		for i, e := range evs {
			if e == ev {
				return blk, i
			}
		}
	}
	return nil, -1
}

// followedOnAllPaths reports whether every path from just after `ev` to
// the function's exit passes an event satisfying pred. Paths that never
// return (panic terminals, provably infinite loops) satisfy vacuously:
// an operation that does not complete owes no response-persistence.
func (be *blockEvents) followedOnAllPaths(ev *Event, pred func(*Event) bool) bool {
	start, idx := be.locate(ev)
	if start == nil {
		return false
	}
	for _, e := range be.events[start][idx+1:] {
		if pred(e) {
			return true
		}
	}
	sat := be.satisfiedFromEntry(pred)
	for _, s := range start.Succs {
		if !sat[s] {
			return false
		}
	}
	return len(start.Succs) > 0 || start != be.graph.Exit
}

// satisfiedFromEntry computes, for each block B, whether every path from
// B's entry to exit passes a pred event (greatest fixpoint: loops that
// cannot exit without passing pred count as satisfied).
func (be *blockEvents) satisfiedFromEntry(pred func(*Event) bool) map[*cfg.Block]bool {
	hasPred := map[*cfg.Block]bool{}
	for blk, evs := range be.events {
		for _, e := range evs {
			if pred(e) {
				hasPred[blk] = true
				break
			}
		}
	}
	sat := map[*cfg.Block]bool{}
	for _, blk := range be.graph.Blocks {
		sat[blk] = true
	}
	sat[be.graph.Exit] = false
	for changed := true; changed; {
		changed = false
		for _, blk := range be.graph.Blocks {
			if blk == be.graph.Exit || hasPred[blk] {
				continue
			}
			v := true
			if len(blk.Succs) == 0 {
				v = true // abnormal termination: vacuous
			} else {
				for _, s := range blk.Succs {
					if !sat[s] {
						v = false
						break
					}
				}
			}
			if v != sat[blk] {
				sat[blk] = v
				changed = true
			}
		}
	}
	return sat
}

// reachesBefore walks forward from `ev`, blocking at events satisfying
// stop, and returns the first encountered event satisfying target (with
// stop taking precedence within a block), or nil.
func (be *blockEvents) reachesBefore(ev *Event, stop, target func(*Event) bool) *Event {
	start, idx := be.locate(ev)
	if start == nil {
		return nil
	}
	if t := scanEvents(be.events[start][idx+1:], stop, target); t != nil {
		return t
	} else if blockedScan(be.events[start][idx+1:], stop) {
		return nil
	}
	seen := map[*cfg.Block]bool{start: true}
	queue := append([]*cfg.Block{}, start.Succs...)
	for len(queue) > 0 {
		blk := queue[0]
		queue = queue[1:]
		if seen[blk] {
			continue
		}
		seen[blk] = true
		if t := scanEvents(be.events[blk], stop, target); t != nil {
			return t
		} else if blockedScan(be.events[blk], stop) {
			continue
		}
		queue = append(queue, blk.Succs...)
	}
	return nil
}

// scanEvents returns the first target event before any stop event.
func scanEvents(evs []*Event, stop, target func(*Event) bool) *Event {
	for _, e := range evs {
		if target(e) {
			return e
		}
		if stop(e) {
			return nil
		}
	}
	return nil
}

// blockedScan reports whether a stop event occurs in evs.
func blockedScan(evs []*Event, stop func(*Event) bool) bool {
	for _, e := range evs {
		if stop(e) {
			return true
		}
	}
	return false
}

// funcDecls yields every function declaration with a body in the pass.
func funcDecls(p *Pass) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}
