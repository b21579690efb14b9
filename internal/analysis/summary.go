package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"

	"nrl/internal/analysis/cfg"
)

// Per-function persist-effect summaries. Each function's summary
// records what the function does to the persist discipline on behalf
// of its callers: which address parameters it flushes on every
// eventful path, whether it fences, which parameters it stores to,
// and the purity-relevant effects (wall-clock/rand calls, Ctx.Step,
// annotated recovery-state reads, heap allocations) it can reach.
// Summaries are computed bottom-up over the call graph's SCCs with a
// fixed point for recursion, then consumed at call sites: persistorder
// and witnessorder see a helper call as a synthesized flush/fence/write
// event, recoverypure flags recovery arms calling impure helpers, and
// nestsafe/allocfree read the state and allocation effects directly.

// summary is one function's persist-effect summary.
type summary struct {
	key      string
	numFixed int  // fixed (non-variadic) parameter count
	variadic bool // last parameter is variadic

	// flushedParams are parameter indices whose address is flushed on
	// every eventful path to return (eventless paths are mode guards —
	// Ctx.PersistBuffered's ADR early return — and make no claim).
	flushedParams []int
	// wroteParams are parameter indices the function may store to.
	wroteParams []int
	// flushesVariadic marks the PersistBuffered shape: a range over the
	// variadic address parameter flushing each element.
	flushesVariadic bool
	// fencesAll means every eventful path to return passes a fence.
	fencesAll bool

	volatile   []effect // wall-clock/rand/pid reachability
	steps      []effect // Ctx.Step reachability (LI-advancing)
	stateReads []effect // annotated nrl:recovery-state field reads
	allocs     []allocSite
}

// effect is one reachable purity-relevant call or read, with the
// helper chain it was inherited through ("" when direct).
type effect struct {
	name string
	via  string
	pos  token.Pos
}

// allocSite is one heap-allocation site within a function body.
type allocSite struct {
	pos  token.Pos
	desc string
}

// trustedFramework marks packages whose internals are exempt from
// purity/state propagation into callers: the execution framework's own
// Step/clock discipline is checked at its source, and propagating its
// internals would flag every recovery arm that invokes a nested
// operation through Ctx.
func trustedFramework(pf *progFunc) bool {
	return pf.pkg.Pkg.Path() == "nrl/internal/proc"
}

// computeSummaries fills prog.summaries bottom-up over the SCCs.
func (prog *Program) computeSummaries() {
	for _, comp := range prog.sccs() {
		if len(comp) == 1 && !hasSelfEdge(prog.fns[comp[0]]) {
			key := comp[0]
			prog.summaries[key] = prog.computeSummary(prog.fns[key])
			continue
		}
		for _, key := range comp {
			prog.summaries[key] = &summary{key: key}
		}
		for iter := 0; iter < 8; iter++ {
			changed := false
			for _, key := range comp {
				s := prog.computeSummary(prog.fns[key])
				if s.describe(prog.fns[key]) != prog.summaries[key].describe(prog.fns[key]) {
					changed = true
				}
				prog.summaries[key] = s
			}
			if !changed {
				break
			}
		}
	}
}

// hasSelfEdge reports direct self-recursion (an SCC of one with a loop).
func hasSelfEdge(pf *progFunc) bool {
	found := false
	ast.Inspect(pf.decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if funcKey(calleeFunc(pf.pkg.Info, call)) == pf.key {
				found = true
			}
		}
		return !found
	})
	return found
}

// declParams flattens a declaration's parameter objects in order;
// unnamed parameters occupy their index as nil.
func declParams(info *types.Info, fd *ast.FuncDecl) (params []types.Object, variadic bool) {
	if fd.Type.Params == nil {
		return nil, false
	}
	for _, fld := range fd.Type.Params.List {
		if _, isEll := fld.Type.(*ast.Ellipsis); isEll {
			variadic = true
		}
		if len(fld.Names) == 0 {
			params = append(params, nil)
			continue
		}
		for _, name := range fld.Names {
			params = append(params, info.Defs[name])
		}
	}
	return params, variadic
}

// computeSummary builds one function's summary against the summaries
// computed so far (callees first in SCC order; the enclosing fixed
// point handles recursion).
func (prog *Program) computeSummary(pf *progFunc) *summary {
	info := pf.pkg.Info
	fd := pf.decl
	s := &summary{key: pf.key}

	params, variadic := declParams(info, fd)
	s.variadic = variadic
	s.numFixed = len(params)
	if variadic {
		s.numFixed--
	}

	be := buildEvents(info, prog, fd)
	events := be.all()

	if len(events) > 0 {
		s.computePersistEffects(info, fd, be, events, params)
	}
	s.collectPurity(prog, pf)
	s.collectStateReads(prog, pf)
	s.allocs = collectAllocs(info, fd)
	return s
}

// computePersistEffects derives the flush/fence/write obligations the
// function discharges for its caller.
func (s *summary) computePersistEffects(info *types.Info, fd *ast.FuncDecl, be *blockEvents, events []*Event, params []types.Object) {
	addrIsObj := func(e *Event, obj types.Object) bool {
		for _, a := range e.Addrs {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok && info.ObjectOf(id) == obj {
				return true
			}
		}
		return false
	}
	for i, obj := range params {
		if obj == nil {
			continue
		}
		mayFlush, mayWrite := false, false
		for _, e := range events {
			if e.Flushes() && addrIsObj(e, obj) {
				mayFlush = true
			}
			if e.Kind == EvWrite && addrIsObj(e, obj) {
				mayWrite = true
			}
		}
		if mayWrite {
			s.wroteParams = append(s.wroteParams, i)
		}
		if mayFlush && be.onAllEventfulPaths(func(e *Event) bool { return e.Flushes() && addrIsObj(e, obj) }) {
			s.flushedParams = append(s.flushedParams, i)
		}
	}
	if s.variadic && len(params) > 0 && params[len(params)-1] != nil {
		elems := variadicElemObjs(info, fd, params[len(params)-1])
		for _, e := range events {
			if !e.Flushes() {
				continue
			}
			for _, a := range e.Addrs {
				if id, ok := ast.Unparen(a).(*ast.Ident); ok && elems[info.ObjectOf(id)] {
					s.flushesVariadic = true
				}
			}
		}
	}
	for _, e := range events {
		if e.Fences() {
			if be.onAllEventfulPaths(func(f *Event) bool { return f.Fences() }) {
				s.fencesAll = true
			}
			break
		}
	}
}

// variadicElemObjs returns the range-value objects of `for _, x :=
// range <variadic param>` loops: flushing x flushes each element.
func variadicElemObjs(info *types.Info, fd *ast.FuncDecl, vp types.Object) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(rs.X).(*ast.Ident)
		if !ok || info.ObjectOf(id) != vp {
			return true
		}
		if vid, ok := rs.Value.(*ast.Ident); ok {
			if obj := info.Defs[vid]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// collectPurity records wall-clock/rand/pid and Ctx.Step reachability,
// direct and through summarized callees.
func (s *summary) collectPurity(prog *Program, pf *progFunc) {
	info := pf.pkg.Info
	ast.Inspect(pf.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		if recvNamed(fn) == ctxType && fn.Name() == "Step" {
			s.addStep(effect{name: "Ctx.Step", pos: call.Pos()})
			return true
		}
		if fn.Pkg() != nil {
			if banned, known := volatilePrimitives[fn.Pkg().Path()]; known {
				if banned == nil || banned[fn.Name()] {
					s.addVolatile(effect{name: fn.Pkg().Path() + "." + fn.Name(), pos: call.Pos()})
				}
			}
		}
		key := funcKey(fn)
		if key == "" || key == s.key {
			return true
		}
		cf := prog.fns[key]
		cs := prog.summaries[key]
		if cf == nil || cs == nil || trustedFramework(cf) {
			return true
		}
		short := cf.decl.Name.Name
		for _, v := range cs.volatile {
			s.addVolatile(effect{name: v.name, via: chain(short, v.via), pos: call.Pos()})
		}
		for _, v := range cs.steps {
			s.addStep(effect{name: v.name, via: chain(short, v.via), pos: call.Pos()})
		}
		return true
	})
}

// collectStateReads records annotated recovery-state field accesses,
// direct and through summarized callees.
func (s *summary) collectStateReads(prog *Program, pf *progFunc) {
	info := pf.pkg.Info
	ast.Inspect(pf.decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if key, ok := stateFieldOf(info, x); ok {
				if _, annotated := prog.stateFields[key]; annotated {
					s.addStateRead(effect{name: key, pos: x.Pos()})
				}
			}
		case *ast.CallExpr:
			key := funcKey(calleeFunc(info, x))
			if key == "" || key == s.key {
				return true
			}
			cf := prog.fns[key]
			cs := prog.summaries[key]
			if cf == nil || cs == nil || trustedFramework(cf) {
				return true
			}
			short := cf.decl.Name.Name
			for _, v := range cs.stateReads {
				s.addStateRead(effect{name: v.name, via: chain(short, v.via), pos: x.Pos()})
			}
		}
		return true
	})
}

// stateFieldOf resolves a selector to its struct-field key
// ("pkgpath.Struct.field"), ok=false for non-field selections.
func stateFieldOf(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return "", false
	}
	v, ok := selection.Obj().(*types.Var)
	if !ok {
		return "", false
	}
	recv := selection.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", false
	}
	return obj.Pkg().Path() + "." + obj.Name() + "." + v.Name(), true
}

func (s *summary) addVolatile(e effect) {
	for _, have := range s.volatile {
		if have.name == e.name {
			return
		}
	}
	s.volatile = append(s.volatile, e)
}

func (s *summary) addStep(e effect) {
	for _, have := range s.steps {
		if have.name == e.name {
			return
		}
	}
	s.steps = append(s.steps, e)
}

func (s *summary) addStateRead(e effect) {
	for _, have := range s.stateReads {
		if have.name == e.name {
			return
		}
	}
	s.stateReads = append(s.stateReads, e)
}

// chain prefixes a via chain with one more helper, capped so mutual
// recursion converges to a stable rendering.
func chain(first, rest string) string {
	if rest == "" {
		return first
	}
	if strings.Count(rest, " → ") >= 2 {
		return first + " → …"
	}
	return first + " → " + rest
}

// classifyCalls maps a call to its discipline events: the intrinsic
// nvm/Ctx classification first, then the callee's summary rendered as
// synthesized events at the call site — a store
// through a helper is a write of the argument, a helper that flushes
// its address parameter on all eventful paths is a flush of the
// argument, a fencing helper is a fence.
func classifyCalls(info *types.Info, prog *Program, call *ast.CallExpr) []*Event {
	if e := classify(info, call); e != nil {
		return []*Event{e}
	}
	if prog == nil {
		return nil
	}
	sum := prog.summaries[funcKey(calleeFunc(info, call))]
	if sum == nil {
		return nil
	}
	var out []*Event
	for _, i := range sum.wroteParams {
		if i < len(call.Args) {
			out = append(out, &Event{Kind: EvWrite, Call: call, Addrs: []ast.Expr{call.Args[i]}, Pos: call.Pos()})
		}
	}
	var flushAddrs []ast.Expr
	for _, i := range sum.flushedParams {
		if i < len(call.Args) {
			flushAddrs = append(flushAddrs, call.Args[i])
		}
	}
	if sum.flushesVariadic && !call.Ellipsis.IsValid() && len(call.Args) > sum.numFixed {
		flushAddrs = append(flushAddrs, call.Args[sum.numFixed:]...)
	}
	if len(flushAddrs) > 0 || sum.fencesAll {
		out = append(out, &Event{
			Kind: EvHelper, Call: call, Addrs: flushAddrs, Pos: call.Pos(),
			helperFlush: len(flushAddrs) > 0, helperFence: sum.fencesAll,
		})
	}
	return out
}

// onAllEventfulPaths reports whether every entry-to-exit path carrying
// at least one discipline event also passes an event satisfying pred.
// Eventless paths make no claim — they are mode guards, like
// Ctx.PersistBuffered's ADR-mode early return.
func (be *blockEvents) onAllEventfulPaths(pred func(*Event) bool) bool {
	type visit struct {
		blk *cfg.Block
		st  uint8 // bit0: path has an event; bit1: path passed pred
	}
	seen := map[visit]bool{}
	var queue []visit
	push := func(b *cfg.Block, st uint8) {
		v := visit{b, st}
		if !seen[v] {
			seen[v] = true
			queue = append(queue, v)
		}
	}
	push(be.graph.Entry, 0)
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		st := v.st
		for _, e := range be.events[v.blk] {
			st |= 1
			if pred(e) {
				st |= 2
			}
		}
		if v.blk == be.graph.Exit && st == 1 {
			return false
		}
		for _, succ := range v.blk.Succs {
			push(succ, st)
		}
	}
	return true
}

// ---- heap-allocation sites (allocfree) ----

// collectAllocs records every heap-allocation site in fd's body:
// address-taken composite literals, make/new, append growth, closure
// and method-value captures, and concrete-to-interface boxing (call
// arguments, conversions, assignments, returns). Pointer-shaped values
// (*T, chan, map, func) box without allocating and are exempt, as is
// anything inside a panic argument — a dying path owes no allocation
// budget.
func collectAllocs(info *types.Info, fd *ast.FuncDecl) []allocSite {
	var out []allocSite
	add := func(pos token.Pos, format string, args ...any) {
		out = append(out, allocSite{pos: pos, desc: fmt.Sprintf(format, args...)})
	}

	var results []types.Type
	if fd.Type.Results != nil {
		for _, fld := range fd.Type.Results.List {
			t := info.TypeOf(fld.Type)
			n := len(fld.Names)
			if n == 0 {
				n = 1
			}
			for i := 0; i < n; i++ {
				results = append(results, t)
			}
		}
	}

	// Selector expressions used as call targets are method calls, not
	// heap-bound method values.
	callTargets := map[ast.Expr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callTargets[ast.Unparen(call.Fun)] = true
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, isB := info.ObjectOf(id).(*types.Builtin); isB {
					switch b.Name() {
					case "panic":
						return false
					case "append":
						add(x.Pos(), "append may grow its backing array on the heap")
					case "make":
						add(x.Pos(), "make(%s) allocates", typeLabel(info.TypeOf(x)))
					case "new":
						add(x.Pos(), "new allocates")
					}
					return true
				}
			}
			reportBoxedArgs(info, x, add)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if lit, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					add(x.Pos(), "escaping composite literal &%s{…}", typeLabel(info.TypeOf(lit)))
				}
			}
		case *ast.FuncLit:
			add(x.Pos(), "closure literal captures its environment on the heap")
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.MethodVal && !callTargets[x] {
				add(x.Pos(), "method value %s binds its receiver on the heap", x.Sel.Name)
			}
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					checkBox(info, info.TypeOf(x.Lhs[i]), x.Rhs[i], add)
				}
			}
		case *ast.ValueSpec:
			if x.Type != nil {
				t := info.TypeOf(x.Type)
				for _, v := range x.Values {
					checkBox(info, t, v, add)
				}
			}
		case *ast.ReturnStmt:
			if len(x.Results) == len(results) {
				for i, r := range x.Results {
					checkBox(info, results[i], r, add)
				}
			}
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// reportBoxedArgs flags call arguments boxed into interface parameters
// (including variadic ...any fan-in, the trace-attr boxing class) and
// interface conversions.
func reportBoxedArgs(info *types.Info, call *ast.CallExpr, add func(token.Pos, string, ...any)) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			checkBox(info, tv.Type, call.Args[0], add)
		}
		return
	}
	var sig *types.Signature
	if fn := calleeFunc(info, call); fn != nil {
		sig, _ = fn.Type().(*types.Signature)
	} else if tv, ok := info.Types[call.Fun]; ok && tv.Type != nil {
		sig, _ = tv.Type.Underlying().(*types.Signature)
	}
	if sig == nil {
		return
	}
	params := sig.Params()
	n := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if call.Ellipsis.IsValid() {
				continue
			}
			if sl, ok := params.At(n - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < n:
			pt = params.At(i).Type()
		}
		checkBox(info, pt, arg, add)
	}
}

// checkBox flags a concrete, non-pointer-shaped value flowing into an
// interface destination.
func checkBox(info *types.Info, dst types.Type, src ast.Expr, add func(token.Pos, string, ...any)) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	st := info.TypeOf(src)
	if st == nil || types.IsInterface(st) || pointerShaped(st) {
		return
	}
	if tv, ok := info.Types[src]; ok && tv.IsNil() {
		return
	}
	add(src.Pos(), "%s boxed into %s allocates", typeLabel(st), typeLabel(dst))
}

// pointerShaped reports types whose interface representation is the
// value itself (single pointer word): boxing them does not allocate.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// typeLabel renders a type with package names, not full paths.
func typeLabel(t types.Type) string {
	if t == nil {
		return "?"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// ---- summary rendering ----

// Dump writes every non-empty persist-effect summary, one line per
// function in key order: the `nrlvet -summary` debugging surface.
func (prog *Program) Dump(w io.Writer) {
	for _, key := range prog.keys {
		s := prog.summaries[key]
		if s == nil {
			continue
		}
		if line := s.describe(prog.fns[key]); line != "" {
			fmt.Fprintf(w, "%s: %s\n", key, line)
		}
	}
}

// describe renders the summary's effect components, "" when the
// function has no effects worth a line. The rendering doubles as the
// fixed-point convergence signature.
func (s *summary) describe(pf *progFunc) string {
	params, _ := declParams(pf.pkg.Info, pf.decl)
	pname := func(i int) string {
		if i < len(params) && params[i] != nil {
			return params[i].Name()
		}
		return fmt.Sprintf("#%d", i)
	}
	var parts []string
	if len(s.wroteParams) > 0 {
		var names []string
		for _, i := range s.wroteParams {
			names = append(names, pname(i))
		}
		parts = append(parts, "writes("+strings.Join(names, ",")+")")
	}
	if len(s.flushedParams) > 0 || s.flushesVariadic {
		var names []string
		for _, i := range s.flushedParams {
			names = append(names, pname(i))
		}
		if s.flushesVariadic {
			names = append(names, pname(len(params)-1)+"...")
		}
		parts = append(parts, "flushes("+strings.Join(names, ",")+")")
	}
	if s.fencesAll {
		parts = append(parts, "fences")
	}
	for _, v := range s.volatile {
		parts = append(parts, "volatile("+withVia(v)+")")
	}
	for _, v := range s.steps {
		parts = append(parts, "steps("+withVia(v)+")")
	}
	for _, v := range s.stateReads {
		parts = append(parts, "state-read("+withVia(v)+")")
	}
	if len(s.allocs) > 0 {
		parts = append(parts, fmt.Sprintf("allocs(%d)", len(s.allocs)))
	}
	return strings.Join(parts, "; ")
}

// withVia renders an effect name with its helper chain.
func withVia(e effect) string {
	if e.via == "" {
		return e.name
	}
	return e.name + " via " + e.via
}
