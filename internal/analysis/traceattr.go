package analysis

import (
	"go/ast"
	"go/constant"
)

// TraceAttr keeps the flight recorder's records honest: forensics is
// only as useful as the records' attribution, and a kindless or
// unattributed record silently corrupts the in-flight report it was
// written to explain. (Trace events need no such rule: nvm's primitives
// take only the issuing pid, and proc fills Obj and Op from the frame,
// so their attribution cannot be written by hand.)
//
//   - untyped-record: a flightrec.Rec literal carries no Kind (or a
//     constant-zero Kind). The zero Rec is not a valid record; a ring
//     full of kindless records decodes as torn garbage after the one
//     crash it was supposed to explain.
//   - unattributed-record: a flightrec.Rec literal with a lifecycle
//     Kind (begin/end/crash/recovery/checkpoint) has a missing or
//     constant-empty Obj. Forensics groups the in-flight op tree by
//     object name; an unattributed lifecycle record is a tree node
//     nobody can find.
var TraceAttr = &Analyzer{
	Name: "traceattr",
	Doc:  "recorder records must carry a kind, and lifecycle records an object",
	Run:  runTraceAttr,
}

// lifecycleKindMin/Max mirror flightrec.Kind.Lifecycle: kinds
// KindBegin(1)..KindCheckpoint(6) describe one operation's progress and
// must name the object they describe. TestTraceAttrLifecycleRange pins
// these to the flightrec constants.
const (
	lifecycleKindMin = 1
	lifecycleKindMax = 6
)

func runTraceAttr(p *Pass) error {
	for _, fn := range funcDecls(p) {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok {
				if tv, ok := p.Info.Types[lit]; ok && tv.Type != nil && tv.Type.String() == recType {
					checkRecLit(p, lit)
				}
			}
			return true
		})
	}
	return nil
}

// checkRecLit vets one flightrec.Rec literal: every record needs a
// Kind, and lifecycle kinds need an Obj. Non-constant Kind or Obj
// expressions are someone else's provenance and are not second-guessed.
func checkRecLit(p *Pass, lit *ast.CompositeLit) {
	kindExpr := recField(lit, "Kind", 0)
	if kindExpr == nil {
		p.Reportf(lit.Pos(), "untyped-record",
			"flightrec.Rec literal has no Kind; the zero Rec is not a valid record")
		return
	}
	tv, ok := p.Info.Types[kindExpr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return
	}
	k, _ := constant.Int64Val(tv.Value)
	if k == 0 {
		p.Reportf(kindExpr.Pos(), "untyped-record",
			"flightrec.Rec literal has Kind zero; the zero Rec is not a valid record")
		return
	}
	if k < lifecycleKindMin || k > lifecycleKindMax {
		return
	}
	objExpr := recField(lit, "Obj", 3)
	if objExpr == nil {
		p.Reportf(lit.Pos(), "unattributed-record",
			"lifecycle flightrec.Rec literal has no Obj; forensics cannot place an unattributed record in the op tree")
		return
	}
	if otv, ok := p.Info.Types[objExpr]; ok && otv.Value != nil &&
		otv.Value.Kind() == constant.String && constant.StringVal(otv.Value) == "" {
		p.Reportf(objExpr.Pos(), "unattributed-record",
			"lifecycle flightrec.Rec literal has an empty Obj; forensics cannot place an unattributed record in the op tree")
	}
}

// recField returns the expression initialising the named flightrec.Rec
// field, honouring both keyed and positional literals (pos is the
// field's declaration index), or nil when the literal leaves it zero.
func recField(lit *ast.CompositeLit, name string, pos int) ast.Expr {
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == name {
				return kv.Value
			}
		}
	}
	if len(lit.Elts) > 0 {
		if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed && pos < len(lit.Elts) {
			return lit.Elts[pos]
		}
	}
	return nil
}
