package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// WitnessOrder checks the store-ordering lattice of the buffered
// discipline from PR 3: cell contents are persisted before the link that
// publishes them, the witness before the ack, the tag counter before an
// install can use it. The lattice is declared where it is owed — on the
// object's address fields — with a field comment:
//
//	val  []nvm.Addr // nrl:persist-before next(cas): contents before link
//	resVal []nvm.Addr // nrl:persist-before resValid(write): witness before ack
//	mine []nvm.Addr // nrl:own-process: MyCell_p, read by p alone
//
// `A // nrl:persist-before B(kind)` means: within any function, a store
// to an address rooted at field A must be persisted (Flush+Fence,
// Persist, or Ctx.PersistBuffered) before any operation of the given kind
// (write, cas, or any) touches field B on any path. Matching is at field
// granularity, so per-element addresses (val[idx]) are covered.
//
// `nrl:own-process` marks a field whose plain stores no other process
// reads before they are durable: a process's own bookkeeping (MyCell_p,
// Seq_p, ResVal_p), or a cell's words while the cell is private. The
// clauses of one comment are separated by `;`. The mark does two things:
//
//   - A (write) publication of an own-process field B is its persist,
//     not its store, so A's constraint holds when A is persisted before
//     B or when one fence carries both (a co-fence: a multi-word fence
//     is atomic, so B is never durable without A).
//   - It licenses folds. A store whose persist is deferred (the
//     function flushes it later) must not reach a store to a field
//     without the mark, or any CAS, before that flush: those are words
//     other processes read, and each keeps persist-before-publish. A
//     CAS is always a publication, whatever its field is marked.
//
// The rule is path-sensitive over the refined CFG: a publication
// reachable from an unpersisted store is reported even when another
// branch persists correctly — exactly the bug class PR 3's power-failure
// sweeps needed a lucky crash index to expose.
var WitnessOrder = &Analyzer{
	Name: "witnessorder",
	Doc:  "stores must be persisted before the declared publication ops",
	Run:  runWitnessOrder,
}

// publishKind is the operation class that counts as publication.
type publishKind int

const (
	pubAny publishKind = iota
	pubWrite
	pubCAS
)

// orderConstraint is one parsed `nrl:persist-before` edge.
type orderConstraint struct {
	store   *types.Var // field whose stores must be persisted...
	publish *types.Var // ...before ops on this field
	kind    publishKind
}

const (
	persistBeforeMarker = "nrl:persist-before"
	ownProcessMarker    = "nrl:own-process"
)

// parseLattice extracts the ordering constraints and the own-process
// fields from struct field comments.
func parseLattice(p *Pass) (out []orderConstraint, own map[*types.Var]bool) {
	own = map[*types.Var]bool{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			// Resolve field names to objects within this struct.
			fieldObj := map[string]*types.Var{}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if v, ok := p.Info.Defs[name].(*types.Var); ok {
						fieldObj[name.Name] = v
					}
				}
			}
			for _, fld := range st.Fields.List {
				if fld.Comment == nil || len(fld.Names) == 0 {
					continue
				}
				for _, c := range fld.Comment.List {
					isOwn, specs := fieldDirectives(c.Text)
					if isOwn {
						for _, name := range fld.Names {
							if v, ok := fieldObj[name.Name]; ok {
								own[v] = true
							}
						}
					}
					for _, spec := range specs {
						for _, tgt := range parseTargets(spec) {
							pubField, ok := fieldObj[tgt.name]
							if !ok {
								p.Reportf(c.Pos(), "bad-annotation",
									"nrl:persist-before target %q is not a field of this struct", tgt.name)
								continue
							}
							for _, name := range fld.Names {
								if src, ok := fieldObj[name.Name]; ok {
									out = append(out, orderConstraint{store: src, publish: pubField, kind: tgt.kind})
								}
							}
						}
					}
				}
			}
			return true
		})
	}
	return out, own
}

type target struct {
	name string
	kind publishKind
}

// fieldDirectives reads a field comment's `;`-separated clauses: whether
// one is nrl:own-process, and the payload of each nrl:persist-before
// clause up to its optional ": rationale".
func fieldDirectives(comment string) (own bool, specs []string) {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	for _, clause := range strings.Split(text, ";") {
		clause = strings.TrimSpace(clause)
		switch {
		case strings.HasPrefix(clause, ownProcessMarker):
			own = true
		case strings.HasPrefix(clause, persistBeforeMarker):
			spec := strings.TrimSpace(strings.TrimPrefix(clause, persistBeforeMarker))
			if i := strings.Index(spec, ":"); i >= 0 {
				spec = spec[:i]
			}
			specs = append(specs, strings.TrimSpace(spec))
		}
	}
	return own, specs
}

// parseTargets parses "next(cas), resValid(write), other".
func parseTargets(spec string) []target {
	var out []target
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind := pubAny
		if i := strings.Index(part, "("); i >= 0 && strings.HasSuffix(part, ")") {
			switch part[i+1 : len(part)-1] {
			case "write":
				kind = pubWrite
			case "cas":
				kind = pubCAS
			}
			part = part[:i]
		}
		out = append(out, target{name: part, kind: kind})
	}
	return out
}

func (k publishKind) matches(e *Event) bool {
	switch k {
	case pubWrite:
		return e.Kind == EvWrite
	case pubCAS:
		return e.Kind == EvRMW
	default:
		return e.Kind == EvWrite || e.Kind == EvRMW
	}
}

func (k publishKind) String() string {
	switch k {
	case pubWrite:
		return "write"
	case pubCAS:
		return "cas"
	default:
		return "op"
	}
}

func runWitnessOrder(p *Pass) error {
	constraints, own := parseLattice(p)
	byStore := map[*types.Var][]orderConstraint{}
	for _, c := range constraints {
		byStore[c.store] = append(byStore[c.store], c)
	}

	for _, fn := range funcDecls(p) {
		be := functionEvents(p, fn)
		events := be.all()
		if len(events) == 0 {
			continue
		}
		checkOrder(p, be, events, byStore, own)
		checkFolds(p, fn, be, events, own)
	}
	return nil
}

// flushesField reports whether e flushes an address rooted at fld.
func flushesField(p *Pass, e *Event, fld *types.Var) bool {
	if !e.Flushes() {
		return false
	}
	for _, a := range e.Addrs {
		if addrField(p.Info, a) == fld {
			return true
		}
	}
	return false
}

// checkOrder reports stores that reach a declared publication before
// they are persisted. A (write) publication of an own-process field is
// the persist that makes it durable, and a fence carrying both fields
// satisfies the constraint.
func checkOrder(p *Pass, be *blockEvents, events []*Event, byStore map[*types.Var][]orderConstraint, own map[*types.Var]bool) {
	for _, ev := range events {
		if ev.Kind != EvWrite {
			continue
		}
		fld := addrField(p.Info, ev.Addrs[0])
		if fld == nil {
			continue
		}
		for _, c := range byStore[fld] {
			c := c
			persisted := func(e *Event) bool { return flushesField(p, e, c.store) }
			publishes := func(e *Event) bool {
				if e == ev || !c.kind.matches(e) {
					return false
				}
				for _, a := range e.Addrs {
					if addrField(p.Info, a) == c.publish {
						return true
					}
				}
				return false
			}
			if c.kind == pubWrite && own[c.publish] {
				publishes = func(e *Event) bool {
					return flushesField(p, e, c.publish) && !flushesField(p, e, c.store)
				}
			}
			if hit := be.reachesBefore(ev, persisted, publishes); hit != nil {
				pos := p.Fset.Position(hit.Pos)
				p.Reportf(ev.Pos, "order-violation",
					"store to %s reaches the %s of %s at %s before being persisted; nrl:persist-before requires flush+fence of %s first",
					fld.Name(), c.kind, c.publish.Name(), fmt.Sprintf("line %d", pos.Line), fld.Name())
			}
		}
	}
}

// checkFolds reports a store whose persist the function defers past a
// store to a field without the nrl:own-process mark, or past any CAS: a
// word another process may read would be published while the folded
// store is still volatile. A store that reaches such an op and is never
// flushed after it is not a fold: persistorder and the lattice own that
// case.
func checkFolds(p *Pass, fn *ast.FuncDecl, be *blockEvents, events []*Event, own map[*types.Var]bool) {
	aliases := collectAliases(p.Info, fn)
	key := func(e ast.Expr) string { return p.addrKey(aliases, e) }
	flushed := map[string]bool{}
	for _, e := range events {
		if e.Flushes() {
			for _, a := range e.Addrs {
				flushed[key(a)] = true
			}
		}
	}
	for _, ev := range events {
		if ev.Kind != EvWrite {
			continue
		}
		k := key(ev.Addrs[0])
		if !flushed[k] {
			continue
		}
		persisted := func(e *Event) bool {
			if !e.Flushes() {
				return false
			}
			for _, a := range e.Addrs {
				if key(a) == k {
					return true
				}
			}
			return false
		}
		shared := func(e *Event) bool {
			switch e.Kind {
			case EvRMW:
				return true
			case EvWrite:
				if key(e.Addrs[0]) == k {
					return false
				}
				fld := addrField(p.Info, e.Addrs[0])
				return fld == nil || !own[fld]
			}
			return false
		}
		hit := be.reachesBefore(ev, persisted, shared)
		if hit == nil || be.reachesBefore(hit, func(*Event) bool { return false }, persisted) == nil {
			continue
		}
		p.Reportf(ev.Pos, "shared-fold",
			"the persist of %s is deferred past the %s of %s at line %d, a word other processes can read; persist %s first, or mark %s nrl:own-process if only its owner reads it before it is durable",
			exprText(p.Fset, ev.Addrs[0]), storeKind(hit), exprText(p.Fset, hit.Addrs[0]), p.Fset.Position(hit.Pos).Line,
			exprText(p.Fset, ev.Addrs[0]), exprText(p.Fset, hit.Addrs[0]))
	}
}

// storeKind names a store event's kind for a diagnostic.
func storeKind(e *Event) string {
	if e.Kind == EvRMW {
		return "cas"
	}
	return "write"
}
